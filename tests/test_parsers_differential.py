"""The shared front end against the three frozen parsers in
``reference_parsers``: on strings built from each language's tokens, both
sides return equal results or raise the same exception type with the same
message (and, for Boolean cores, the same position).

Two intended differences in Boolean cores that parse.  A zero-indexed
variable (``p0``, ``p00``, ...) used to be read as the last variable or to
fail with ``IndexError``; it is now rejected at the first such leaf.  A
variable above the arity cap used to be reported as the highest variable at
position 0; now the first such leaf is named, at its position.  The data is
derandomized, so every run checks the same strings.
"""

from hypothesis import given, settings, strategies as st

import reference_parsers as reference
from guardasim.boolfn import MAX_ARITY, BoolExprError, from_expr
from guardasim.formula import FormulaError, parse_fo, parse_fragment

from helpers import sig_modal

DIFF = settings(derandomize=True, max_examples=300, deadline=None, database=None)
SIG = sig_modal()


def soup(tokens):
    """Token sequences glued together without separators."""
    return st.lists(st.sampled_from(tokens), max_size=12).map("".join)


def nested(leaves, unary, binary):
    """Mostly well-formed texts: leaves put into unary and binary format
    strings, with room for the odd misplaced piece."""
    return st.recursive(
        st.sampled_from(leaves),
        lambda inner: st.one_of(
            st.tuples(st.sampled_from(unary), inner).map(lambda t: t[0].format(t[1])),
            st.tuples(st.sampled_from(binary), inner, inner).map(lambda t: t[0].format(*t[1:])),
        ),
        max_leaves=6,
    )


def texts(tokens, leaves, unary, binary):
    well_formed = nested(leaves, unary, binary)
    return st.one_of(soup(tokens), well_formed, st.tuples(well_formed, soup(tokens)).map("".join))


BOOL_TEXT = texts(
    ["p1", "p2", "p3", "p0", "p00", "p17", "T", "F", "~", "&", "|", "->", "<->", "(", ")",
     " ", "\t", "$", "p", "-", "<"],
    ["p1", "p2", "p3", "p0", "T", "F", "~p1", "p2 | ~p3", "p1 -> p2"],
    ["~{}", "~ {}", "({})"],
    ["{} & {}", "{}|{}", "{} -> {}", "{} <-> {}"],
)
FO_TEXT = texts(
    ["forall", "exists", " ", "x", "y", "P1", "R1", "P1(x)", "R1(x,y)", "T", "F", "(", ")",
     ",", "~", "&", "|", "->", "<->", "$", "_a"],
    ["P1(x)", "R1(x,y)", "P2(y)", "T", "F", "x", "R1(x)", "P1(x,y)", "~P1(x)",
     "R1(x,y) -> P2(y)", "P1(y) | ~P2(x)", "P2(x) <-> T"],
    ["~{}", "({})", "forall y {}", "exists x ({})", "forall {}"],
    ["{} & {}", "{}|{}", "{} -> {}", "{} <-> {}"],
)
FRAG_TEXT = texts(
    ["box", "dia", "not", "and", "or", "top", "bot", "P1", "P2", "wobble", "(", ")", ",",
     " ", "$", "\n"],
    ["P1", "P2", "top", "top()", "bot", "wobble", "P1()", "Q1"],
    ["box({})", "dia ( {} )", "not({})", "top({})"],
    ["and({},{})", "or({}, {})", "box({},{})", "{},{}"],
)


def outcome(parse, *args):
    try:
        return "ok", parse(*args)
    except (BoolExprError, FormulaError, IndexError) as e:
        return type(e), str(e), getattr(e, "pos", None)


def bool_outcome(text):
    """The reference's outcome, but for the rejection of a zero-indexed
    variable or of a variable above the cap in a core that parses."""
    want = outcome(reference.from_expr, text)
    if want[0] is BoolExprError and "exceeds the arity cap" in want[1]:
        k, pos = next((int(val[1:]), pos) for kind, val, pos in reference.bool_tokens(text)
                      if kind == "var" and int(val[1:]) > MAX_ARITY)
        want = (BoolExprError, f"variable p{k} exceeds the arity cap {MAX_ARITY} (at position {pos})", pos)
    if want[0] in ("ok", IndexError):
        pos = next((pos for kind, val, pos in reference.bool_tokens(text)
                    if kind == "var" and int(val[1:]) == 0), None)
        if pos is not None:
            want = (BoolExprError, f"variables are numbered from p1 (at position {pos})", pos)
    return want


# One string per language in each example: drawing is most of the cost.
@DIFF
@given(core=BOOL_TEXT, fo=FO_TEXT, frag=FRAG_TEXT)
def test_front_end_matches_reference(core, fo, frag):
    assert outcome(from_expr, core) == bool_outcome(core)
    assert outcome(parse_fo, fo) == outcome(reference.parse_fo, fo)
    assert outcome(parse_fragment, frag, SIG) == outcome(reference.parse_fragment, frag, SIG)
