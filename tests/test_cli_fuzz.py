"""Fuzzing the CLI loaders: JSON values in place of the model, relation,
signature and experiment config documents, and strings drawn from each
language's tokens in place of the text flags.

Whatever the document, ``main`` returns an exit code in {0, 1, 2, 3} and
prints no traceback (an exception escaping ``main`` would end the process
with one and exit 1, the NEGATIVE code).  A malformed document, built by
putting a wrongly typed or unknown value into one slot of a valid document,
always exits 2.  Whatever the text, a text flag exits 0, 1 or 2.  The data
is derandomized, so every run checks the same documents and texts.
"""

import contextlib
import io
import json
import os

from hypothesis import given, settings, strategies as st

from guardasim.cli import main

DATA = os.path.join(os.path.dirname(__file__), "data")
FUZZ = settings(derandomize=True, max_examples=40, deadline=None, database=None)

KEYS = st.sampled_from([
    "domain", "relations", "predicates", "fwd", "bwd", "connectives", "R1", "P1", "box",
    "seed", "trials", "size_min", "size_max", "depth", "budget", "edge_prob", "fragment", "a",
]) | st.text(max_size=3)
SCALARS = (st.none() | st.booleans() | st.integers(-2, 3)
           | st.floats(-1, 2, allow_nan=False, allow_infinity=False) | st.sampled_from(["a", "b", "a2", ""])
           | st.text(max_size=4))
JSON = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(KEYS, inner, max_size=3),
    max_leaves=8,
)


def data(name):
    return os.path.join(DATA, name)


def run(tmp_path_factory, loader, doc):
    """Write ``doc`` to a file, call main with it as the loader's document and
    valid files elsewhere; returns the exit code and stderr."""
    path = tmp_path_factory.mktemp("fuzz") / "doc.json"
    path.write_text(json.dumps(doc))
    if loader == "config":
        argv = ["experiment", "--config", str(path), "--fragment", data("sig_modal.json"),
                "--trials", "1", "--size-max", "2", "--depth", "2"]
    else:
        files = {"fragment": data("sig_modal.json"), "m1": data("m_chain.json"),
                 "relation": data("rel_empty.json")}
        files[{"model": "m1", "relation": "relation", "signature": "fragment"}[loader]] = str(path)
        argv = ["check", "--fragment", files["fragment"], "--m1", files["m1"],
                "--m2", data("m_single.json"), "--relation", files["relation"]]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()
    return code, err.getvalue()


def is_name_list(value, names):
    return isinstance(value, list) and all(isinstance(x, str) and x in names for x in value)


def is_pair(value, first, second):
    return (isinstance(value, list) and len(value) == 2 and isinstance(value[0], str)
            and isinstance(value[1], str) and value[0] in first and value[1] in second)


def is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


def non_object():
    return JSON.filter(lambda v: not isinstance(v, dict))


def replaced(base, path, values):
    """Documents equal to ``base`` but for the value at ``path``."""
    def build(value):
        doc = json.loads(json.dumps(base))
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        return doc
    return values.map(build)


MODEL = {"domain": ["a", "b"], "relations": {"R1": [["a", "b"]]}, "predicates": {"P1": ["a"]}}
RELATION = {"fwd": [["a", "b"]], "bwd": [["b", "a2"]]}
SIGNATURE = {"connectives": {"box": "forall[R1]{ p1 }", "dia": "exists[R1]{ p1 }"}}
CONFIG = {"seed": 3, "trials": 1, "size_min": 1, "size_max": 2, "depth": 2, "relations": ["R1"]}

MALFORMED = {
    "model": st.one_of(
        non_object(),
        replaced(MODEL, ["domain"], JSON.filter(
            lambda v: not (is_name_list(v, v) and v and len(set(v)) == len(v)))),
        replaced(MODEL, ["relations"], non_object()),
        replaced(MODEL, ["relations", "R1"], JSON.filter(lambda v: not isinstance(v, list))),
        replaced(MODEL, ["relations", "R1", 0], JSON.filter(lambda v: not is_pair(v, ["a", "b"], ["a", "b"]))),
        replaced(MODEL, ["predicates"], non_object()),
        replaced(MODEL, ["predicates", "P1"], JSON.filter(lambda v: not is_name_list(v, ["a", "b"]))),
        replaced(MODEL, ["relations", "Q1"], JSON),
        replaced(MODEL, ["extra"], JSON),
    ),
    "relation": st.one_of(
        non_object(),
        replaced(RELATION, ["fwd"], JSON.filter(lambda v: not isinstance(v, list))),
        replaced(RELATION, ["fwd", 0], JSON.filter(lambda v: not is_pair(v, ["a", "a2"], ["b"]))),
        replaced(RELATION, ["bwd", 0], JSON.filter(lambda v: not is_pair(v, ["b"], ["a", "a2"]))),
        replaced(RELATION, ["extra"], JSON),
    ),
    "signature": st.one_of(
        non_object(),
        replaced(SIGNATURE, ["connectives"], non_object()),
        replaced(SIGNATURE, ["connectives", "box"], JSON.filter(lambda v: not isinstance(v, str))),
        # No text without braces is a connective.
        replaced(SIGNATURE, ["connectives", "box"], st.text(alphabet="pRT1~&|[], ", max_size=8)),
    ),
    "config": st.one_of(
        non_object(),
        *(replaced(CONFIG, [key], JSON.filter(lambda v: not is_int(v)))
          for key in ("seed", "trials", "size_min", "size_max", "depth")),
        replaced(CONFIG, ["edge_prob"], JSON.filter(lambda v: not (is_int(v) or isinstance(v, float)))),
        replaced(CONFIG, ["budget"], JSON.filter(lambda v: not (v is None or is_int(v)))),
        replaced(CONFIG, ["relations"], JSON.filter(lambda v: not is_name_list(v, v))),
        replaced(CONFIG, ["fragment"], JSON.filter(lambda v: not isinstance(v, str))),
        replaced(CONFIG, ["trials"], st.integers(-2, 0)),
        replaced(CONFIG, ["edge_prob"], st.sampled_from([-0.5, 1.5, 3])),
        replaced(CONFIG, ["extra"], JSON),
    ),
}


def fuzz(loader):
    @FUZZ
    @given(doc=JSON)
    def any_document(tmp_path_factory, doc):
        run(tmp_path_factory, loader, doc)

    @FUZZ
    @given(doc=MALFORMED[loader])
    def malformed_document(tmp_path_factory, doc):
        code, err = run(tmp_path_factory, loader, doc)
        assert code == 2 and err.startswith("input error: "), (doc, err)

    return any_document, malformed_document


test_model_any, test_model_malformed = fuzz("model")
test_relation_any, test_relation_malformed = fuzz("relation")
test_signature_any, test_signature_malformed = fuzz("signature")
test_config_any, test_config_malformed = fuzz("config")


# Per text flag: the command around it, the language's tokens (with a
# zero-indexed variable, a symbol with a trailing newline and unbalanced
# brackets among them), the openers that nest, an operand and the links that
# repeat after it into a long chain, and a frame for the text.
TEXT_FLAGS = {
    "expr": (
        ["classify-bool"],
        ["p1", "p2", "p0", "p00", "p17", "T", "F", "~", "&", "|", "->", "<->", "(", ")", " ", "$"],
        ["~", "("], ("p1", [" & p1", " | ~p2", " <-> p1", "&p2|p1"]), "{}",
    ),
    "fo-formula": (
        ["eval", "--model", data("m_chain.json"), "--world", "a"],
        ["forall", "exists", " ", "x", "y", "P1", "P1\n", "R1", "T", "F", "(", ")", ",", "~", "&",
         "|", "->", "<->", "$"],
        ["~", "(", "forall y "], ("P1(x)", [" & P1(x)", " | R1(x,y)", " <-> T", "&~F|T"]), "{}",
    ),
    "formula": (
        ["eval", "--model", data("m_chain.json"), "--world", "a", "--fragment", data("sig_modal.json")],
        ["box", "dia", "not", "and", "top", "P1", "P1\n", "p0", "(", ")", ",", " ", "$"],
        ["box(", "not(", "and(P1,"], ("and(P1", [",P1", ",and(P1"]), "{}",
    ),
    "spec": (
        ["classify-connective"],
        ["forall", "exists", "[", "]", "R1", "R1\n", ",", "{", "}", "p1", "p0", "~", "&", "(", ")",
         " "],
        ["~", "("], ("p1", [" & p1", " | ~p2", "&p1|p1"]), "forall[R1]{{ {} }}",
    ),
}
# How often an opener or a link repeats: once, in reach of every walk, past
# the parser's depth bound, and past the interpreter's recursion limit.
REPEATS = [1, 50, 600, 5000]


def texts(tokens, openers, chain, frame):
    glued = st.lists(st.sampled_from(tokens), max_size=10).map("".join)
    deep = st.tuples(st.sampled_from(openers), st.sampled_from(REPEATS), glued).map(
        lambda t: frame.format(t[0] * t[1] + t[2]))
    operand, links = chain
    long = st.tuples(st.sampled_from(links), st.sampled_from(REPEATS), glued).map(
        lambda t: frame.format(operand + t[0] * t[1] + t[2]))
    return glued | deep | long


def fuzz_text(flag):
    command, tokens, openers, chain, frame = TEXT_FLAGS[flag]

    @FUZZ
    @given(text=texts(tokens, openers, chain, frame))
    def any_text(text):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([*command, f"--{flag}={text}"])
        assert code in (0, 1, 2)
        assert "Traceback" not in err.getvalue()

    return any_text


test_expr_any = fuzz_text("expr")
test_fo_formula_any = fuzz_text("fo-formula")
test_formula_any = fuzz_text("formula")
test_spec_any = fuzz_text("spec")
