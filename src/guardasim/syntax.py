"""Syntax trees for the correspondence language and for fragment formulas,
and the front end every written form is read through.

First-order formulas are built from predicate and relation atoms with the
classical connectives and single-variable quantifiers; there is no
identity.  Fragment formulas are application trees: atoms P<n> and named
connective applications, resolved against a signature elsewhere.

The front end serves Boolean cores, first-order formulas and fragment
formulas alike: one tokenizer driven by a language's token pattern, one
cursor over the tokens, and one precedence climber for the ladder the
cores and first-order formulas share.  Each language supplies its atom
rule, its node constructors and its error type.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, Iterator, Union

# Symbol shapes, always matched whole: relation and predicate symbols, and
# the names connectives may take.
_REL_NAME = re.compile(r"R[0-9]+")
_PRED_NAME = re.compile(r"P[0-9]+")
_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


# -- the front end ----------------------------------------------------------------

def _tokens(text: str, pattern: re.Pattern[str], error: Callable) -> Iterator[tuple[str, str, int]]:
    """``(kind, value, pos)`` per token, the kind being the name of the
    pattern's group that matched, then ``("end", "", len(text))``."""
    pos = 0
    while pos < len(text):
        m = pattern.match(text, pos)
        if m is None:
            rest = text[pos:].lstrip()
            if not rest:
                break
            raise error(f"unexpected character {rest[0]!r}", pos)
        yield m.lastgroup, m.group(m.lastgroup), m.start(m.lastgroup)
        pos = m.end()
    yield "end", "", len(text)


class _Cursor:
    """The tokens of one text, read left to right with one token of lookahead.
    ``error(message, pos)`` builds the language's exception."""

    def __init__(self, text: str, pattern: re.Pattern[str], error: Callable):
        self.tokens = list(_tokens(text, pattern, error))
        self.i = 0
        self.error = error

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.i]

    def next(self) -> tuple[str, str, int]:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def accept(self, op: str) -> bool:
        """Consume the operator ``op`` if it comes next; say whether it did."""
        if self.tokens[self.i][:2] == ("op", op):
            self.i += 1
            return True
        return False

    def expect(self, kind: str, value: str | None = None) -> str:
        k, v, pos = self.peek()
        if k != kind or (value is not None and v != value):
            raise self.error(f"expected {value or kind!r}", pos)
        self.i += 1
        return v


# The most levels a parsed tree may have.  The walks over trees (evaluation,
# printing, translation, free variables) recurse once or twice per level, and
# translating a fragment formula adds several first-order levels per level,
# so this keeps every walk far inside the interpreter's recursion limit.
MAX_DEPTH = 200


def _parse(text: str, pattern: re.Pattern[str], start: Callable, error: Callable):
    """Read all of ``text`` with the rule ``start``.  Input nested too deeply
    for the interpreter's stack is the language's error like any other,
    placed at the last token read; so is a tree of more than ``MAX_DEPTH``
    levels, such as a long chain of one operator, placed at the end."""
    cur = _Cursor(text, pattern, error)
    try:
        node = start(cur)
    except RecursionError:
        raise error("nesting too deep", cur.tokens[cur.i - 1][2]) from None
    kind, val, pos = cur.peek()
    if kind != "end":
        raise error(f"unexpected trailing input {val!r}", pos)
    if _height(node) > MAX_DEPTH:
        raise error("nesting too deep", pos)
    return node


def _height(root) -> int:
    """The levels of a parsed tree, counted with an explicit stack.  Boolean
    core nodes are tuples ``(tag, operand, ...)``; formula nodes are
    dataclasses whose subtrees are their formula fields or application
    arguments."""
    height, stack = 0, [(root, 1)]
    while stack:
        node, level = stack.pop()
        height = max(height, level)
        if isinstance(node, tuple):
            subtrees = [c for c in node[1:] if isinstance(c, tuple)]
        elif isinstance(node, Apply):
            subtrees = node.args
        else:
            subtrees = [c for c in vars(node).values() if isinstance(c, FoFormula)]
        stack.extend((c, level + 1) for c in subtrees)
    return height


# Binary operators, loosest first, with their level and whether they
# associate to the right; ``~`` binds tighter than all of them.
_LADDER = {"<->": (1, False), "->": (2, True), "|": (3, False), "&": (4, False)}


def _climb(cur: _Cursor, atom: Callable, nodes: dict, level: int = 1):
    """The operators binding at least as tightly as ``level`` around atoms
    read by ``atom``; ``nodes`` maps each operator, ``~`` included, to the
    constructor of its node."""
    if cur.accept("~"):
        left = nodes["~"](_climb(cur, atom, nodes, len(_LADDER) + 1))
    else:
        left = atom(cur)
    while True:
        kind, op, _ = cur.peek()
        if kind != "op" or op not in _LADDER or _LADDER[op][0] < level:
            return left
        cur.next()
        tight, right_assoc = _LADDER[op]
        left = nodes[op](left, _climb(cur, atom, nodes, tight if right_assoc else tight + 1))


# -- first-order formulas -------------------------------------------------------

class FoFormula:
    """Base class; concrete nodes are the frozen dataclasses below."""

    __slots__ = ()


@dataclass(frozen=True)
class PredAtom(FoFormula):
    pred: str
    var: str


@dataclass(frozen=True)
class RelAtom(FoFormula):
    rel: str
    var1: str
    var2: str


@dataclass(frozen=True)
class Top(FoFormula):
    pass


@dataclass(frozen=True)
class Bot(FoFormula):
    pass


@dataclass(frozen=True)
class Not(FoFormula):
    body: FoFormula


@dataclass(frozen=True)
class And(FoFormula):
    left: FoFormula
    right: FoFormula


@dataclass(frozen=True)
class Or(FoFormula):
    left: FoFormula
    right: FoFormula


@dataclass(frozen=True)
class Implies(FoFormula):
    left: FoFormula
    right: FoFormula


@dataclass(frozen=True)
class Forall(FoFormula):
    var: str
    body: FoFormula


@dataclass(frozen=True)
class Exists(FoFormula):
    var: str
    body: FoFormula


TOP = Top()
BOT = Bot()


def conjoin(parts: list[FoFormula]) -> FoFormula:
    if not parts:
        return TOP
    out = parts[0]
    for p in parts[1:]:
        out = And(out, p)
    return out


def disjoin(parts: list[FoFormula]) -> FoFormula:
    if not parts:
        return BOT
    out = parts[0]
    for p in parts[1:]:
        out = Or(out, p)
    return out


def _vars(phi: FoFormula, bound: bool) -> frozenset[str]:
    """The variables of ``phi``; a quantified variable is kept when ``bound``
    and dropped from its body's otherwise."""
    if isinstance(phi, PredAtom):
        return frozenset({phi.var})
    if isinstance(phi, RelAtom):
        return frozenset({phi.var1, phi.var2})
    if isinstance(phi, (Top, Bot)):
        return frozenset()
    if isinstance(phi, Not):
        return _vars(phi.body, bound)
    if isinstance(phi, (And, Or, Implies)):
        return _vars(phi.left, bound) | _vars(phi.right, bound)
    if isinstance(phi, (Forall, Exists)):
        body = _vars(phi.body, bound)
        return body | {phi.var} if bound else body - {phi.var}
    raise TypeError(f"not a formula node: {phi!r}")


def free_vars(phi: FoFormula) -> frozenset[str]:
    return _vars(phi, bound=False)


def all_vars(phi: FoFormula) -> frozenset[str]:
    return _vars(phi, bound=True)


def rename_free(phi: FoFormula, old: str, new: str) -> FoFormula:
    """Rename free occurrences of ``old`` to ``new``.

    ``new`` must not occur bound in ``phi``; callers pick fresh names.
    """
    if isinstance(phi, PredAtom):
        return PredAtom(phi.pred, new if phi.var == old else phi.var)
    if isinstance(phi, RelAtom):
        return RelAtom(
            phi.rel,
            new if phi.var1 == old else phi.var1,
            new if phi.var2 == old else phi.var2,
        )
    if isinstance(phi, (Top, Bot)):
        return phi
    if isinstance(phi, Not):
        return Not(rename_free(phi.body, old, new))
    if isinstance(phi, (And, Or, Implies)):
        return type(phi)(rename_free(phi.left, old, new), rename_free(phi.right, old, new))
    if isinstance(phi, (Forall, Exists)):
        if phi.var == old:
            return phi
        return type(phi)(phi.var, rename_free(phi.body, old, new))
    raise TypeError(f"not a formula node: {phi!r}")


_PRECEDENCE = {"quant": 0, "imp": 1, "or": 2, "and": 3, "not": 4, "atom": 5}


def _fo_text(phi: FoFormula) -> tuple[str, str]:
    """Render with minimal parentheses; returns (text, level name)."""
    if isinstance(phi, PredAtom):
        return f"{phi.pred}({phi.var})", "atom"
    if isinstance(phi, RelAtom):
        return f"{phi.rel}({phi.var1},{phi.var2})", "atom"
    if isinstance(phi, Top):
        return "T", "atom"
    if isinstance(phi, Bot):
        return "F", "atom"
    if isinstance(phi, Not):
        body, lvl = _fo_text(phi.body)
        if _PRECEDENCE[lvl] < _PRECEDENCE["not"]:
            body = f"({body})"
        return f"~{body}", "not"
    if isinstance(phi, (And, Or)):
        op, lvl = ("&", "and") if isinstance(phi, And) else ("|", "or")
        lt, ll = _fo_text(phi.left)
        rt, rl = _fo_text(phi.right)
        if _PRECEDENCE[ll] < _PRECEDENCE[lvl]:
            lt = f"({lt})"
        if _PRECEDENCE[rl] <= _PRECEDENCE[lvl]:
            rt = f"({rt})"
        return f"{lt} {op} {rt}", lvl
    if isinstance(phi, Implies):
        lt, ll = _fo_text(phi.left)
        rt, rl = _fo_text(phi.right)
        if _PRECEDENCE[ll] <= _PRECEDENCE["imp"]:
            lt = f"({lt})"
        if _PRECEDENCE[rl] < _PRECEDENCE["imp"]:
            rt = f"({rt})"
        return f"{lt} -> {rt}", "imp"
    if isinstance(phi, (Forall, Exists)):
        word = "forall" if isinstance(phi, Forall) else "exists"
        body, lvl = _fo_text(phi.body)
        if lvl == "atom":
            return f"{word} {phi.var} {body}", "quant"
        return f"{word} {phi.var} ({body})", "quant"
    raise TypeError(f"not a formula node: {phi!r}")


def fo_text(phi: FoFormula) -> str:
    return _fo_text(phi)[0]


# -- fragment formulas ----------------------------------------------------------

@dataclass(frozen=True)
class Atom:
    """A predicate atom P<n> at the designated variable."""

    pred: str


@dataclass(frozen=True)
class Apply:
    """Application of a named connective to fragment subformulas."""

    name: str
    args: tuple["FragmentFormula", ...]


FragmentFormula = Union[Atom, Apply]


def fragment_text(f: FragmentFormula) -> str:
    if isinstance(f, Atom):
        return f.pred
    if not f.args:
        return f.name
    return f"{f.name}({','.join(fragment_text(a) for a in f.args)})"


def fragment_depth(f: FragmentFormula) -> int:
    """Apply-nesting depth; atoms and nullary applications sit at depth 0."""
    if isinstance(f, Atom) or not f.args:
        return 0
    return 1 + max(fragment_depth(a) for a in f.args)
