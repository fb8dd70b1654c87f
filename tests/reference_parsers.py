"""The three hand-written recursive-descent parsers the library started from,
kept as the reference the shared front end in ``guardasim.syntax`` is
compared against.

Each language has its own tokenizer loop, its own ``peek``/``next`` and
its own precedence ladder, exactly as they were before the front end was
folded into one.  Only the tree dataclasses, ``TruthTable`` and the
exception types are shared with the code under test; the symbol shapes,
token patterns and the Boolean evaluation walk are written out here.
"""

from __future__ import annotations

import re

from guardasim.boolfn import MAX_ARITY, BoolExprError, TruthTable
from guardasim.formula import FormulaError
from guardasim.syntax import (
    And,
    Apply,
    Atom,
    Bot,
    Exists,
    FoFormula,
    Forall,
    FragmentFormula,
    Implies,
    Not,
    Or,
    PredAtom,
    RelAtom,
    Top,
)


# -- Boolean cores --------------------------------------------------------------

_TOKEN_RE = re.compile(r"\s*(?:(p[0-9]+)|(T|F)|(<->|->|[~&|()]))")


def bool_tokens(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            raise BoolExprError(f"unexpected character {stripped[0]!r}", pos)
        if m.group(1):
            tokens.append(("var", m.group(1), m.start(1)))
        elif m.group(2):
            tokens.append(("const", m.group(2), m.start(2)))
        else:
            tokens.append(("op", m.group(3), m.start(3)))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _ExprParser:
    """Recursive descent for: iff > imp (right-assoc) > or > and > unary > atom."""

    def __init__(self, text: str):
        self.text = text
        self.tokens = bool_tokens(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str):
        kind, val, pos = self.peek()
        if kind != "op" or val != op:
            raise BoolExprError(f"expected {op!r}", pos)
        self.next()

    def parse(self):
        node = self.iff()
        kind, val, pos = self.peek()
        if kind != "end":
            raise BoolExprError(f"unexpected trailing input {val!r}", pos)
        return node

    def iff(self):
        node = self.imp()
        while self.peek()[:2] == ("op", "<->"):
            self.next()
            node = ("iff", node, self.imp())
        return node

    def imp(self):
        node = self.or_()
        if self.peek()[:2] == ("op", "->"):
            self.next()
            return ("imp", node, self.imp())
        return node

    def or_(self):
        node = self.and_()
        while self.peek()[:2] == ("op", "|"):
            self.next()
            node = ("or", node, self.and_())
        return node

    def and_(self):
        node = self.unary()
        while self.peek()[:2] == ("op", "&"):
            self.next()
            node = ("and", node, self.unary())
        return node

    def unary(self):
        kind, val, pos = self.peek()
        if kind == "op" and val == "~":
            self.next()
            return ("not", self.unary())
        return self.atom()

    def atom(self):
        kind, val, pos = self.next()
        if kind == "var":
            return ("var", int(val[1:]))
        if kind == "const":
            return ("const", val == "T")
        if kind == "op" and val == "(":
            node = self.iff()
            self.expect_op(")")
            return node
        raise BoolExprError(f"expected an atom, found {val!r}", pos)


def bool_tree(text: str):
    """The tuple tree: ("var", k), ("const", b), ("not", a) or (op, a, b)."""
    return _ExprParser(text).parse()


def _max_var(node) -> int:
    tag = node[0]
    if tag == "var":
        return node[1]
    if tag == "const":
        return 0
    if tag == "not":
        return _max_var(node[1])
    return max(_max_var(node[1]), _max_var(node[2]))


def _eval_node(node, values: tuple[int, ...]) -> bool:
    tag = node[0]
    if tag == "var":
        return bool(values[node[1] - 1])
    if tag == "const":
        return node[1]
    if tag == "not":
        return not _eval_node(node[1], values)
    a = _eval_node(node[1], values)
    b = _eval_node(node[2], values)
    if tag == "and":
        return a and b
    if tag == "or":
        return a or b
    if tag == "imp":
        return (not a) or b
    return a == b  # iff


def from_expr(text: str) -> TruthTable:
    """The truth table, as computed before variables were required to start
    at p1: a ``p0`` leaf reads ``values[-1]`` or raises ``IndexError``."""
    node = bool_tree(text)
    n = _max_var(node)
    if n > MAX_ARITY:
        raise BoolExprError(f"variable p{n} exceeds the arity cap {MAX_ARITY}", 0)
    bits = 0
    table = TruthTable(n, 0)
    for i in range(1 << n):
        if _eval_node(node, table.coordinates(i)):
            bits |= 1 << i
    return TruthTable(n, bits)


# -- first-order formulas -----------------------------------------------------------

_FO_TOKEN = re.compile(
    r"\s*(?:(?P<kw>forall|exists)\b|(?P<const>[TF])\b|(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op><->|->|[~&|(),]))"
)


def _fo_tokens(text: str):
    pos = 0
    out = []
    while pos < len(text):
        m = _FO_TOKEN.match(text, pos)
        if not m:
            if not text[pos:].strip():
                break
            raise FormulaError(f"unexpected character {text[pos:].lstrip()[0]!r} (at position {pos})")
        if m.group("kw"):
            out.append(("kw", m.group("kw"), m.start("kw")))
        elif m.group("const"):
            out.append(("const", m.group("const"), m.start("const")))
        elif m.group("name"):
            out.append(("name", m.group("name"), m.start("name")))
        else:
            out.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    out.append(("end", "", len(text)))
    return out


_PRED_TOKEN = re.compile(r"^P[0-9]+$")
_REL_TOKEN = re.compile(r"^R[0-9]+$")


class _FoParser:
    def __init__(self, text: str):
        self.tokens = _fo_tokens(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind, value=None):
        k, v, pos = self.peek()
        if k != kind or (value is not None and v != value):
            raise FormulaError(f"expected {value or kind!r} (at position {pos})")
        return self.next()

    def parse(self) -> FoFormula:
        phi = self.formula()
        k, v, pos = self.peek()
        if k != "end":
            raise FormulaError(f"unexpected trailing input {v!r} (at position {pos})")
        return phi

    def formula(self) -> FoFormula:
        k, v, pos = self.peek()
        if k == "kw":
            self.next()
            _, var, _ = self.expect("name")
            body = self.formula()
            return Forall(var, body) if v == "forall" else Exists(var, body)
        return self.iff()

    def iff(self) -> FoFormula:
        node = self.imp()
        while self.peek()[:2] == ("op", "<->"):
            self.next()
            rhs = self.imp()
            node = And(Implies(node, rhs), Implies(rhs, node))
        return node

    def imp(self) -> FoFormula:
        node = self.or_()
        if self.peek()[:2] == ("op", "->"):
            self.next()
            return Implies(node, self.imp())
        return node

    def or_(self) -> FoFormula:
        node = self.and_()
        while self.peek()[:2] == ("op", "|"):
            self.next()
            node = Or(node, self.and_())
        return node

    def and_(self) -> FoFormula:
        node = self.unary()
        while self.peek()[:2] == ("op", "&"):
            self.next()
            node = And(node, self.unary())
        return node

    def unary(self) -> FoFormula:
        if self.peek()[:2] == ("op", "~"):
            self.next()
            return Not(self.unary())
        return self.atom()

    def atom(self) -> FoFormula:
        k, v, pos = self.next()
        if k == "const":
            return Top() if v == "T" else Bot()
        if k == "op" and v == "(":
            node = self.formula()
            self.expect("op", ")")
            return node
        if k == "name":
            if _PRED_TOKEN.match(v) and self.peek()[:2] == ("op", "("):
                self.next()
                _, var, _ = self.expect("name")
                self.expect("op", ")")
                return PredAtom(v, var)
            if _REL_TOKEN.match(v) and self.peek()[:2] == ("op", "("):
                self.next()
                _, v1, _ = self.expect("name")
                self.expect("op", ",")
                _, v2, _ = self.expect("name")
                self.expect("op", ")")
                return RelAtom(v, v1, v2)
            raise FormulaError(f"bare variable {v!r} is not a formula (at position {pos})")
        raise FormulaError(f"expected an atom (at position {pos})")


def parse_fo(text: str) -> FoFormula:
    return _FoParser(text).parse()


# -- fragment formulas ------------------------------------------------------------------

_FRAG_TOKEN = re.compile(r"\s*(?:(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<op>[(),]))")


class _FragParser:
    def __init__(self, text: str, sig):
        self.sig = sig
        self.tokens = []
        pos = 0
        while pos < len(text):
            m = _FRAG_TOKEN.match(text, pos)
            if not m:
                if not text[pos:].strip():
                    break
                raise FormulaError(
                    f"unexpected character {text[pos:].lstrip()[0]!r} (at position {pos})"
                )
            if m.group("name"):
                self.tokens.append(("name", m.group("name"), m.start("name")))
            else:
                self.tokens.append(("op", m.group("op"), m.start("op")))
            pos = m.end()
        self.tokens.append(("end", "", len(text)))
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def parse(self) -> FragmentFormula:
        node = self.term()
        k, v, pos = self.peek()
        if k != "end":
            raise FormulaError(f"unexpected trailing input {v!r} (at position {pos})")
        return node

    def term(self) -> FragmentFormula:
        k, v, pos = self.next()
        if k != "name":
            raise FormulaError(f"expected a predicate or connective (at position {pos})")
        if _PRED_TOKEN.match(v) and v not in self.sig:
            return Atom(v)
        if v not in self.sig:
            raise FormulaError(f"unknown connective {v!r} (at position {pos})")
        mu = self.sig.get(v)
        args: list[FragmentFormula] = []
        if self.peek()[:2] == ("op", "("):
            self.next()
            if self.peek()[:2] != ("op", ")"):
                args.append(self.term())
                while self.peek()[:2] == ("op", ","):
                    self.next()
                    args.append(self.term())
            k2, v2, pos2 = self.next()
            if (k2, v2) != ("op", ")"):
                raise FormulaError(f"expected ')' (at position {pos2})")
        if len(args) != mu.arity:
            raise FormulaError(
                f"connective {v!r} has arity {mu.arity}, got {len(args)} arguments (at position {pos})"
            )
        return Apply(v, tuple(args))


def parse_fragment(text: str, sig) -> FragmentFormula:
    return _FragParser(text, sig).parse()
