"""Parsing, evaluation, translation and enumeration of formulas.

First-order formulas are evaluated Tarskian-style with quantifiers ranging
over the model domain.  Fragment formulas are evaluated directly over
guard paths, computing the truth set of every subformula bottom-up; the
first-order route through the standard translation is the reference the
direct route is tested against.  The enumeration engine generates all
fragment formulas up to a nesting depth, deduplicated either syntactically
or by their joint truth vector on a model pair.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from typing import Mapping, Sequence

from .bitrows import union
from .connective import FragmentSignature, GuardedConnective, std_translation
from .model import Model, PointedModel
from .syntax import (
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


class FormulaError(ValueError):
    """Syntax or evaluation failure; parse errors carry the position."""


class BudgetExceeded(RuntimeError):
    """Raised when enumeration hits its candidate budget; distinct from an
    exhausted (complete) enumeration."""

    def __init__(self, checked: int):
        super().__init__(f"enumeration budget exceeded after {checked} candidates")
        self.checked = checked


# -- first-order parsing -----------------------------------------------------------

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


# -- Tarskian evaluation -------------------------------------------------------------

def eval_fo(m: Model, assignment: Mapping[str, str], phi: FoFormula) -> bool:
    """Classical satisfaction; all free variables must be assigned."""
    env = dict(assignment)

    def ev(node: FoFormula) -> bool:
        if isinstance(node, PredAtom):
            return m.has_pred(node.pred, _lookup(node.var))
        if isinstance(node, RelAtom):
            return (_lookup(node.var1), _lookup(node.var2)) in m.rel_pairs(node.rel)
        if isinstance(node, Top):
            return True
        if isinstance(node, Bot):
            return False
        if isinstance(node, Not):
            return not ev(node.body)
        if isinstance(node, And):
            return ev(node.left) and ev(node.right)
        if isinstance(node, Or):
            return ev(node.left) or ev(node.right)
        if isinstance(node, Implies):
            return (not ev(node.left)) or ev(node.right)
        if isinstance(node, Forall):
            return _quant(node, all_of=True)
        if isinstance(node, Exists):
            return _quant(node, all_of=False)
        raise FormulaError(f"not a formula node: {node!r}")

    def _lookup(var: str) -> str:
        try:
            return env[var]
        except KeyError:
            raise FormulaError(f"unassigned free variable {var!r}") from None

    def _quant(node, all_of: bool) -> bool:
        shadow = env.get(node.var)
        had = node.var in env
        try:
            for el in m.domain:
                env[node.var] = el
                val = ev(node.body)
                if all_of and not val:
                    return False
                if not all_of and val:
                    return True
            return all_of
        finally:
            if had:
                env[node.var] = shadow
            else:
                env.pop(node.var, None)

    return ev(phi)


# -- fragment parsing ----------------------------------------------------------------

_FRAG_TOKEN = re.compile(r"\s*(?:(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<op>[(),]))")


class _FragParser:
    def __init__(self, text: str, sig: FragmentSignature):
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


def parse_fragment(text: str, sig: FragmentSignature) -> FragmentFormula:
    return _FragParser(text, sig).parse()


# -- fragment evaluation over guard paths ---------------------------------------------

def fragment_truth_set(m: Model, f: FragmentFormula, sig: FragmentSignature) -> frozenset[str]:
    """The set of elements satisfying ``f``, memoized over the subformula DAG."""
    memo: dict[FragmentFormula, int] = {}

    def walk(node: FragmentFormula) -> int:
        got = memo.get(node)
        if got is not None:
            return got
        if isinstance(node, Atom):
            out = _pred_vector(m, node.pred)
        else:
            mu = sig.get(node.name)
            if mu.arity != len(node.args):
                raise FormulaError(
                    f"connective {node.name!r} has arity {mu.arity}, got {len(node.args)}"
                )
            out = _mask_connective(m, mu, [walk(a) for a in node.args])
        memo[node] = out
        return out

    vec = walk(f)
    return frozenset(u for i, u in enumerate(m.domain) if (vec >> i) & 1)


def eval_fragment(m: Model, a: str, f: FragmentFormula, sig: FragmentSignature) -> bool:
    if a not in m:
        raise FormulaError(f"unknown element {a!r}")
    return a in fragment_truth_set(m, f, sig)


def std_translate(f: FragmentFormula, var: str, sig: FragmentSignature) -> FoFormula:
    """Unfold fragment formulas into the correspondence language at ``var``."""
    if isinstance(f, Atom):
        return PredAtom(f.pred, var)
    mu = sig.get(f.name)
    args = [std_translate(a, var, sig) for a in f.args]
    return std_translation(mu, args, var)


# -- layered enumeration ----------------------------------------------------------------

@dataclass(frozen=True)
class SemanticClass:
    """One representative formula with its truth vectors on a model pair."""

    formula: FragmentFormula
    vec1: int  # bit i = truth at m1.domain[i]
    vec2: int


def _pred_vector(m: Model, pred: str) -> int:
    return sum(1 << m.index_of(u) for u in m.pred_elements(pred))


def _mask_connective(m: Model, mu: GuardedConnective, child_vecs: Sequence[int]) -> int:
    """Truth vector of one application from child truth vectors (bit per element)."""
    n = len(m.domain)
    vec = 0
    for i in range(n):
        if mu.core.evaluate(bool((cv >> i) & 1) for cv in child_vecs):
            vec |= 1 << i
    full = (1 << n) - 1
    for block in reversed(mu.blocks):
        # union(sources, S): the elements with a guard-path endpoint in S
        sources = m.chain_rows(block.guards)[1]
        if block.quantifier == "forall":
            vec = full & ~union(sources, full & ~vec)
        else:
            vec = union(sources, vec)
    return vec


def semantic_classes(
    sig: FragmentSignature,
    preds: Sequence[str],
    depth: int,
    m1: Model,
    m2: Model,
    budget: int | None = 1_000_000,
) -> list[SemanticClass]:
    """All truth-vector classes of fragment formulas of nesting depth <= depth
    on the pair (m1, m2), each with its first witnessing formula.

    Generation is layered and deterministic; a layer that adds no new
    vector closes the enumeration early, because vectors compose through
    connectives.  Raises BudgetExceeded past the candidate budget.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    seen: dict[tuple[int, int], int] = {}
    classes: list[SemanticClass] = []
    layer_of: list[int] = []
    checked = 0

    def admit(formula: FragmentFormula, v1: int, v2: int, layer: int) -> bool:
        key = (v1, v2)
        if key in seen:
            return False
        seen[key] = len(classes)
        classes.append(SemanticClass(formula, v1, v2))
        layer_of.append(layer)
        return True

    for p in preds:
        admit(Atom(p), _pred_vector(m1, p), _pred_vector(m2, p), 0)
    for name in sig.names():
        mu = sig.get(name)
        if mu.arity == 0:
            v1 = _mask_connective(m1, mu, [])
            v2 = _mask_connective(m2, mu, [])
            admit(Apply(name, ()), v1, v2, 0)

    for layer in range(1, depth + 1):
        start = len(classes)
        prev_count = start
        grew = False
        for name in sig.names():
            mu = sig.get(name)
            if mu.arity == 0:
                continue
            for combo in itertools.product(range(prev_count), repeat=mu.arity):
                if max(layer_of[i] for i in combo) != layer - 1:
                    continue
                if budget is not None and checked >= budget:
                    raise BudgetExceeded(checked)
                checked += 1
                kids = [classes[i] for i in combo]
                v1 = _mask_connective(m1, mu, [k.vec1 for k in kids])
                v2 = _mask_connective(m2, mu, [k.vec2 for k in kids])
                if admit(Apply(name, tuple(k.formula for k in kids)), v1, v2, layer):
                    grew = True
        if not grew:
            break
    return classes


def enumerate_fragment(
    sig: FragmentSignature,
    preds: Sequence[str],
    depth: int,
    dedup_models: tuple[Model, Model] | None = None,
    budget: int | None = 1_000_000,
) -> list[FragmentFormula]:
    """Fragment formulas of nesting depth <= depth over the given atoms.

    With a model pair supplied, formulas are deduplicated by their joint
    truth vector; otherwise deduplication is syntactic.  Order is
    deterministic.
    """
    if dedup_models is not None:
        m1, m2 = dedup_models
        return [c.formula for c in semantic_classes(sig, preds, depth, m1, m2, budget)]

    if depth < 0:
        raise ValueError("depth must be >= 0")
    seen: set[FragmentFormula] = set()
    out: list[FragmentFormula] = []
    layer_of: dict[FragmentFormula, int] = {}
    checked = 0

    def admit(f: FragmentFormula, layer: int) -> bool:
        if f in seen:
            return False
        seen.add(f)
        out.append(f)
        layer_of[f] = layer
        return True

    for p in preds:
        admit(Atom(p), 0)
    for name in sig.names():
        if sig.get(name).arity == 0:
            admit(Apply(name, ()), 0)

    for layer in range(1, depth + 1):
        prev = list(out)
        for name in sig.names():
            mu = sig.get(name)
            if mu.arity == 0:
                continue
            for combo in itertools.product(prev, repeat=mu.arity):
                if max(layer_of[c] for c in combo) != layer - 1:
                    continue
                if budget is not None and checked >= budget:
                    raise BudgetExceeded(checked)
                checked += 1
                admit(Apply(name, tuple(combo)), layer)
    return out


def distinguishing_formula(
    sig: FragmentSignature,
    pm1: PointedModel,
    pm2: PointedModel,
    depth: int,
    budget: int | None = 1_000_000,
) -> FragmentFormula | None:
    """A fragment formula true at pm1.point and false at pm2.point, if one
    exists within the depth bound; every return is re-checked by evaluation."""
    i1 = pm1.model.index_of(pm1.point)
    i2 = pm2.model.index_of(pm2.point)
    for cls in semantic_classes(sig, _model_preds(pm1.model, pm2.model), depth,
                                pm1.model, pm2.model, budget):
        if (cls.vec1 >> i1) & 1 and not (cls.vec2 >> i2) & 1:
            f = cls.formula
            if not eval_fragment(pm1.model, pm1.point, f, sig) or eval_fragment(
                pm2.model, pm2.point, f, sig
            ):
                raise AssertionError("internal error: candidate fails its own split")
            return f
    return None


def _model_preds(m1: Model, m2: Model) -> list[str]:
    return sorted(set(m1.predicates) | set(m2.predicates))
