"""Parsing, evaluation, translation and enumeration of formulas.

First-order formulas are evaluated Tarskian-style with quantifiers ranging
over the model domain.  Fragment formulas are evaluated bit-parallel: each
connective is compiled once into an evaluator on whole truth vectors (its
Boolean core as an OR over literal patterns of the argument vectors, its
guard blocks through the models' guard-chain source rows), and the truth
set of every subformula is computed bottom-up.  The first-order route
through the standard translation is the reference the direct route is
tested against.

The enumeration engine generates all fragment formulas up to a nesting
depth, deduplicated either syntactically or by their truth vector on a
model pair.  The two models of the pair share one joint vector (the first
model's elements in the low bits), so each candidate is evaluated once.
Layer l applies each connective only to the argument lists that use a
class of layer l-1, in ``itertools.product`` order, so the classes of
depth <= d are a prefix of every deeper enumeration.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from typing import Callable, Iterator, Mapping, Sequence

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


# -- the joint bit-parallel evaluator ---------------------------------------------------

class _Joint:
    """Models laid side by side in one bit vector: the first model's elements
    take bits 0..n1-1, the next model's the following bits, and so on.
    Guard edges never cross models, so one source row per element, with the
    later models' rows shifted past the earlier ones, serves them all."""

    def __init__(self, models: Sequence[Model]):
        self.models = tuple(models)
        self.full = (1 << sum(len(m) for m in self.models)) - 1
        self._sources: dict[tuple[str, ...], list[int]] = {}

    def atom(self, pred: str) -> int:
        vec = shift = 0
        for m in self.models:
            vec |= sum(1 << m.index_of(u) for u in m.pred_elements(pred)) << shift
            shift += len(m)
        return vec

    def sources(self, guards: tuple[str, ...]) -> list[int]:
        """Row i: the elements with a guard-path endpoint at element i."""
        rows = self._sources.get(guards)
        if rows is None:
            rows = self._sources[guards] = []
            shift = 0
            for m in self.models:
                rows.extend(row << shift for row in m.chain_rows(guards)[1])
                shift += len(m)
        return rows

    def connective(self, mu: GuardedConnective) -> Callable[[Sequence[int]], int]:
        """Compile ``mu`` into a function from the argument truth vectors to
        the truth vector of the application.

        The core is the OR, over its true rows (or its false rows, then
        complemented, when those are fewer), of the AND of each argument
        vector or its complement.  The blocks then act innermost first:
        ``union(sources, S)`` holds the elements with a guard-path endpoint
        in S.
        """
        full = self.full
        core = mu.core
        rows = [r for r in range(core.size) if core.value_at(r)]
        negate = 2 * len(rows) > core.size
        if negate:
            rows = [r for r in range(core.size) if not core.value_at(r)]
        # Row r sets argument i (p1 first) iff bit arity-1-i of r is set.
        patterns = [[(r >> (mu.arity - 1 - i)) & 1 for i in range(mu.arity)] for r in rows]
        blocks = [(b.quantifier == "forall", self.sources(b.guards)) for b in reversed(mu.blocks)]

        def apply(args: Sequence[int]) -> int:
            vec = 0
            for pattern in patterns:
                term = full
                for v, positive in zip(args, pattern):
                    term &= v if positive else ~v
                vec |= term
            if negate:
                vec ^= full
            for forall, sources in blocks:
                vec = full & ~union(sources, full & ~vec) if forall else union(sources, vec)
            return vec

        return apply


def fragment_truth_set(m: Model, f: FragmentFormula, sig: FragmentSignature) -> frozenset[str]:
    """The set of elements satisfying ``f``, memoized over the subformula DAG."""
    joint = _Joint((m,))
    compiled: dict[str, Callable[[Sequence[int]], int]] = {}
    memo: dict[FragmentFormula, int] = {}

    def walk(node: FragmentFormula) -> int:
        got = memo.get(node)
        if got is not None:
            return got
        if isinstance(node, Atom):
            out = joint.atom(node.pred)
        else:
            mu = sig.get(node.name)
            if mu.arity != len(node.args):
                raise FormulaError(
                    f"connective {node.name!r} has arity {mu.arity}, got {len(node.args)}"
                )
            apply = compiled.get(node.name)
            if apply is None:
                apply = compiled[node.name] = joint.connective(mu)
            out = apply([walk(a) for a in node.args])
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


def _layer_args(arity: int, start: int, count: int) -> Iterator[tuple[int, ...]]:
    """The argument index tuples of one layer, in ``itertools.product(range(count),
    repeat=arity)`` order: those that use at least one index >= start, i.e. a
    class of the previous layer."""
    if arity == 1:
        for i in range(start, count):
            yield (i,)
        return
    for i in range(count):
        if i >= start:
            tails = itertools.product(range(count), repeat=arity - 1)
        else:
            tails = _layer_args(arity - 1, start, count)
        for tail in tails:
            yield (i, *tail)


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

    Each candidate is evaluated once over the joint vector of both models.
    Generation is layered and deterministic: layer l applies every connective
    to the argument lists that use a class of layer l-1, so the classes come
    out ordered by depth and those of depth <= d are exactly the classes of
    the depth-d enumeration.  A layer that adds no new vector closes the
    enumeration early, because vectors compose through connectives.  Raises
    BudgetExceeded past the candidate budget.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    joint = _Joint((m1, m2))
    formulas: list[FragmentFormula] = []
    vecs: list[int] = []
    seen: set[int] = set()

    def admit(formula: FragmentFormula, vec: int) -> None:
        if vec not in seen:
            seen.add(vec)
            vecs.append(vec)
            formulas.append(formula)

    for p in preds:
        admit(Atom(p), joint.atom(p))
    connectives = []
    for name in sig.names():
        mu = sig.get(name)
        if mu.arity == 0:
            admit(Apply(name, ()), joint.connective(mu)(()))
        else:
            connectives.append((name, mu.arity, joint.connective(mu)))

    checked = 0
    start = 0
    for _layer in range(depth):
        count = len(vecs)
        for name, arity, apply in connectives:
            for args in _layer_args(arity, start, count):
                if budget is not None and checked >= budget:
                    raise BudgetExceeded(checked)
                checked += 1
                vec = apply([vecs[i] for i in args])
                if vec not in seen:
                    seen.add(vec)
                    vecs.append(vec)
                    formulas.append(Apply(name, tuple(formulas[i] for i in args)))
        if len(vecs) == count:
            break
        start = count
    n1 = len(m1)
    low = (1 << n1) - 1
    return [SemanticClass(f, v & low, v >> n1) for f, v in zip(formulas, vecs)]


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
    out: list[FragmentFormula] = list(dict.fromkeys(Atom(p) for p in preds))
    out += [Apply(name, ()) for name in sig.names() if sig.get(name).arity == 0]
    connectives = [(name, sig.get(name).arity) for name in sig.names() if sig.get(name).arity]
    checked = 0
    start = 0
    for _layer in range(depth):
        count = len(out)
        for name, arity in connectives:
            # Distinct argument lists over distinct formulas give distinct
            # formulas, so no later layer needs a syntactic check.
            for args in _layer_args(arity, start, count):
                if budget is not None and checked >= budget:
                    raise BudgetExceeded(checked)
                checked += 1
                out.append(Apply(name, tuple(out[i] for i in args)))
        start = count
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
