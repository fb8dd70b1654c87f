"""Parsing, evaluation, translation and enumeration of formulas.

First-order formulas are evaluated Tarskian-style with quantifiers ranging
over the model domain.  Fragment formulas are evaluated bit-parallel: each
connective is compiled once into a kernel on whole truth vectors that folds
the arguments one at a time into the core's cofactor masks and applies the
guard blocks through the models' guard-chain source rows, and the truth set
of every subformula is computed bottom-up.  The first-order route through
the standard translation is the reference the direct route is tested against.

The enumeration engine generates all fragment formulas up to a nesting
depth, deduplicated by the truth vector on a model pair, whose two models
share one joint vector (the first one in the low bits).
Layer l applies each connective to the argument lists that use a class of
layer l-1, in ``itertools.product`` order, so the classes of depth <= d are
a prefix of every deeper enumeration.  A row fixes all but the last argument
and folds them into two masks, ``on`` and ``off``; each last argument v of
the row then costs ``off ^ (on ^ off) & v``.  When the core is symmetric in
its last two arguments, a row with prefix (..., i) skips the last arguments
below i: the mirrored argument list came first in the same layer and gave
the same vector.  The budget still counts every argument list of the
product order, evaluated or not.

One loop computes each connective's part of a layer in lists of whole rows,
a comprehension each, and applies the guard blocks once per distinct core
vector through tables of subset unions of 8 source rows each.  A class's
first witness is read off its vector's first position in its list.  A part
that would pass the budget evaluates only the rows that fit, so a search
still stops at the row that answers it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterable, Iterator, Mapping, Sequence

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
    _NAME,
    _PRED_NAME,
    _REL_NAME,
    _climb,
    _parse,
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

def _error(message: str, pos: int) -> FormulaError:
    return FormulaError(f"{message} (at position {pos})")


_FO_TOKEN = re.compile(
    rf"\s*(?:(?P<kw>forall|exists)\b|(?P<const>[TF])\b|(?P<name>{_NAME.pattern})"
    r"|(?P<op><->|->|[~&|(),]))"
)

_FO_NODES = {
    "<->": lambda a, b: And(Implies(a, b), Implies(b, a)),
    "->": Implies,
    "|": Or,
    "&": And,
    "~": Not,
}


def _fo_formula(cur) -> FoFormula:
    """A quantifier scopes as far right as it can, so it may stand only at
    the start of a formula or after ``(``."""
    k, v, _ = cur.peek()
    if k == "kw":
        cur.next()
        var = cur.expect("name")
        body = _fo_formula(cur)
        return Forall(var, body) if v == "forall" else Exists(var, body)
    return _climb(cur, _fo_atom, _FO_NODES)


def _fo_atom(cur) -> FoFormula:
    k, v, pos = cur.next()
    if k == "const":
        return Top() if v == "T" else Bot()
    if (k, v) == ("op", "("):
        node = _fo_formula(cur)
        cur.expect("op", ")")
        return node
    if k == "name":
        if _PRED_NAME.fullmatch(v) and cur.accept("("):
            var = cur.expect("name")
            cur.expect("op", ")")
            return PredAtom(v, var)
        if _REL_NAME.fullmatch(v) and cur.accept("("):
            v1 = cur.expect("name")
            cur.expect("op", ",")
            v2 = cur.expect("name")
            cur.expect("op", ")")
            return RelAtom(v, v1, v2)
        raise _error(f"bare variable {v!r} is not a formula", pos)
    raise _error("expected an atom", pos)


def parse_fo(text: str) -> FoFormula:
    return _parse(text, _FO_TOKEN, _fo_formula, _error)


# -- Tarskian evaluation -------------------------------------------------------------

def eval_fo(m: Model, assignment: Mapping[str, str], phi: FoFormula) -> bool:
    """Classical satisfaction; all free variables must be assigned."""
    env = dict(assignment)

    def ev(node: FoFormula) -> bool:
        if isinstance(node, PredAtom):
            return m.has_pred(node.pred, _lookup(node.var))
        if isinstance(node, RelAtom):
            return m.has_rel(node.rel, _lookup(node.var1), _lookup(node.var2))
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

_FRAG_TOKEN = re.compile(rf"\s*(?:(?P<name>{_NAME.pattern})|(?P<op>[(),]))")


def parse_fragment(text: str, sig: FragmentSignature) -> FragmentFormula:
    def term(cur) -> FragmentFormula:
        k, v, pos = cur.next()
        if k != "name":
            raise _error("expected a predicate or connective", pos)
        if v not in sig:
            if _PRED_NAME.fullmatch(v):
                return Atom(v)
            raise _error(f"unknown connective {v!r}", pos)
        mu = sig.get(v)
        args: list[FragmentFormula] = []
        if cur.accept("(") and not cur.accept(")"):
            args.append(term(cur))
            while cur.accept(","):
                args.append(term(cur))
            cur.expect("op", ")")
        if len(args) != mu.arity:
            raise _error(
                f"connective {v!r} has arity {mu.arity}, got {len(args)} arguments", pos
            )
        return Apply(v, tuple(args))

    return _parse(text, _FRAG_TOKEN, term, _error)


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
        self._unions: dict[tuple[str, ...], Callable[[int], int]] = {}

    def atom(self, pred: str) -> int:
        vec = shift = 0
        for m in self.models:
            vec |= m.pred_row(pred) << shift
            shift += len(m)
        return vec

    def sources(self, guards: tuple[str, ...]) -> list[int]:
        """Row i: the elements with a guard-path endpoint at element i."""
        rows = self._sources.get(guards)
        if rows is None:
            rows = self._sources[guards] = []
            shift = 0
            for m in self.models:
                rows += [row << shift for row in m.chain_rows(guards)[1]]
                shift += len(m)
        return rows

    def union(self, guards: tuple[str, ...]) -> Callable[[int], int]:
        """``bitrows.union`` over ``sources(guards)`` by lookups: entry s of
        table c is the union of rows 8c + j over the bits j of s."""
        got = self._unions.get(guards)
        if got is None:
            rows, tables = self.sources(guards), []
            for at in range(0, len(rows), 8):
                tables.append([0])
                for row in rows[at:at + 8]:
                    tables[-1] += [x | row for x in tables[-1]]
            got = tables[0].__getitem__ if len(tables) == 1 else partial(_lookup, tables)
            self._unions[guards] = got
        return got


def _lookup(tables: list[list[int]], mask: int) -> int:
    out = 0
    for table in tables:
        out |= table[mask & 255]
        mask >>= 8
    return out


def _fold(masks: list[int], v: int) -> list[int]:
    """Fix the first remaining core argument to the truth vector ``v``."""
    half = len(masks) >> 1
    return [v & hi | ~v & lo for lo, hi in zip(masks[:half], masks[half:])]


# ``_Kernel.cores`` cuts a layer into lists of at most this many candidates,
# so that a call with no budget never holds a whole layer at once.
_BATCH = 1 << 16


class _Kernel(dict):
    """``mu`` compiled over one joint vector.  ``masks`` is the core's cofactor
    table: entry s holds the elements where the core is true when its other
    arguments take the values s (big-endian, like its rows).  ``_fold`` fixes
    one argument and halves it, so after arity-1 arguments it is ``[off, on]``
    and a last argument v costs ``off ^ (on ^ off) & v``.  As a dict the
    kernel maps a core vector to the vector after the blocks, innermost first
    (``union(sources, S)`` holds the elements with a guard-path endpoint in
    S), and computes each entry once; with no blocks that map is the
    identity.  ``symmetric``: the core does not change when its last two
    arguments swap, which maps table entry 4k + 1 to 4k + 2."""

    def __init__(self, joint: _Joint, mu: GuardedConnective):
        self.full = joint.full
        self.arity = mu.arity
        self.masks = masks = [self.full if mu.core.bits >> r & 1 else 0 for r in range(1 << mu.arity)]
        self.joint = joint
        self.blocks = [(b.quantifier == "forall", b.guards, joint.sources(b.guards))
                       for b in reversed(mu.blocks)]
        self.symmetric = mu.arity >= 2 and masks[1::4] == masks[2::4]

    def __missing__(self, vec: int) -> int:
        full, core = self.full, vec
        for forall, _, sources in self.blocks:
            vec = full & ~union(sources, full & ~vec) if forall else union(sources, vec)
        self[core] = vec
        return vec

    def image(self, cores: Iterable[int]) -> list[int]:
        """``[self[v] for v in cores]`` through the joint's tables, unkept."""
        full = self.full
        for forall, guards, _ in self.blocks:
            table = self.joint.union(guards)
            cores = [full ^ table(full ^ v) for v in cores] if forall else list(map(table, cores))
        return cores

    def cores(self, vecs: list[int], count: int, start: int,
              room: int | None = None) -> Iterator[tuple[tuple, list[int]]]:
        """The core vectors of one layer's rows, in order, in lists of whole
        rows of at most ``_BATCH`` candidates (or one row), each with its span
        ``(prefix, i, los)``: it starts at row (*prefix, i), row (*prefix, k)
        takes the last arguments from ``los[k]`` on (for arity 1, the one row
        takes them from ``i`` on, and ``los`` is None).  Given ``room``, only
        the rows up to the first whose charge does not fit in it."""
        if self.arity == 1:
            if room is None or count - start <= room:
                off, on = self.masks
                yield ((), start, None), [off ^ (on ^ off) & v for v in vecs[start:count]]
            return
        step = max(1, _BATCH // count)
        for prefix, (m0, m1, m2, m3), outer in _rows(vecs, count, start, self.arity - 2, self.masks):
            # lo per last prefix index, skipping as the symmetric core allows
            los = [outer] * outer + (list(range(outer, count)) if self.symmetric else [0] * (count - outer))
            stop = count
            if room is not None:
                # a row is charged count - outer below outer, count from there
                cut = outer * (count - outer)
                stop = min(count, room // (count - outer) if room < cut else outer + (room - cut) // count)
                room -= cut + (count - outer) * count
            for at in range(0, stop, step):
                yield (prefix, at, los), [
                    off ^ flip & v for u, lo in zip(vecs[at:min(at + step, stop)], los[at:at + step])
                    for off in (u & m2 | ~u & m0,) for flip in ((u & m3 | ~u & m1) ^ off,)
                    for v in vecs[lo:count]]
            if stop < count:
                return

    def apply(self, args: Sequence[int]) -> int:
        masks = self.masks
        for v in args:
            masks = _fold(masks, v)
        return self[masks[0]]


def fragment_truth_set(m: Model, f: FragmentFormula, sig: FragmentSignature) -> frozenset[str]:
    """The set of elements satisfying ``f``, memoized over the subformula DAG."""
    joint = _Joint((m,))
    kernels = {name: _Kernel(joint, sig.get(name)) for name in sig.names()}
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
            out = kernels[node.name].apply([walk(a) for a in node.args])
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
    vec1: int  # bit i = truth at m1.domain[i], the i-th element name in sorted order
    vec2: int


def _rows(items: Sequence, count: int, start: int, width: int, masks) -> Iterable:
    """The rows of one layer: each prefix of ``width`` indices into
    ``items[:count]`` in ``itertools.product`` order, ``masks`` folded by
    ``_fold`` over its items, and ``lo``: ``start``, or 0 once the prefix uses an index >= start.
    Candidates (*prefix, i) for i in range(lo, count), row after row, are the
    product order of the argument lists that use a class of the previous layer."""
    rows: Iterable = [((), masks, start)]
    for _ in range(width):
        rows = (((*prefix, i), _fold(state, items[i]), 0 if i >= start else lo)
                for prefix, state, lo in rows for i in range(count))
    return rows


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

    Candidates are evaluated over one joint vector of both models.
    Generation is layered and deterministic: layer l applies every connective
    to the argument lists that use a class of layer l-1, so the classes come
    out ordered by depth and those of depth <= d are exactly the classes of
    the depth-d enumeration.  A layer that adds no new vector closes the
    enumeration early, because vectors compose through connectives.  Raises
    BudgetExceeded past the candidate budget.
    """
    n1 = len(m1)
    low = (1 << n1) - 1
    classes = _classes(sig, preds, depth, _Joint((m1, m2)), budget)
    return [SemanticClass(f, v & low, v >> n1) for f, v in _formulas(classes)]


def class_vectors(
    sig: FragmentSignature,
    preds: Sequence[str],
    depth: int,
    m1: Model,
    m2: Model,
    budget: int | None = 1_000_000,
) -> tuple[list[int], list[int]]:
    """The joint vectors ``vec1 | vec2 << len(m1)`` of ``semantic_classes``
    and ``ends``: ``ends[d]`` classes have depth <= d, for d in 0..depth."""
    first, kernels = _first_layer(sig, preds, depth, _Joint((m1, m2)))
    classes = dict.fromkeys(first)
    ends = [len(classes)]
    for _ in _batches(classes, ends, kernels, depth, budget):
        pass
    return list(classes), ends + [len(classes)] * (depth + 1 - len(ends))


def _batches(classes, ends, kernels, depth, budget):
    """The layers after layer 0, whose vectors are the keys of ``classes``:
    each list of ``_Kernel.cores`` adds its new vectors in order of first
    occurrence, and one that adds some is yielded with the connective's name,
    its span, the distinct core vectors (the list itself with no blocks), their
    images and the number of classes before it; ``ends`` gets the number after
    each layer.  Past the budget, a (layer, connective) evaluates the rows
    that fit, each charged ``count - lo`` before the symmetric skip, and
    raises as a check before each candidate would."""
    checked = start = 0
    for _layer in range(depth):
        vecs = list(classes)
        count = len(vecs)
        for name, kernel in kernels:
            charge = count ** kernel.arity - start ** kernel.arity
            room = budget - checked if budget is not None and charge and checked + charge > budget else None
            for span, cores in kernel.cores(vecs, count, start, room):
                if kernel.blocks:
                    keys = dict.fromkeys(cores)
                    images = kernel.image(keys)
                else:
                    keys = images = cores
                before = len(classes)
                classes.update(dict.fromkeys(images))
                if len(classes) > before:
                    yield name, span, cores, keys, images, before
            if room is not None:
                raise BudgetExceeded(max(checked, budget))
            checked += charge
        ends.append(len(classes))
        if len(classes) == count:
            break
        start = count


def _formulas(classes):
    """Each class ``_classes`` yields, its witness built as a formula over
    the earlier classes' formulas, and its vector."""
    formulas = []
    for vec, w in classes:
        if type(w) is tuple:
            w = Apply(w[0], tuple(map(formulas.__getitem__, w[1:])))
        formulas.append(w)
        yield w, vec


def _first_layer(sig, preds, depth, joint):
    """Layer 0's classes, the atoms and then the nullary connectives, as a
    dict from each vector to its first witness, and each other connective's
    name and kernel."""
    if depth < 0:
        raise ValueError("depth must be >= 0")
    first, kernels = {}, []
    for p in preds:
        first.setdefault(joint.atom(p), Atom(p))
    for name in sig.names():
        kernel = _Kernel(joint, sig.get(name))
        if kernel.arity == 0:
            first.setdefault(kernel.apply(()), (name,))
        else:
            kernels.append((name, kernel))
    return first, kernels


def _classes(sig, preds, depth, joint, budget):
    """Each class of ``semantic_classes`` on ``joint`` as it is admitted: its
    joint vector and its witness.  A witness is an atom, or a connective's
    name followed by the indices of its argument classes, read off the first
    position of the vector in its list of ``_batches``."""
    first, kernels = _first_layer(sig, preds, depth, joint)
    yield from first.items()
    classes = dict.fromkeys(first)
    for name, (prefix, i, los), cores, keys, images, before in _batches(classes, [], kernels, depth, budget):
        keys = keys if keys is cores else list(keys)
        k = at = -1
        row_at = 0  # the position of row i's first candidate
        for vec in list(classes)[before:]:
            # each new vector first occurs past the previous one
            k = images.index(vec, k + 1)
            at = k if keys is cores else cores.index(keys[k], at + 1)
            if los is None:
                yield vec, (name, i + at)
                continue
            while at - row_at >= len(los) - los[i]:
                row_at += len(los) - los[i]
                i += 1
            yield vec, (name, *prefix, i, los[i] + at - row_at)


def distinguishing_formula(
    sig: FragmentSignature,
    pm1: PointedModel,
    pm2: PointedModel,
    depth: int,
    budget: int | None = 1_000_000,
) -> FragmentFormula | None:
    """A fragment formula true at pm1.point and false at pm2.point, if one
    exists within the depth bound; every return is re-checked by evaluation."""
    true_at = 1 << pm1.model.index_of(pm1.point)
    false_at = 1 << (len(pm1.model) + pm2.model.index_of(pm2.point))
    joint = _Joint((pm1.model, pm2.model))
    for f, vec in _formulas(_classes(sig, _model_preds(*joint.models), depth, joint, budget)):
        if vec & true_at and not vec & false_at:
            if not eval_fragment(pm1.model, pm1.point, f, sig) or eval_fragment(
                pm2.model, pm2.point, f, sig
            ):
                raise AssertionError("internal error: candidate fails its own split")
            return f
    return None


def _model_preds(m1: Model, m2: Model) -> list[str]:
    return sorted(set(m1._pred_rows).union(m2._pred_rows))
