"""The per-element enumeration the library started from, kept as the naive
reference the joint bit-parallel evaluator is compared against.

Each model is evaluated on its own: the Boolean core is applied to one
element at a time through ``TruthTable.evaluate``, and every layer walks
the whole ``itertools.product`` of the classes so far, keeping the
argument lists whose deepest class lies in the previous layer.  Only the
plain data types and the models' guard-chain rows are shared with the code
under test.
"""

from __future__ import annotations

import itertools
from typing import Sequence

from guardasim.bitrows import union
from guardasim.connective import FragmentSignature, GuardedConnective
from guardasim.formula import BudgetExceeded, SemanticClass
from guardasim.model import Model
from guardasim.syntax import Apply, Atom, FragmentFormula


def pred_vector(m: Model, pred: str) -> int:
    return sum(1 << m.index_of(u) for u in m.pred_elements(pred))


def mask_connective(m: Model, mu: GuardedConnective, child_vecs: Sequence[int]) -> int:
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


def truth_vector(m: Model, f: FragmentFormula, sig: FragmentSignature) -> int:
    if isinstance(f, Atom):
        return pred_vector(m, f.pred)
    return mask_connective(m, sig.get(f.name), [truth_vector(m, a, sig) for a in f.args])


def semantic_classes(
    sig: FragmentSignature,
    preds: Sequence[str],
    depth: int,
    m1: Model,
    m2: Model,
    budget: int | None = 1_000_000,
    layer_checked: list[int] | None = None,
) -> list[SemanticClass]:
    """``layer_checked``, when given, receives the running candidate count at
    the end of each layer run."""
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
        admit(Atom(p), pred_vector(m1, p), pred_vector(m2, p), 0)
    for name in sig.names():
        mu = sig.get(name)
        if mu.arity == 0:
            v1 = mask_connective(m1, mu, [])
            v2 = mask_connective(m2, mu, [])
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
                v1 = mask_connective(m1, mu, [k.vec1 for k in kids])
                v2 = mask_connective(m2, mu, [k.vec2 for k in kids])
                if admit(Apply(name, tuple(k.formula for k in kids)), v1, v2, layer):
                    grew = True
        if layer_checked is not None:
            layer_checked.append(checked)
        if not grew:
            break
    return classes


def enumerate_fragment(
    sig: FragmentSignature,
    preds: Sequence[str],
    depth: int,
    budget: int | None = 1_000_000,
) -> list[FragmentFormula]:
    """The syntactic enumeration (no model pair)."""
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
