"""Independent brute-force oracles the test suite checks the library against.

Everything here recomputes results straight from definitions: order checks
loop over all tuple pairs and chains, witness searches enumerate the whole
substitution space, the bisimilarity oracle is plain partition refinement,
and the preorder-semantics oracle is a hand-rolled clause fixpoint.  None
of it shares code with the implementation under test beyond the plain data
types.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from guardasim.boolfn import Slot, Substitution, TruthTable, apply_substitution
from guardasim.asim import CrossRelation
from guardasim.model import Model


# -- tuple order, recomputed from scratch --------------------------------------

def tuple_leq(i: int, j: int) -> bool:
    return i & j == i


@lru_cache(maxsize=None)
def comparable_pairs(n: int) -> tuple[tuple[int, int], ...]:
    size = 1 << n
    return tuple(
        (i, j) for i in range(size) for j in range(size) if tuple_leq(i, j)
    )


@lru_cache(maxsize=None)
def strict_chains(n: int) -> tuple[tuple[int, int, int], ...]:
    size = 1 << n
    out = []
    for a in range(size):
        for b in range(size):
            if a == b or not tuple_leq(a, b):
                continue
            for c in range(size):
                if b != c and tuple_leq(b, c):
                    out.append((a, b, c))
    return tuple(out)


def brute_class(f: TruthTable) -> dict[str, bool]:
    """All taxonomy flags computed by definitional exhaustion."""
    n = f.arity
    monotone = all(f.value_at(i) <= f.value_at(j) for i, j in comparable_pairs(n))
    antimono = all(f.value_at(i) >= f.value_at(j) for i, j in comparable_pairs(n))
    constant = len({f.value_at(i) for i in range(f.size)}) == 1
    rest = not monotone and not antimono
    tft = any(
        f.value_at(a) and not f.value_at(b) and f.value_at(c)
        for a, b, c in strict_chains(n)
    )
    ftf = any(
        not f.value_at(a) and f.value_at(b) and not f.value_at(c)
        for a, b, c in strict_chains(n)
    )
    return {
        "is_constant": constant,
        "is_monotone": monotone,
        "is_antimonotone": antimono,
        "is_rest": rest,
        "is_tft": tft,
        "is_ftf": ftf,
        "forall_special": rest and not tft,
        "exists_special": rest and not ftf,
        "weakly_forall_special": not tft,
        "weakly_exists_special": not ftf,
    }


def exhaustive_substitution(
    f: TruthTable, slots: list[Slot], target: TruthTable
) -> Substitution | None:
    """First substitution (in lexicographic slot order) composing f onto target."""
    for entries in itertools.product(slots, repeat=f.arity):
        sub = Substitution(entries)
        if apply_substitution(f, sub) == target:
            return sub
    return None


# -- largest bisimulation by partition refinement -------------------------------

def partition_refinement_bisim(
    m1: Model, m2: Model, theta: list[str]
) -> frozenset[tuple[str, str]]:
    """Pairs (a in U1, b in U2) bisimilar on the disjoint union of the models.

    Blocks start from atom valuations and are split by the set of successor
    blocks per relation symbol until stable.
    """
    worlds = [("1", w) for w in m1.domain] + [("2", w) for w in m2.domain]
    models = {"1": m1, "2": m2}
    rels = sorted(set(m1.relations) | set(m2.relations))

    def atoms(tag: str, w: str) -> frozenset[str]:
        return frozenset(p for p in theta if models[tag].has_pred(p, w))

    block: dict[tuple[str, str], int] = {}
    labels: dict[frozenset[str], int] = {}
    for tw in worlds:
        lab = atoms(*tw)
        block[tw] = labels.setdefault(lab, len(labels))

    while True:
        signatures = {}
        for tag, w in worlds:
            succ_profile = tuple(
                frozenset(block[(tag, v)] for v in models[tag].successors(r, w))
                for r in rels
            )
            signatures[(tag, w)] = (block[(tag, w)], succ_profile)
        renumber: dict[object, int] = {}
        new_block = {}
        for tw in worlds:
            new_block[tw] = renumber.setdefault(signatures[tw], len(renumber))
        if new_block == block:
            break
        block = new_block

    return frozenset(
        (a, b)
        for a in m1.domain
        for b in m2.domain
        if block[("1", a)] == block[("2", b)]
    )


# -- largest preorder-semantics asimulation, clause-by-clause --------------------

def _preorder_clause_ok(
    pair: tuple[str, str],
    src: Model,
    dst: Model,
    fwd_pairs: frozenset[tuple[str, str]],
    bwd_pairs: frozenset[tuple[str, str]],
) -> bool:
    """For (x, y): every R1-successor y' of y has an R1-successor x' of x
    related to it in both directions."""
    x, y = pair
    for y2 in dst.successors("R1", y):
        if not any(
            (x2, y2) in fwd_pairs and (y2, x2) in bwd_pairs
            for x2 in src.successors("R1", x)
        ):
            return False
    return True


def intuitionistic_clause_largest(m1: Model, m2: Model, theta: list[str]) -> CrossRelation:
    """Greatest relation satisfying the hand-coded preorder-semantics clauses:
    one-way atom transfer plus the two-way related successor condition."""
    fwd = frozenset(
        (a, b)
        for a in m1.domain
        for b in m2.domain
        if all(m2.has_pred(p, b) for p in theta if m1.has_pred(p, a))
    )
    bwd = frozenset(
        (b, a)
        for b in m2.domain
        for a in m1.domain
        if all(m1.has_pred(p, a) for p in theta if m2.has_pred(p, b))
    )
    while True:
        new_fwd = frozenset(
            p for p in fwd if _preorder_clause_ok(p, m1, m2, fwd, bwd)
        )
        new_bwd = frozenset(
            p for p in bwd if _preorder_clause_ok(p, m2, m1, bwd, fwd)
        )
        if new_fwd == fwd and new_bwd == bwd:
            return CrossRelation(fwd=fwd, bwd=bwd)
        fwd, bwd = new_fwd, new_bwd


# -- definition-level acceptance with an honest existential ----------------------

def _all_relations(m1: Model, m2: Model):
    """Every cross relation between two (tiny) models."""
    all_fwd = [(a, b) for a in m1.domain for b in m2.domain]
    all_bwd = [(b, a) for b in m2.domain for a in m1.domain]
    out = []
    for fbits in range(1 << len(all_fwd)):
        fset = frozenset(p for i, p in enumerate(all_fwd) if (fbits >> i) & 1)
        for bbits in range(1 << len(all_bwd)):
            bset = frozenset(p for i, p in enumerate(all_bwd) if (bbits >> i) & 1)
            out.append(CrossRelation(fwd=fset, bwd=bset))
    return out


def _chain_ends(m: Model, guards, start: str) -> set[str]:
    """Endpoints of the guard paths from ``start``: one successor step through
    each relation of the chain in turn."""
    frontier = {start}
    for g in guards:
        frontier = {b for a in frontier for b in m.successors(g, a)}
    return frontier


def _guarded_match(outer, b, guards, m1, m2, universal, two_witness):
    """The matching conditions straight from their definitions.

    For every pair (x, y) of ``outer``, in both directions: with
    ``universal`` (back), every endpoint y2 of a guard path from y needs an
    endpoint x2 of one from x with (x2, y2) in ``b``; otherwise (forth), every
    endpoint x2 of x needs an endpoint y2 of y with (x2, y2) in ``b``.  With
    ``two_witness`` the endpoint also needs a second, separately chosen
    witness related from it, through ``b``'s opposite direction.
    """
    sides = ((outer.fwd, m1, m2, b.fwd, b.bwd), (outer.bwd, m2, m1, b.bwd, b.fwd))
    for pairs, mx, my, same, opposite in sides:
        for x, y in pairs:
            xs, ys = _chain_ends(mx, guards, x), _chain_ends(my, guards, y)
            if universal:
                for y2 in ys:
                    if not any((x2, y2) in same for x2 in xs):
                        return False
                    if two_witness and not any((y2, x2) in opposite for x2 in xs):
                        return False
            else:
                for x2 in xs:
                    if not any((x2, y2) in same for y2 in ys):
                        return False
                    if two_witness and not any((y2, x2) in opposite for y2 in ys):
                        return False
    return True


def brute_definition_accepts(sig, theta, m1, m2, candidate, universe=None):
    """Decide acceptance of one relation with the inner existentials
    enumerated over all relations instead of collapsed to maximal choices.
    Core classes come from ``brute_class`` and the matching conditions from
    ``_guarded_match``, so nothing but the data types is the library's."""
    if candidate.is_empty:
        return False
    for (x, y) in candidate.fwd:
        if any(m1.has_pred(p, x) and not m2.has_pred(p, y) for p in theta):
            return False
    for (y, x) in candidate.bwd:
        if any(m2.has_pred(p, y) and not m1.has_pred(p, x) for p in theta):
            return False
    if universe is None:
        universe = _all_relations(m1, m2)

    def first_choices(cc):
        # The set the core pairs the candidate with: every relation for a
        # constant core, otherwise the single determined element.
        if cc["is_constant"]:
            return universe
        if cc["is_monotone"]:
            return [candidate]
        if cc["is_antimonotone"]:
            return [candidate.inverse()]
        return [candidate & candidate.inverse()]

    def special(cc, quantifier):
        return cc["forall_special" if quantifier == "forall" else "exists_special"]

    for mu in sig:
        cc = brute_class(mu.core)
        if mu.degree == 0:
            if cc["is_constant"] or cc["is_monotone"]:
                continue
            if candidate != candidate.inverse():
                return False
            continue
        universal = mu.blocks[0].quantifier == "forall"
        guards = mu.blocks[0].guards
        if mu.degree == 1:
            if special(cc, mu.blocks[0].quantifier):
                if not _guarded_match(candidate, candidate, guards, m1, m2, universal, True):
                    return False
            elif not any(
                _guarded_match(candidate, a1, guards, m1, m2, universal, False)
                for a1 in first_choices(cc)
            ):
                return False
            continue
        inner = mu.blocks[-1]
        inner_universal = inner.quantifier == "forall"
        ok = False
        for a2 in universe:
            if not _guarded_match(candidate, a2, guards, m1, m2, universal, False):
                continue
            if special(cc, inner.quantifier):
                if _guarded_match(a2, candidate, inner.guards, m1, m2, inner_universal, True):
                    ok = True
                    break
            elif any(
                _guarded_match(a2, a1, inner.guards, m1, m2, inner_universal, False)
                for a1 in first_choices(cc)
            ):
                ok = True
                break
        if not ok:
            return False
    return True
