"""The set-based asimulation checks and solver the library started from,
kept as the naive reference the bit-row kernel is compared against.

Every pair check walks guard endpoints as sets of names, and every round of
the solver re-checks each pair one by one.  Only the plain data types and
the classification are shared with the code under test.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Sequence

from guardasim.asim import (
    FWD,
    BWD,
    CoreCandidateKind,
    CrossRelation,
    NonStandardFragmentError,
    ViolationReport,
    core_candidate_kind,
)
from guardasim.boolfn import BoolClass
from guardasim.connective import (
    ConnectiveError,
    FragmentSignature,
    GuardedConnective,
    ancestor,
    classify_connective,
    validate_standard_fragment,
)
from guardasim.model import Model


def full_relation(m1: Model, m2: Model) -> CrossRelation:
    return CrossRelation(
        fwd=frozenset((a, b) for a in m1.domain for b in m2.domain),
        bwd=frozenset((b, a) for b in m2.domain for a in m1.domain),
    )



def _endpoints(m: Model, guards, start: str) -> frozenset[str]:
    """The original guard-chain walk, one step through each relation in turn."""
    frontier = {start}
    for g in guards:
        frontier = {b for a in frontier for b in m.successors(g, a)}
    return frozenset(frontier)


def _directions(m1: Model, m2: Model):
    return ((FWD, m1, m2), (BWD, m2, m1))


def atom_preserving(m1: Model, m2: Model, theta_preds: Sequence[str]) -> CrossRelation:
    """The largest relation transferring every listed atom along the pair."""
    sides = {}
    for d, mx, my in _directions(m1, m2):
        sides[d] = frozenset(
            (x, y)
            for x in mx.domain
            for y in my.domain
            if all(my.has_pred(p, y) for p in theta_preds if mx.has_pred(p, x))
        )
    return CrossRelation(fwd=sides[FWD], bwd=sides[BWD])


def core_candidate(core_class: BoolClass, a: CrossRelation, m1: Model, m2: Model) -> CrossRelation:
    """The maximal relation the core admits as inner target."""
    kind = core_candidate_kind(core_class)
    if kind is CoreCandidateKind.FULL:
        return full_relation(m1, m2)
    if kind is CoreCandidateKind.SAME:
        return a
    if kind is CoreCandidateKind.INVERSE:
        return a.inverse()
    return a & a.inverse()


# -- pair-level checks return True or a witness path on failure --------------------------

def _pair_back(x, y, mx, my, guards, target_pairs):
    x_ends = _endpoints(mx, guards, x)
    for y_end in sorted(_endpoints(my, guards, y)):
        if not any((xe, y_end) in target_pairs for xe in x_ends):
            return my.guard_path(guards, y, y_end)
    return True

def _pair_forth(x, y, mx, my, guards, target_pairs):
    y_ends = _endpoints(my, guards, y)
    for x_end in sorted(_endpoints(mx, guards, x)):
        if not any((x_end, ye) in target_pairs for ye in y_ends):
            return mx.guard_path(guards, x, x_end)
    return True

def _pair_sback(x, y, mx, my, guards, b_same, b_opposite):
    x_ends = _endpoints(mx, guards, x)
    for y_end in sorted(_endpoints(my, guards, y)):
        if not any((xe, y_end) in b_same for xe in x_ends):
            return my.guard_path(guards, y, y_end), "no witness related to the endpoint"
        if not any((y_end, xe) in b_opposite for xe in x_ends):
            return my.guard_path(guards, y, y_end), "no witness related from the endpoint"
    return True

def _pair_sforth(x, y, mx, my, guards, b_same, b_opposite):
    y_ends = _endpoints(my, guards, y)
    for x_end in sorted(_endpoints(mx, guards, x)):
        if not any((x_end, ye) in b_same for ye in y_ends):
            return mx.guard_path(guards, x, x_end), "no witness related to the endpoint"
        if not any((ye, x_end) in b_opposite for ye in y_ends):
            return mx.guard_path(guards, x, x_end), "no witness related from the endpoint"
    return True


def _opposite(direction: str) -> str:
    return BWD if direction == FWD else FWD


def back_holds(a_outer, target, guards, m1, m2):
    """Every guard path on the partner side of a pair must be matched by one
    on the carrier side landing in the target relation."""
    for d, mx, my in _directions(m1, m2):
        tp = target.pairs(d)
        for x, y in sorted(a_outer.pairs(d)):
            got = _pair_back(x, y, mx, my, guards, tp)
            if got is not True:
                return ViolationReport("", "back", (x, y), d, tuple(got or ()))
    return True


def forth_holds(a_outer, target, guards, m1, m2):
    """Mirror of the universal check: carrier-side paths must be matched on
    the partner side."""
    for d, mx, my in _directions(m1, m2):
        tp = target.pairs(d)
        for x, y in sorted(a_outer.pairs(d)):
            got = _pair_forth(x, y, mx, my, guards, tp)
            if got is not True:
                return ViolationReport("", "forth", (x, y), d, tuple(got or ()))
    return True


def sback_holds(a_outer, b, guards, m1, m2):
    """Two-witness universal check: each partner-side path endpoint needs a
    carrier-side endpoint related to it and one related from it."""
    for d, mx, my in _directions(m1, m2):
        same, opposite = b.pairs(d), b.pairs(_opposite(d))
        for x, y in sorted(a_outer.pairs(d)):
            got = _pair_sback(x, y, mx, my, guards, same, opposite)
            if got is not True:
                path, why = got
                return ViolationReport("", "s-back", (x, y), d, tuple(path or ()), why)
    return True


def sforth_holds(a_outer, b, guards, m1, m2):
    for d, mx, my in _directions(m1, m2):
        same, opposite = b.pairs(d), b.pairs(_opposite(d))
        for x, y in sorted(a_outer.pairs(d)):
            got = _pair_sforth(x, y, mx, my, guards, same, opposite)
            if got is not True:
                path, why = got
                return ViolationReport("", "s-forth", (x, y), d, tuple(path or ()), why)
    return True


def max_inner_target(
    mu_minus: GuardedConnective,
    a1: CrossRelation,
    a_for_special: CrossRelation,
    m1: Model,
    m2: Model,
) -> CrossRelation:
    """The pointwise-largest relation admissible one level inside a degree-2
    connective: a pair enters iff its own matching condition holds, with the
    target fixed to a1 (plain case) or to the given relation and its inverse
    (special case)."""
    cls = classify_connective(mu_minus)
    if mu_minus.degree != 1:
        raise ConnectiveError(f"{mu_minus.name}: inner target needs a degree-1 connective")
    quant = mu_minus.blocks[0].quantifier
    guard_list = mu_minus.blocks[0].guards
    sides = {}
    for d, mx, my in _directions(m1, m2):
        kept = set()
        for x in mx.domain:
            for y in my.domain:
                if cls.is_special:
                    same, opposite = a_for_special.pairs(d), a_for_special.pairs(_opposite(d))
                    if quant == "forall":
                        ok = _pair_sback(x, y, mx, my, guard_list, same, opposite) is True
                    else:
                        ok = _pair_sforth(x, y, mx, my, guard_list, same, opposite) is True
                else:
                    tp = a1.pairs(d)
                    if quant == "forall":
                        ok = _pair_back(x, y, mx, my, guard_list, tp) is True
                    else:
                        ok = _pair_forth(x, y, mx, my, guard_list, tp) is True
                if ok:
                    kept.add((x, y))
        sides[d] = frozenset(kept)
    return CrossRelation(fwd=sides[FWD], bwd=sides[BWD])


def _degree0_violation(mu: GuardedConnective, a: CrossRelation) -> ViolationReport | None:
    """Anti-monotone and rest degree-0 cores force the relation to equal its
    inverse; returns a witness asymmetric pair if not."""
    inv = a.inverse()
    for d in (FWD, BWD):
        for pair in sorted(a.pairs(d) - inv.pairs(d)):
            return ViolationReport(mu.name, "degree0", pair, d, (), "pair lacks its mirror")
    return None


def connective_condition(
    mu: GuardedConnective, a: CrossRelation, m1: Model, m2: Model, strict: bool = True
):
    """Decide the existential condition one connective imposes on ``a``.

    Maximal candidate relations replace the existential search: the checks
    are monotone in their targets, and the inner relation of a degree-2
    connective is constrained pointwise, so the largest candidates decide
    membership.  Returns True or the first ViolationReport.
    """
    cls = classify_connective(mu)
    if mu.degree > 2:
        raise NonStandardFragmentError(f"{mu.name}: degree {mu.degree} is not supported")
    if strict and not cls.is_standard:
        raise NonStandardFragmentError(f"{mu.name}: not a standard connective")

    if mu.degree == 0:
        cc = cls.core_class
        if cc.is_constant or cc.is_monotone:
            return True
        got = _degree0_violation(mu, a)
        return True if got is None else got

    quant = mu.blocks[0].quantifier
    guards = mu.blocks[0].guards
    if mu.degree == 1:
        if cls.is_special:
            holds = sback_holds if quant == "forall" else sforth_holds
            got = holds(a, a, guards, m1, m2)
        else:
            target = core_candidate(cls.core_class, a, m1, m2)
            holds = back_holds if quant == "forall" else forth_holds
            got = holds(a, target, guards, m1, m2)
    else:
        mu_minus = ancestor(mu, 1)
        inner_cls = classify_connective(mu_minus)
        a1 = a if inner_cls.is_special else core_candidate(cls.core_class, a, m1, m2)
        a2 = max_inner_target(mu_minus, a1, a, m1, m2)
        holds = back_holds if quant == "forall" else forth_holds
        got = holds(a, a2, guards, m1, m2)
    if got is True:
        return True
    return replace(got, connective=mu.name)


def is_asimulation(
    sig: FragmentSignature,
    theta_preds: Sequence[str],
    m1: Model,
    m2: Model,
    a: CrossRelation,
    strict: bool = True,
) -> list[ViolationReport]:
    """All violations keeping ``a`` from being an asimulation; empty means ok.

    Emptiness of the relation is itself a violation, atom transfer is
    checked pairwise, and every connective contributes its condition.
    """
    if strict:
        problems = validate_standard_fragment(sig)
        if problems:
            raise NonStandardFragmentError("; ".join(problems))
    if a.is_empty:
        return [ViolationReport("", "empty", None, "", (), "the empty relation is not an asimulation")]
    reports = []
    for d, mx, my in _directions(m1, m2):
        for x, y in sorted(a.pairs(d)):
            for p in sorted(theta_preds):
                if mx.has_pred(p, x) and not my.has_pred(p, y):
                    reports.append(
                        ViolationReport("", "atom", (x, y), d, (), f"{p} not transferred")
                    )
                    break
    for mu in sig:
        got = connective_condition(mu, a, m1, m2, strict=strict)
        if got is not True:
            reports.append(got)
    return reports


def largest_asimulation(
    sig: FragmentSignature,
    theta_preds: Sequence[str],
    m1: Model,
    m2: Model,
    strict: bool = True,
) -> CrossRelation:
    """Greatest fixpoint of the condition functional, starting from the
    atom-preserving relation.

    Each round recomputes the derived target relations from the current
    relation, drops every pair violating its pair-level condition, and
    restricts to the symmetric part when a degree-0 connective demands it.
    The result is empty exactly when no asimulation exists.
    """
    if strict:
        problems = validate_standard_fragment(sig)
        if problems:
            raise NonStandardFragmentError("; ".join(problems))
    connectives = list(sig)
    for mu in connectives:
        if mu.degree > 2:
            raise NonStandardFragmentError(f"{mu.name}: degree {mu.degree} is not supported")
    needs_symmetric = any(
        mu.degree == 0
        and (
            (cc := classify_connective(mu).core_class).is_rest
            or (cc.is_antimonotone and not cc.is_constant)
        )
        for mu in connectives
    )

    a = atom_preserving(m1, m2, theta_preds)
    while True:
        survivors = a
        if needs_symmetric:
            survivors = survivors & survivors.inverse()
        for mu in connectives:
            if mu.degree == 0:
                continue
            cls = classify_connective(mu)
            quant = mu.blocks[0].quantifier
            guards = mu.blocks[0].guards
            if mu.degree == 1 and cls.is_special:
                pair_check = _pair_sback if quant == "forall" else _pair_sforth

                def checker(x, y, mx, my, d, q=pair_check, g=guards, rel=a):
                    return q(x, y, mx, my, g, rel.pairs(d), rel.pairs(_opposite(d))) is True
            else:
                if mu.degree == 1:
                    target = core_candidate(cls.core_class, a, m1, m2)
                else:
                    mu_minus = ancestor(mu, 1)
                    inner_cls = classify_connective(mu_minus)
                    a1 = a if inner_cls.is_special else core_candidate(cls.core_class, a, m1, m2)
                    target = max_inner_target(mu_minus, a1, a, m1, m2)
                pair_check = _pair_back if quant == "forall" else _pair_forth

                def checker(x, y, mx, my, d, q=pair_check, g=guards, tgt=target):
                    return q(x, y, mx, my, g, tgt.pairs(d)) is True
            sides = {}
            for d, mx, my in _directions(m1, m2):
                sides[d] = frozenset(
                    (x, y) for x, y in survivors.pairs(d) if checker(x, y, mx, my, d)
                )
            survivors = CrossRelation(fwd=sides[FWD], bwd=sides[BWD])
        if survivors == a:
            return a
        a = survivors
