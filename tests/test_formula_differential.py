"""The joint bit-parallel enumeration against the per-element one it
replaced, kept in reference_formula.py, on seeded random model pairs of 1-6
elements: equal (formula, vec1, vec2) lists, equal syntactic lists, equal
budget exhaustion, and preservation preorders read off the depth-3 prefix."""

import random

import pytest

from guardasim import asim
from guardasim.connective import FragmentSignature
from guardasim.formula import (
    BudgetExceeded,
    enumerate_fragment,
    fragment_truth_set,
    semantic_classes,
)
from guardasim.model import random_model
from guardasim.syntax import fragment_depth

import reference_formula as ref
from helpers import ALL_SIGS, theta_of

RELATIONS = ["R1", "R2", "R3"]

SIGS = {
    **{name: build() for name, build in ALL_SIGS.items()},
    # Nullary connectives with guard blocks: true where some R1-successor
    # exists, and where no R2-path of two steps exists.
    "nullary_guarded": FragmentSignature.from_dict({"connectives": {
        "live": "exists[R1]{ T }",
        "stuck2": "forall[R2,R2]{ F }",
        "box": "forall[R1]{ p1 }",
    }}),
    # Constant cores of positive arity.
    "constant_core": FragmentSignature.from_dict({"connectives": {
        "dead": "forall[R1]{ p2 & F }",
        "any": "exists[R3]{ p1 | T }",
        "dia": "exists[R2]{ p1 }",
    }}),
    # Arity-3 cores: one with fewer true rows, one with fewer false rows.
    "arity3": FragmentSignature.from_dict({"connectives": {
        "maj": "forall[R1]{ (p1 & p2) | (p1 & p3) | (p2 & p3) }",
        "sel": "exists[R2] forall[R1]{ (p1 & ~p3) | (p2 & p3) }",
    }}),
    # No model below interprets R4.
    "missing_symbol": FragmentSignature.from_dict({"connectives": {
        "box4": "forall[R4]{ p1 }",
        "dia14": "exists[R1,R4]{ p1 }",
        "imp": "forall[R1]{ ~p1 | p2 }",
    }}),
}

BUDGETS = (None, 1, 50, 400, 5000)
# The arity-3 signature's last layers run to 10^5 candidates or more, too
# many for the reference; there it is compared under the finite budgets only.
FULL_DEPTH = {"arity3": 2}
FULL_SYNTACTIC_DEPTH = {"arity3": 1}


def _pairs(seed: int, count: int):
    rng = random.Random(seed)
    for k in range(count):
        rels = RELATIONS[: rng.randint(1, 3)]
        m1 = random_model(rng.randint(1, 6), rels, ["P1", "P2"], 0.3, 0.5, rng.randrange(1 << 30))
        m2 = random_model(rng.randint(1, 6), rels, ["P1", "P2"], 0.3, 0.5, rng.randrange(1 << 30))
        yield k, m1, m2


def _outcome(enumerate_, *args):
    try:
        return enumerate_(*args)
    except BudgetExceeded as e:
        return ("budget", e.checked)


def _triples(classes):
    if isinstance(classes, tuple):
        return classes
    return [(c.formula, c.vec1, c.vec2) for c in classes]


@pytest.mark.parametrize("sig_name", sorted(SIGS))
def test_semantic_classes_match_reference(sig_name):
    sig = SIGS[sig_name]
    for k, m1, m2 in _pairs(1000 + len(sig_name), 6):
        theta = theta_of(m1, m2)
        for depth in range(4):
            for budget in BUDGETS:
                if budget is None and depth > FULL_DEPTH.get(sig_name, 3):
                    continue
                got = _outcome(semantic_classes, sig, theta, depth, m1, m2, budget)
                want = _outcome(ref.semantic_classes, sig, theta, depth, m1, m2, budget)
                assert _triples(got) == _triples(want), (sig_name, k, depth, budget)


@pytest.mark.parametrize("sig_name", sorted(SIGS))
def test_truth_sets_match_reference(sig_name):
    sig = SIGS[sig_name]
    for k, m1, m2 in _pairs(2000 + len(sig_name), 4):
        for cls in semantic_classes(sig, theta_of(m1, m2), 2, m1, m2, None):
            for m in (m1, m2):
                vec = ref.truth_vector(m, cls.formula, sig)
                want = frozenset(u for i, u in enumerate(m.domain) if (vec >> i) & 1)
                assert fragment_truth_set(m, cls.formula, sig) == want, (sig_name, k)


@pytest.mark.parametrize("sig_name", sorted(SIGS))
def test_syntactic_enumeration_matches_reference(sig_name):
    sig = SIGS[sig_name]
    preds = ["P1", "P2", "P1"]  # a repeated atom is listed once
    for depth in range(3):
        for budget in (None, 1, 30, 300, 5000):
            if budget is None and depth > FULL_SYNTACTIC_DEPTH.get(sig_name, 2):
                continue
            got = _outcome(enumerate_fragment, sig, preds, depth, None, budget)
            want = _outcome(ref.enumerate_fragment, sig, preds, depth, budget)
            assert got == want, (sig_name, depth, budget)


@pytest.mark.parametrize("sig_name", sorted(ALL_SIGS))
def test_preservation_relation_is_read_off_the_depth3_prefix(sig_name):
    sig = SIGS[sig_name]
    for k, m1, m2 in _pairs(3000 + len(sig_name), 6):
        theta = theta_of(m1, m2)
        classes = semantic_classes(sig, theta, 3, m1, m2, None)
        layers = [fragment_depth(c.formula) for c in classes]
        assert layers == sorted(layers)
        for d in range(4):
            prefix = [c for c, layer in zip(classes, layers) if layer <= d]
            assert prefix == semantic_classes(sig, theta, d, m1, m2, None), (sig_name, k, d)
            assert asim.preservation_relation(sig, theta, m1, m2, d, None) == \
                asim.class_preorder(prefix, m1, m2), (sig_name, k, d)
