"""The Boolean-core constructions against ``reference_boolfn``, where every
de Morgan dual is still written out twice.

Each derived construction must give exactly what its hand-written twin
gave: the same classification flags, dual tables, substitution slots,
clause sets, texts, tables and first-order combinations, and the same
error type and message where it refuses its input.  Every table up to
arity 3 is checked, a seeded sample at arities 4 to 8, and up to arity 10
the four tables whose first chain or pair sits highest in the index order.
"""

import random

import pytest

import reference_boolfn as ref
from guardasim import boolfn
from guardasim.boolfn import MonotoneDnf, TruthTable
from guardasim.connective import core_expr
from guardasim.syntax import PredAtom

SAMPLES = {4: 1500, 5: 400, 6: 200, 7: 100, 8: 50}

# p1 and pN are the highest and lowest index bits, so these tables have
# their first chain or pair at the far end of the index order
EDGES = ("p1 -> p{n}", "p{n} -> p1", "p1 & ~p{n}", "~p1 & p{n}")

CONSTRUCTIONS = [
    "classify", "tft_substitution", "ftf_substitution", "rest_projections",
    "non_ftf_dnf", "non_tft_cnf",
]


def tables(arity):
    if arity < 4:
        return [TruthTable(arity, bits) for bits in range(1 << (1 << arity))]
    rng = random.Random(arity)
    sample = [TruthTable(arity, rng.randrange(1 << (1 << arity))) for _ in range(SAMPLES.get(arity, 0))]
    return sample + [boolfn.from_expr(e.format(n=arity)) for e in EDGES]


def outcome(fn, *args):
    """What a call gives: its value, or the type and message it raised."""
    try:
        return "value", fn(*args)
    except Exception as e:  # the reference raises the same exceptions
        return "raised", type(e), str(e)


def readings(form, arity):
    """Everything a clause set shows: its two texts and its two tables."""
    return (
        outcome(form.dnf_text), outcome(form.cnf_text),
        outcome(form.dnf_table, arity), outcome(form.cnf_table, arity),
    )


def reference_readings(form, arity):
    return (
        outcome(ref.dnf_text, form), outcome(ref.cnf_text, form),
        outcome(ref.dnf_table, form, arity), outcome(ref.cnf_table, form, arity),
    )


@pytest.mark.parametrize("arity", range(11))
def test_constructions_match_reference(arity):
    args = [PredAtom(f"P{k}", "x") for k in range(1, arity + 1)]
    for f in tables(arity):
        assert f.dual() == ref.dual(f), f
        assert boolfn._strict_up_or(f.bits, arity) == ref.strict_up_or(f.bits, arity), f
        for name in CONSTRUCTIONS:
            got = outcome(getattr(boolfn, name), f)
            assert got == outcome(getattr(ref, name), f), (name, f)
            if name.startswith("non_") and got[0] == "value":
                assert readings(got[1], arity) == reference_readings(got[1], arity), (name, f)
        assert core_expr(f, args) == ref.core_expr(f, args), f


def random_form(rng, arity):
    def clauses():
        return frozenset(
            frozenset(rng.sample(range(1, arity + 1), rng.randint(0, arity)))
            for _ in range(rng.randint(0, 3))
        )
    return MonotoneDnf(positive=clauses(), negative=clauses())


@pytest.mark.parametrize("arity", range(5))
def test_clause_readings_match_reference(arity):
    """Clause sets no construction yields too: empty sets, empty clauses,
    clauses shared by both sides."""
    rng = random.Random(100 + arity)
    for _ in range(300):
        form = random_form(rng, arity)
        assert readings(form, arity) == reference_readings(form, arity), form


def test_clause_variable_beyond_arity_raises_value_error():
    """Both texts print the clause as before; both tables refuse it with a
    ``ValueError`` naming the clause and the arity, where the reference
    raised a bare ``KeyError``."""
    for positive, negative in (({frozenset({3})}, set()), (set(), {frozenset({1, 3})})):
        form = MonotoneDnf(positive=frozenset(positive), negative=frozenset(negative))
        clause = next(iter(positive or negative))
        refused = ("raised", ValueError, f"clause {sorted(clause)}: variable 3 is outside 1..2")
        before = reference_readings(form, 2)
        assert readings(form, 2) == (*before[:2], refused, refused)
        assert before[2][1] is before[3][1] is KeyError
