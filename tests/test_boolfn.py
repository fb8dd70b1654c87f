"""Truth-table taxonomy and constructive forms, checked against brute force."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from guardasim.boolfn import (
    BoolExprError,
    DiagonalValue,
    Slot,
    Substitution,
    TABLE_AND_NOT,
    TABLE_IMPLIES,
    TABLE_NOT_P1_2,
    TABLE_P1_2,
    TruthTable,
    apply_substitution,
    classify,
    diagonal,
    from_expr,
    ftf_substitution,
    monotone_lattice_expr,
    non_ftf_dnf,
    non_tft_cnf,
    rest_projections,
    tft_substitution,
)
from oracles import brute_class, exhaustive_substitution

TFT_SLOTS = [Slot.P1, Slot.P2, Slot.OR, Slot.TOP, Slot.BOT]
FTF_SLOTS = [Slot.P1, Slot.P2, Slot.AND, Slot.TOP, Slot.BOT]
REST_SLOTS = [Slot.P1, Slot.TOP, Slot.BOT]


def all_tables(arity):
    for bits in range(1 << (1 << arity)):
        yield TruthTable(arity, bits)


def sampled_tables(arity, count, seed):
    rng = random.Random(seed)
    size = 1 << (1 << arity)
    for _ in range(count):
        yield TruthTable(arity, rng.randrange(size))


class TestParsing:
    def test_conjunction_outputs(self):
        assert from_expr("p1 & p2").outputs == (False, False, False, True)

    def test_constant_true(self):
        t = from_expr("T")
        assert t.arity == 0 and t.outputs == (True,)

    def test_triple_biconditional_left_associated(self):
        t = from_expr("(p1 <-> p2) <-> p3")
        assert t == from_expr("p1 <-> p2 <-> p3")

    def test_operator_precedence(self):
        assert from_expr("~p1 | p2 & p3") == from_expr("(~p1) | (p2 & p3)")

    def test_implication_right_associative(self):
        assert from_expr("p1 -> p2 -> p3") == from_expr("p1 -> (p2 -> p3)")

    def test_parse_error_carries_position(self):
        with pytest.raises(BoolExprError) as err:
            from_expr("p1 & $")
        assert "position" in str(err.value)

    def test_unbalanced_parens(self):
        with pytest.raises(BoolExprError):
            from_expr("(p1 & p2")

    def test_arity_cap(self):
        with pytest.raises(BoolExprError):
            from_expr("p17")

    @pytest.mark.parametrize("text,var,pos", [
        ("p1 & p20", 20, 5), ("p17 | p1", 17, 0), ("p2 -> (p1 & p19) | p30", 19, 12),
    ])
    def test_arity_cap_names_the_first_variable_above_it(self, text, var, pos):
        with pytest.raises(BoolExprError) as err:
            from_expr(text)
        assert err.value.pos == pos
        assert str(err.value) == f"variable p{var} exceeds the arity cap 16 (at position {pos})"

    def test_vacuous_variable_fixes_arity(self):
        assert from_expr("p2").arity == 2


class TestClassify:
    def test_implication_flags(self):
        c = classify(from_expr("p1 -> p2"))
        assert c.is_rest and c.is_tft and not c.is_ftf
        assert c.exists_special and not c.forall_special

    def test_triple_biconditional_both_chain_kinds(self):
        c = classify(from_expr("(p1 <-> p2) <-> p3"))
        assert c.is_rest and c.is_tft and c.is_ftf
        assert not c.forall_special and not c.exists_special

    def test_constant_flags(self):
        c = classify(from_expr("T"))
        assert c.is_constant and c.is_monotone and c.is_antimonotone and not c.is_rest

    def test_exhaustive_agreement_small_arities(self):
        for arity in range(4):
            for t in all_tables(arity):
                got = classify(t)
                want = brute_class(t)
                for key, val in want.items():
                    assert getattr(got, key) == val, (arity, t.bits, key)

    def test_sampled_agreement_arity_4_to_6(self):
        for arity, count in ((4, 300), (5, 150), (6, 40)):
            for t in sampled_tables(arity, count, seed=arity):
                got = classify(t)
                want = brute_class(t)
                for key, val in want.items():
                    assert getattr(got, key) == val, (arity, t.bits, key)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(min_value=0, max_value=5), st.data())
    def test_flag_invariants(self, arity, data):
        bits = data.draw(st.integers(min_value=0, max_value=(1 << (1 << arity)) - 1))
        c = classify(TruthTable(arity, bits))
        assert c.is_rest == (not c.is_monotone and not c.is_antimonotone)
        assert c.forall_special == (c.is_rest and not c.is_tft)
        assert c.exists_special == (c.is_rest and not c.is_ftf)
        assert c.weakly_forall_special == (not c.is_tft)
        assert c.weakly_exists_special == (not c.is_ftf)
        if c.is_tft or c.is_ftf:
            assert c.is_rest
        assert not (c.forall_special and c.exists_special)

    def test_arity3_census(self):
        counts = {"mono": 0, "anti": 0, "const": 0, "rest": 0}
        for t in all_tables(3):
            c = classify(t)
            counts["mono"] += c.is_monotone
            counts["anti"] += c.is_antimonotone
            counts["const"] += c.is_constant
            counts["rest"] += c.is_rest
        assert counts == {"mono": 20, "anti": 20, "const": 2, "rest": 218}

    def test_no_rest_function_escapes_both_chain_kinds(self):
        # Exhaustive at arities <= 3 here; the arity-4 sweep lives in acceptance.
        for arity in range(4):
            for t in all_tables(arity):
                c = classify(t)
                assert not (c.is_rest and not c.is_tft and not c.is_ftf)


class TestLatticeForm:
    def test_conjunction_single_clause(self):
        form = monotone_lattice_expr(from_expr("p1 & p2"))
        assert form.positive == frozenset({frozenset({1, 2})})
        assert not form.negative

    def test_disjunction_with_nested_clause(self):
        f = from_expr("p1 | (p2 & p3)")
        form = monotone_lattice_expr(f)
        assert form.positive == frozenset({frozenset({1}), frozenset({2, 3})})
        assert form.dnf_table(3) == f

    def test_antimonotone_returns_inner_form(self):
        f = from_expr("~(p1 | p2)")
        form = monotone_lattice_expr(f)
        assert form.positive == frozenset({frozenset({1}), frozenset({2})})
        assert form.dnf_table(2) == f.complement()

    def test_rejects_constant_and_rest(self):
        with pytest.raises(ValueError):
            monotone_lattice_expr(from_expr("T"))
        with pytest.raises(ValueError):
            monotone_lattice_expr(from_expr("p1 -> p2"))


class TestDiagonal:
    def test_majority_is_projection(self):
        assert diagonal(from_expr("(p1 & p2) | (p1 & p3) | (p2 & p3)")) is DiagonalValue.P1

    def test_nand_is_negation(self):
        assert diagonal(from_expr("~(p1 & p2)")) is DiagonalValue.NOT_P1

    def test_implication_collapses_to_top(self):
        assert diagonal(from_expr("p1 -> p2")) is DiagonalValue.TOP

    def test_idempotent(self):
        for arity in range(4):
            for t in all_tables(arity):
                v = diagonal(t)
                assert diagonal(from_expr(v.value)) is v

    def test_monotone_always_projection(self):
        for t in all_tables(3):
            c = classify(t)
            if c.is_monotone and not c.is_constant:
                assert diagonal(t) is DiagonalValue.P1
            if c.is_antimonotone and not c.is_constant:
                assert diagonal(t) is DiagonalValue.NOT_P1


class TestWitnessSubstitutions:
    def test_implication_identity_witness(self):
        sub = tft_substitution(from_expr("p1 -> p2"))
        assert sub.entries == (Slot.P1, Slot.P2)

    def test_triple_biconditional_has_witness(self):
        f = from_expr("(p1 <-> p2) <-> p3")
        sub = tft_substitution(f)
        assert apply_substitution(f, sub) == TABLE_IMPLIES
        oracle = exhaustive_substitution(f, TFT_SLOTS, TABLE_IMPLIES)
        assert oracle is not None
        assert apply_substitution(f, oracle) == TABLE_IMPLIES

    def test_vacuous_third_argument(self):
        f = from_expr("~p1 | p2 | (p3 & ~p3)")
        sub = tft_substitution(f)
        assert apply_substitution(f, sub) == TABLE_IMPLIES
        assert sub.entries[0] is Slot.P1 and sub.entries[1] is Slot.P2

    def test_and_not_identity_witness(self):
        sub = ftf_substitution(from_expr("p1 & ~p2"))
        assert sub.entries == (Slot.P1, Slot.P2)

    def test_xor_witness(self):
        f = from_expr("(p1 | p2) & ~(p1 & p2)")
        sub = ftf_substitution(f)
        assert apply_substitution(f, sub) == TABLE_AND_NOT
        oracle = exhaustive_substitution(f, FTF_SLOTS, TABLE_AND_NOT)
        assert oracle is not None
        assert oracle.entries == (Slot.P1, Slot.AND)

    def test_triple_biconditional_ftf_witness(self):
        f = from_expr("(p1 <-> p2) <-> p3")
        assert apply_substitution(f, ftf_substitution(f)) == TABLE_AND_NOT

    def test_rejects_wrong_kind(self):
        with pytest.raises(ValueError):
            tft_substitution(from_expr("p1 & p2"))
        with pytest.raises(ValueError):
            ftf_substitution(from_expr("p1 -> p2"))

    def test_exhaustive_small_arities_against_oracle(self):
        for arity in range(1, 4):
            for f in all_tables(arity):
                c = classify(f)
                if c.is_tft:
                    assert apply_substitution(f, tft_substitution(f)) == TABLE_IMPLIES
                    assert exhaustive_substitution(f, TFT_SLOTS, TABLE_IMPLIES) is not None
                if c.is_ftf:
                    assert apply_substitution(f, ftf_substitution(f)) == TABLE_AND_NOT
                    assert exhaustive_substitution(f, FTF_SLOTS, TABLE_AND_NOT) is not None


class TestRestProjections:
    def test_implication_projections(self):
        to_p1, to_not_p1 = rest_projections(from_expr("p1 -> p2"))
        assert to_p1.entries == (Slot.TOP, Slot.P1)
        assert to_not_p1.entries == (Slot.P1, Slot.BOT)

    def test_xor_projections_compose_correctly(self):
        f = from_expr("(p1 | p2) & ~(p1 & p2)")
        to_p1, to_not_p1 = rest_projections(f)
        assert apply_substitution(f, to_p1) == TABLE_P1_2
        assert apply_substitution(f, to_not_p1) == TABLE_NOT_P1_2

    def test_rejects_non_rest(self):
        with pytest.raises(ValueError):
            rest_projections(from_expr("p1 & p2"))

    def test_slots_limited_to_projection_alphabet(self):
        for f in all_tables(3):
            if classify(f).is_rest:
                for sub in rest_projections(f):
                    assert set(sub.entries) <= set(REST_SLOTS)


class TestTwoSidedForms:
    def test_implication_clauses(self):
        form = non_ftf_dnf(from_expr("p1 -> p2"))
        assert form.positive == frozenset({frozenset({2})})
        assert form.negative == frozenset({frozenset({1})})
        assert form.dnf_text() == "p2 | ~p1"

    def test_monotone_has_no_negative_clauses(self):
        form = non_ftf_dnf(from_expr("p1 & p2"))
        assert form.positive == frozenset({frozenset({1, 2})})
        assert not form.negative

    def test_antimonotone_has_no_positive_clauses(self):
        form = non_ftf_dnf(from_expr("~p1"))
        assert not form.positive
        assert form.negative == frozenset({frozenset({1})})

    def test_cnf_of_and_not(self):
        form = non_tft_cnf(from_expr("p1 & ~p2"))
        assert form.positive == frozenset({frozenset({1})})
        assert form.negative == frozenset({frozenset({2})})

    def test_cnf_of_disjunction(self):
        form = non_tft_cnf(from_expr("p1 | p2"))
        assert form.positive == frozenset({frozenset({1, 2})})
        assert not form.negative

    def test_cnf_of_xor(self):
        form = non_tft_cnf(from_expr("(p1 | p2) & ~(p1 & p2)"))
        assert form.positive == frozenset({frozenset({1, 2})})
        assert form.negative == frozenset({frozenset({1, 2})})

    def test_rejections(self):
        with pytest.raises(ValueError):
            non_ftf_dnf(from_expr("T"))
        with pytest.raises(ValueError):
            non_ftf_dnf(from_expr("(p1 | p2) & ~(p1 & p2)"))  # FTF
        with pytest.raises(ValueError):
            non_tft_cnf(from_expr("p1 -> p2"))  # TFT

    def test_exhaustive_reconstruction_small_arities(self):
        for arity in range(1, 4):
            for f in all_tables(arity):
                c = classify(f)
                if not c.is_constant and not c.is_ftf:
                    assert non_ftf_dnf(f).dnf_table(arity) == f
                if not c.is_constant and not c.is_tft:
                    assert non_tft_cnf(f).cnf_table(arity) == f


class TestApplySubstitution:
    def test_constant_slots(self):
        f = from_expr("p1 & p2")
        out = apply_substitution(f, Substitution((Slot.TOP, Slot.TOP)))
        assert out.outputs == (True, True, True, True)

    def test_identified_arguments(self):
        f = from_expr("p1 -> p2")
        out = apply_substitution(f, Substitution((Slot.P1, Slot.P1)))
        assert out.outputs == (True, True, True, True)

    def test_xor_composite(self):
        f = from_expr("(p1 | p2) & ~(p1 & p2)")
        out = apply_substitution(f, Substitution((Slot.P1, Slot.AND)))
        assert out == TABLE_AND_NOT

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            apply_substitution(from_expr("p1 & p2"), Substitution((Slot.P1,)))


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=1, max_value=6), st.data())
def test_constructions_reproduce_function_on_random_tables(arity, data):
    bits = data.draw(st.integers(min_value=0, max_value=(1 << (1 << arity)) - 1))
    f = TruthTable(arity, bits)
    c = classify(f)
    if not c.is_constant and not c.is_rest:
        form = monotone_lattice_expr(f)
        target = f if c.is_monotone else f.complement()
        assert form.dnf_table(arity) == target
    if c.is_tft:
        assert apply_substitution(f, tft_substitution(f)) == TABLE_IMPLIES
    if c.is_ftf:
        assert apply_substitution(f, ftf_substitution(f)) == TABLE_AND_NOT
    if c.is_rest:
        to_p1, to_not_p1 = rest_projections(f)
        assert apply_substitution(f, to_p1) == TABLE_P1_2
        assert apply_substitution(f, to_not_p1) == TABLE_NOT_P1_2
    if not c.is_constant and not c.is_ftf:
        assert non_ftf_dnf(f).dnf_table(arity) == f
    if not c.is_constant and not c.is_tft:
        assert non_tft_cnf(f).cnf_table(arity) == f
