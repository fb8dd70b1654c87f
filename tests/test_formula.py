"""Formula parsing, evaluation, translation round-trip, enumeration, and
distinguishing-formula search."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from guardasim.formula import (
    BudgetExceeded,
    FormulaError,
    distinguishing_formula,
    eval_fo,
    eval_fragment,
    fragment_truth_set,
    parse_fo,
    parse_fragment,
    semantic_classes,
    std_translate,
)
from guardasim.model import PointedModel, load, random_model
from guardasim.syntax import (
    And,
    Apply,
    Atom,
    Bot,
    Exists,
    Forall,
    Implies,
    Not,
    Or,
    PredAtom,
    RelAtom,
    Top,
    fo_text,
    fragment_text,
    free_vars,
)

from helpers import random_fragment_formula, sig_modal, sig_modal_intuitionistic, theta_of

CHAIN = load({
    "domain": ["a", "a2"],
    "relations": {"R1": [["a", "a2"]]},
    "predicates": {"P1": ["a2"]},
})
SINGLE = load({"domain": ["b"], "relations": {}, "predicates": {}})


class TestParseFo:
    def test_diamond_shape(self):
        phi = parse_fo("exists y (R1(x,y) & P1(y))")
        assert phi == Exists("y", And(RelAtom("R1", "x", "y"), PredAtom("P1", "y")))

    def test_quantifier_scopes_maximally(self):
        from guardasim.syntax import Forall

        phi = parse_fo("forall y R1(x,y) -> P1(y)")
        assert isinstance(phi, Forall)
        assert isinstance(phi.body, Implies)

    def test_iff_desugars(self):
        phi = parse_fo("P1(x) <-> P2(x)")
        assert isinstance(phi, And)
        assert isinstance(phi.left, Implies) and isinstance(phi.right, Implies)

    def test_free_variables(self):
        phi = parse_fo("exists y (R1(x,y) & P1(y))")
        assert free_vars(phi) == frozenset({"x"})

    def test_errors_carry_positions(self):
        with pytest.raises(FormulaError, match="position"):
            parse_fo("P1(x) &")
        with pytest.raises(FormulaError, match="position"):
            parse_fo("P1(x,y)")
        with pytest.raises(FormulaError, match="bare variable"):
            parse_fo("x")

    def test_printer_round_trip(self):
        texts = [
            "exists y (R1(x,y) & P1(y))",
            "forall y (R1(x,y) -> (~P1(y) | P2(y)))",
            "P1(x) & (P2(x) | P3(x))",
            "~(P1(x) -> F)",
        ]
        for text in texts:
            phi = parse_fo(text)
            assert parse_fo(fo_text(phi)) == phi


ROUND_TRIP = settings(derandomize=True, max_examples=150, deadline=None, database=None)
VARS = st.sampled_from(["x", "y", "x2"])
FO_TREES = st.recursive(
    st.one_of(
        st.builds(PredAtom, st.sampled_from(["P1", "P2"]), VARS),
        st.builds(RelAtom, st.sampled_from(["R1", "R2"]), VARS, VARS),
        st.sampled_from([Top(), Bot()]),
    ),
    lambda inner: st.one_of(
        st.builds(Not, inner),
        *(st.builds(op, inner, inner) for op in (And, Or, Implies)),
        *(st.builds(q, VARS, inner) for q in (Forall, Exists)),
    ),
    max_leaves=8,
)


@ROUND_TRIP
@given(phi=FO_TREES)
def test_fo_printer_round_trip_on_random_trees(phi):
    assert parse_fo(fo_text(phi)) == phi


SIG_MI = sig_modal_intuitionistic()


def fragment_trees(sig):
    return st.recursive(
        st.builds(Atom, st.sampled_from(["P1", "P2"])),
        lambda inner: st.one_of(*(
            st.tuples(*[inner] * sig.get(name).arity).map(lambda args, name=name: Apply(name, args))
            for name in sig.names()
        )),
        max_leaves=8,
    )


@ROUND_TRIP
@given(f=fragment_trees(SIG_MI))
def test_fragment_printer_round_trip_on_random_trees(f):
    assert parse_fragment(fragment_text(f), SIG_MI) == f


class TestEvalFo:
    def test_atom(self):
        m = load({"domain": ["a"], "relations": {}, "predicates": {"P1": ["a"]}})
        assert eval_fo(m, {"x": "a"}, parse_fo("P1(x)"))

    def test_diamond_true_on_chain(self):
        phi = parse_fo("exists y (R1(x,y) & P1(y))")
        assert eval_fo(CHAIN, {"x": "a"}, phi)
        assert not eval_fo(CHAIN, {"x": "a2"}, phi)

    def test_vacuous_box(self):
        phi = parse_fo("forall y (R1(x,y) -> F)")
        assert eval_fo(SINGLE, {"x": "b"}, phi)

    def test_unassigned_variable(self):
        with pytest.raises(FormulaError, match="unassigned"):
            eval_fo(SINGLE, {}, parse_fo("P1(x)"))


class TestParseFragment:
    def test_modal_application(self):
        sig = sig_modal()
        f = parse_fragment("box(and(P1,P2))", sig)
        assert f == Apply("box", (Apply("and", (Atom("P1"), Atom("P2"))),))

    def test_arity_error(self):
        with pytest.raises(FormulaError, match="arity"):
            parse_fragment("box(P1,P2)", sig_modal())

    def test_unknown_connective(self):
        with pytest.raises(FormulaError, match="unknown connective"):
            parse_fragment("wobble(P1)", sig_modal())

    def test_nullary_with_or_without_parens(self):
        sig = sig_modal()
        assert parse_fragment("top", sig) == Apply("top", ())
        assert parse_fragment("top()", sig) == Apply("top", ())

    def test_text_round_trip(self):
        sig = sig_modal()
        for text in ("box(and(P1,P2))", "dia(not(P1))", "or(top,bot)"):
            f = parse_fragment(text, sig)
            assert parse_fragment(fragment_text(f), sig) == f


class TestEvalFragment:
    def test_diamond_on_chain(self):
        sig = sig_modal()
        assert eval_fragment(CHAIN, "a", parse_fragment("dia(P1)", sig), sig)

    def test_bottom_everywhere_false(self):
        sig = sig_modal()
        for w in CHAIN.domain:
            assert not eval_fragment(CHAIN, w, parse_fragment("bot", sig), sig)

    def test_guarded_implication_agrees_with_translation(self):
        sig = sig_modal_intuitionistic()
        f = parse_fragment("lambda5(P1,P2)", sig)
        phi = std_translate(f, "x", sig)
        m = load({
            "domain": ["u", "v", "w"],
            "relations": {"R1": [["u", "v"], ["u", "w"]]},
            "predicates": {"P1": ["v", "w"], "P2": ["v"]},
        })
        for el in m.domain:
            assert eval_fragment(m, el, f, sig) == eval_fo(m, {"x": el}, phi)

    def test_truth_set_memoizes_shared_subformulas(self):
        sig = sig_modal()
        shared = Apply("dia", (Atom("P1"),))
        f = Apply("and", (shared, shared))
        assert fragment_truth_set(CHAIN, f, sig) == fragment_truth_set(CHAIN, shared, sig)

    def test_unknown_element(self):
        sig = sig_modal()
        with pytest.raises(FormulaError):
            eval_fragment(CHAIN, "zz", parse_fragment("top", sig), sig)


class TestRoundTrip:
    def test_translation_contract_on_random_cases(self):
        from guardasim.connective import FragmentSignature

        rng = random.Random(2024)
        rest_core_sig = FragmentSignature.from_dict({"connectives": {
            "ae_imp": "forall[R2] exists[R1]{ ~p1 | p2 }",
            "ea_butnot": "exists[R2] forall[R1]{ p2 & ~p1 }",
        }})
        sigs = [sig_modal(), sig_modal_intuitionistic(), rest_core_sig]
        for trial in range(120):
            sig = sigs[trial % 3]
            m = random_model(
                rng.randint(1, 6), ["R1", "R2", "R3"], ["P1", "P2"], 0.35, 0.5, 50_000 + trial
            )
            f = random_fragment_formula(sig, ["P1", "P2"], 3, rng)
            phi = std_translate(f, "x", sig)
            for w in m.domain:
                assert eval_fragment(m, w, f, sig) == eval_fo(m, {"x": w}, phi), (
                    fragment_text(f), w,
                )


class TestEnumeration:
    def test_semantic_dedup_sound(self):
        sig = sig_modal()
        classes = semantic_classes(sig, theta_of(CHAIN, SINGLE), 2, CHAIN, SINGLE)
        seen = set()
        for cls in classes:
            key = (cls.vec1, cls.vec2)
            assert key not in seen
            seen.add(key)
            v1 = 0
            for i, w in enumerate(CHAIN.domain):
                if eval_fragment(CHAIN, w, cls.formula, sig):
                    v1 |= 1 << i
            v2 = 0
            for i, w in enumerate(SINGLE.domain):
                if eval_fragment(SINGLE, w, cls.formula, sig):
                    v2 |= 1 << i
            assert (v1, v2) == key

    def test_budget_exhaustion_is_distinct(self):
        sig = sig_modal()
        with pytest.raises(BudgetExceeded):
            semantic_classes(sig, ["P1", "P2"], 3, CHAIN, SINGLE, budget=5)


class TestDistinguishing:
    def test_diamond_distinguishes_chain_from_point(self):
        sig = sig_modal()
        f = distinguishing_formula(sig, PointedModel(CHAIN, "a"), PointedModel(SINGLE, "b"), 3)
        assert f == Apply("dia", (Atom("P1"),)) or (
            eval_fragment(CHAIN, "a", f, sig) and not eval_fragment(SINGLE, "b", f, sig)
        )

    def test_isomorphic_points_never_distinguished(self):
        m1 = load({"domain": ["u"], "relations": {"R1": [["u", "u"]]}, "predicates": {"P1": ["u"]}})
        m2 = load({"domain": ["v"], "relations": {"R1": [["v", "v"]]}, "predicates": {"P1": ["v"]}})
        assert distinguishing_formula(sig_modal(), PointedModel(m1, "u"), PointedModel(m2, "v"), 4) is None

    def test_atom_difference_found_at_depth_zero(self):
        m1 = load({"domain": ["a"], "relations": {}, "predicates": {"P1": ["a"]}})
        m2 = load({"domain": ["b"], "relations": {}, "predicates": {}})
        f = distinguishing_formula(sig_modal(), PointedModel(m1, "a"), PointedModel(m2, "b"), 0)
        assert f == Atom("P1")


class TestDistinguishingCompleteness:
    def test_pairs_split_exactly_by_largest_asimulation(self):
        # On finite models the preservation preorder collapses onto the
        # largest asimulation, so a pair is unrelated exactly when some
        # fragment formula separates it.
        import random as _random

        from guardasim.asim import largest_asimulation
        from helpers import sig_modal, sig_intuitionistic, theta_of

        rng = _random.Random(77)
        for sig in (sig_modal(), sig_intuitionistic()):
            for trial in range(8):
                m1 = random_model(rng.randint(1, 3), ["R1"], ["P1"], 0.4, 0.5, 3000 + trial)
                m2 = random_model(rng.randint(1, 3), ["R1"], ["P1"], 0.4, 0.5, 3100 + trial)
                theta = theta_of(m1, m2)
                big = largest_asimulation(sig, theta, m1, m2)
                for a in m1.domain:
                    for b in m2.domain:
                        found = distinguishing_formula(
                            sig, PointedModel(m1, a), PointedModel(m2, b), 8
                        )
                        assert ((a, b) in big.fwd) == (found is None), (trial, a, b)


def test_distinguishing_budget_exhaustion_is_distinct():
    sig = sig_modal()
    m1 = load({"domain": ["a", "a2", "a3"], "relations": {"R1": [["a", "a2"], ["a2", "a3"]]},
               "predicates": {"P1": ["a3"], "P2": ["a2"]}})
    m2 = load({"domain": ["b", "b2"], "relations": {"R1": [["b", "b2"]]},
               "predicates": {"P2": ["b2"]}})
    with pytest.raises(BudgetExceeded):
        distinguishing_formula(sig, PointedModel(m1, "a"), PointedModel(m2, "b"), 4, budget=3)


def test_distinguishing_stops_at_the_first_separating_class():
    """27 candidates finish the depth-1 enumeration, which finds dia(P1), and
    exhaust the depth-2 one; at depth 2 and 3 the search stops at the same
    formula instead of enumerating every class first."""
    sig = sig_modal()
    m1 = load({"domain": ["a", "a2"], "relations": {"R1": [["a", "a2"]]}, "predicates": {"P1": ["a2"]}})
    m2 = load({"domain": ["b"], "relations": {}, "predicates": {}})
    pm1, pm2 = PointedModel(m1, "a"), PointedModel(m2, "b")
    found = distinguishing_formula(sig, pm1, pm2, 1, budget=27)
    assert found == parse_fragment("dia(P1)", sig)
    semantic_classes(sig, ["P1"], 1, m1, m2, budget=27)
    with pytest.raises(BudgetExceeded):
        semantic_classes(sig, ["P1"], 2, m1, m2, budget=27)
    for depth in (2, 3):
        assert distinguishing_formula(sig, pm1, pm2, depth, budget=27) == found
