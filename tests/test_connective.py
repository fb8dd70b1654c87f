"""Guarded connectives: structure, classification, normalization, translation,
signature validation, and the degree-1 modality rewrites."""

import random

import pytest

from guardasim.boolfn import classify, from_expr
from guardasim.connective import (
    ConnectiveError,
    FragmentSignature,
    GuardBlock,
    GuardedConnective,
    ancestor,
    classify_connective,
    connective_text,
    modality_collapse,
    normalize,
    parse_connective,
    std_translation,
    unify_args,
    validate_standard_fragment,
)
from guardasim.formula import eval_fo, eval_fragment, std_translate
from guardasim.model import random_model
from guardasim.syntax import Apply, Atom, PredAtom, fo_text

from helpers import sig_modal, sig_modal_intuitionistic

LAM1 = parse_connective("forall[R1]{ p1 }", "lambda1")
LAM2 = parse_connective("forall[R1,R2]{ p1 }", "lambda2")
LAM3 = parse_connective("forall[R1] exists[R3]{ p1 }", "lambda3")
LAM4 = parse_connective("exists[R1]{ p1 }", "lambda4")
LAM5 = parse_connective("forall[R1]{ ~p1 | p2 }", "lambda5")


class TestStructure:
    def test_degrees(self):
        assert LAM1.degree == 1
        assert LAM3.degree == 2
        assert parse_connective("{ p1 & p2 }", "and").degree == 0

    def test_ancestors(self):
        inner = ancestor(LAM3, 1)
        assert inner.blocks == (GuardBlock("exists", ("R3",)),)
        assert inner.core == LAM3.core
        bare = ancestor(LAM3, 0)
        assert bare.blocks == () and bare.core == from_expr("p1")
        assert ancestor(LAM1, 0).blocks == ()
        with pytest.raises(ConnectiveError):
            ancestor(LAM3, 2)

    def test_alternation_enforced(self):
        with pytest.raises(ConnectiveError):
            GuardedConnective(
                "bad", 1,
                (GuardBlock("forall", ("R1",)), GuardBlock("forall", ("R2",))),
                from_expr("p1"),
            )

    def test_equality_ignores_name(self):
        other = parse_connective("forall[R1]{ p1 }", "box")
        assert other == LAM1

    def test_parse_rejects_garbage(self):
        with pytest.raises(ConnectiveError):
            parse_connective("forall[R1] p1", "bad")
        with pytest.raises(ConnectiveError):
            parse_connective("forall[]{ p1 }", "bad")
        with pytest.raises(ConnectiveError):
            parse_connective("forall[edge]{ p1 }", "bad")


class TestClassification:
    def test_example_connectives(self):
        for mu, modality in ((LAM1, True), (LAM2, True), (LAM4, True), (LAM5, False)):
            cls = classify_connective(mu)
            assert cls.is_flat and cls.is_standard
            assert cls.is_modality == modality
        cls3 = classify_connective(LAM3)
        assert cls3.degree == 2 and not cls3.is_flat
        assert cls3.is_modality and cls3.is_regular and cls3.is_standard
        assert cls3.nu_prefix == "AE"

    def test_lambda5_flags(self):
        cls = classify_connective(LAM5)
        # Core p1 -> p2 admits a true-false-true chain, so the connective is
        # neither special nor regular, but flat keeps it standard.
        assert cls.core_class.is_rest and cls.core_class.is_tft
        assert not cls.is_special and not cls.is_weakly_special and not cls.is_regular
        assert cls.is_flat and cls.is_standard

    def test_special_forall_connective(self):
        mu = parse_connective("forall[R1]{ p2 & ~p1 }", "guard_to_only")
        cls = classify_connective(mu)
        assert cls.is_special and cls.is_regular and cls.is_standard

    def test_special_exists_connective(self):
        mu = parse_connective("exists[R1]{ ~p1 | p2 }", "some_imp")
        cls = classify_connective(mu)
        assert cls.is_special  # core is rest and admits no false-true-false chain

    def test_degree3_not_standard(self):
        mu = parse_connective("forall[R1] exists[R2] forall[R3]{ p1 }", "deep")
        cls = classify_connective(mu)
        assert not cls.is_standard and cls.nu_prefix == "AEA"

    def test_degree2_regularity_depends_on_inner_quantifier(self):
        # Core p1 -> p2 is TFT and not FTF: fine under an inner exists,
        # not regular under an inner forall.
        good = parse_connective("forall[R2] exists[R1]{ ~p1 | p2 }", "ok")
        assert classify_connective(good).is_standard
        bad = parse_connective("exists[R2] forall[R1]{ ~p1 | p2 }", "nope")
        assert not classify_connective(bad).is_standard

    def test_same_name_different_cores_classify_apart(self):
        # Classes are computed once per connective; the name is not part of
        # a connective's identity, the blocks and the core are.
        a = parse_connective("exists[R1]{ p1 }", "mu")
        b = parse_connective("exists[R1]{ ~p1 | p2 }", "mu")
        ca, cb = classify_connective(a), classify_connective(b)
        assert ca != cb
        assert ca.core_class == classify(a.core) and cb.core_class == classify(b.core)
        assert classify_connective(parse_connective("exists[R1]{ p1 }", "other")) == ca


class TestNormalize:
    def test_forall_over_top_collapses(self):
        mu = parse_connective("forall[R1]{ T }", "t")
        assert normalize(mu).degree == 0
        assert normalize(mu).core == from_expr("T")

    def test_exists_over_bot_collapses(self):
        mu = parse_connective("exists[R1]{ F }", "b")
        assert normalize(mu).degree == 0

    def test_cascading_collapse(self):
        mu = parse_connective("forall[R2] exists[R1]{ F }", "bb")
        # Inner exists-over-F strips, then the outer forall-over-F stays.
        out = normalize(mu)
        assert out.degree == 1 and out.blocks[0].quantifier == "forall"

    def test_non_constant_untouched(self):
        assert normalize(LAM1) == LAM1
        assert normalize(parse_connective("forall[R1]{ F }", "nosucc")).degree == 1
        assert normalize(parse_connective("exists[R1]{ T }", "somesucc")).degree == 1

    def test_normalization_preserves_semantics(self):
        rng = random.Random(5)
        cases = [
            parse_connective("forall[R1]{ T }", "t"),
            parse_connective("exists[R1]{ F }", "b"),
            parse_connective("forall[R2] exists[R1]{ F }", "bb"),
            parse_connective("exists[R2] forall[R1]{ T }", "tt"),
        ]
        for mu in cases:
            nu = normalize(mu)
            for trial in range(20):
                m = random_model(rng.randint(1, 5), ["R1", "R2"], ["P1"], 0.4, 0.5, trial)
                args = [PredAtom("P1", "x")] * mu.arity
                phi = std_translation(mu, args, "x")
                psi = std_translation(nu, args, "x")
                for w in m.domain:
                    assert eval_fo(m, {"x": w}, phi) == eval_fo(m, {"x": w}, psi)


class TestValidateStandardFragment:
    def test_reference_signatures_accepted(self):
        assert validate_standard_fragment(sig_modal()) == []
        assert validate_standard_fragment(sig_modal_intuitionistic()) == []

    def test_degree3_rejected_with_reason(self):
        sig = FragmentSignature.from_dict(
            {"connectives": {"deep": "forall[R1] exists[R2] forall[R3]{ p1 }"}}
        )
        problems = validate_standard_fragment(sig)
        assert any("deep" in p and "degree 3" in p for p in problems)

    def test_missing_builtins_reported(self):
        sig = FragmentSignature({"box": LAM1}, include_builtins=False)
        problems = validate_standard_fragment(sig)
        assert any("conjunction" in p for p in problems)
        assert any("falsum" in p for p in problems)

    def test_irregular_degree2_rejected(self):
        sig = FragmentSignature.from_dict(
            {"connectives": {"nope": "exists[R2] forall[R1]{ ~p1 | p2 }"}}
        )
        problems = validate_standard_fragment(sig)
        assert any("nope" in p for p in problems)


class TestStdTranslation:
    def test_diamond_shape(self):
        phi = std_translation(LAM4, [PredAtom("P1", "x")], "x")
        assert fo_text(phi) == "exists x2 (R1(x,x2) & P1(x2))"

    def test_two_step_box(self):
        phi = std_translation(LAM2, [PredAtom("P1", "x")], "x")
        assert fo_text(phi) == "forall x2 (forall x3 (R1(x,x2) & R2(x2,x3) -> P1(x3)))"

    def test_degree_two(self):
        phi = std_translation(LAM3, [PredAtom("P1", "x")], "x")
        assert fo_text(phi) == "forall x2 (R1(x,x2) -> (exists x3 (R3(x2,x3) & P1(x3))))"

    def test_degree_zero_is_plain_combination(self):
        top = parse_connective("{ T }", "top")
        assert fo_text(std_translation(top, [], "x")) == "T"

    def test_nested_translation_avoids_capture(self):
        sig = sig_modal()
        f = Apply("dia", (Apply("dia", (Atom("P1"),)),))
        phi = std_translate(f, "x", sig)
        assert fo_text(phi) == "exists x3 (R1(x,x3) & (exists x2 (R1(x3,x2) & P1(x2))))"

    def test_arity_mismatch(self):
        with pytest.raises(ConnectiveError):
            std_translation(LAM4, [], "x")


class TestModalityRewrites:
    def setup_method(self):
        self.sig = FragmentSignature.from_dict({"connectives": {
            "box": "forall[R1]{ p1 }",
            "boxneg": "forall[R1]{ ~p1 }",
            "dia": "exists[R1]{ p1 }",
            "dianand": "exists[R1]{ ~(p1 & p2) }",
            "boxor": "forall[R1]{ p1 | p2 }",
        }})

    def all_points_agree(self, lhs, rhs, seed):
        rng = random.Random(seed)
        for trial in range(25):
            m = random_model(rng.randint(1, 5), ["R1"], ["P1", "P2", "P3"], 0.4, 0.5, trial)
            for w in m.domain:
                assert eval_fragment(m, w, lhs, self.sig) == eval_fragment(m, w, rhs, self.sig)

    @staticmethod
    def fold(name, parts):
        out = parts[0]
        for p in parts[1:]:
            out = Apply(name, (out, p))
        return out

    def test_universal_monotone_collapse(self):
        psis = [Atom("P1"), Atom("P2")]
        rhs = modality_collapse(self.sig.get("box"), psis, "conjunction")
        assert rhs == Apply("box", (Apply("and", (Atom("P1"), Atom("P2"))),))
        lhs = self.fold("and", [Apply("box", (p,)) for p in psis])
        self.all_points_agree(lhs, rhs, 1)

    def test_universal_antimonotone_collapse(self):
        psis = [Atom("P1"), Atom("P2"), Atom("P3")]
        rhs = modality_collapse(self.sig.get("boxneg"), psis, "conjunction")
        assert rhs.args[0].name == "or"
        lhs = self.fold("and", [Apply("boxneg", (p,)) for p in psis])
        self.all_points_agree(lhs, rhs, 2)

    def test_existential_monotone_collapse(self):
        psis = [Atom("P1"), Atom("P2")]
        rhs = modality_collapse(self.sig.get("dia"), psis, "disjunction")
        assert rhs.args[0].name == "or"
        lhs = self.fold("or", [Apply("dia", (p,)) for p in psis])
        self.all_points_agree(lhs, rhs, 3)

    def test_existential_antimonotone_collapse(self):
        psis = [Atom("P1"), Atom("P2")]
        mu = parse_connective("exists[R1]{ ~p1 }", "dianeg")
        sig = FragmentSignature({"dianeg": mu})
        rhs = modality_collapse(mu, psis, "disjunction")
        assert rhs.args[0].name == "and"
        lhs = self.fold("or", [Apply("dianeg", (p,)) for p in psis])
        rng = random.Random(9)
        for trial in range(25):
            m = random_model(rng.randint(1, 5), ["R1"], ["P1", "P2"], 0.4, 0.5, trial)
            for w in m.domain:
                assert eval_fragment(m, w, lhs, sig) == eval_fragment(m, w, rhs, sig)

    def test_mode_mismatch_rejected(self):
        with pytest.raises(ConnectiveError):
            modality_collapse(self.sig.get("box"), [Atom("P1")], "disjunction")
        with pytest.raises(ConnectiveError):
            modality_collapse(self.sig.get("dia"), [Atom("P1")], "conjunction")

    def test_non_modality_rejected(self):
        with pytest.raises(ConnectiveError):
            modality_collapse(LAM5, [Atom("P1")], "conjunction")
        with pytest.raises(ConnectiveError):
            unify_args(LAM3, [Atom("P1")])

    def test_unify_unary_is_identity(self):
        out = unify_args(self.sig.get("box"), [Atom("P1")])
        assert out == Apply("box", (Atom("P1"),))

    def test_unify_disjunctive_core(self):
        psis = [Atom("P1"), Atom("P2")]
        out = unify_args(self.sig.get("boxor"), psis)
        expected_arg = Apply("or", (Atom("P1"), Atom("P2")))
        assert out == Apply("boxor", (expected_arg, expected_arg))
        lhs = Apply("boxor", (Atom("P1"), Atom("P2")))
        self.all_points_agree(lhs, out, 4)

    def test_unify_nand_core(self):
        psis = [Atom("P1"), Atom("P2")]
        out = unify_args(self.sig.get("dianand"), psis)
        assert out.args[0] == Apply("and", (Atom("P1"), Atom("P2")))
        lhs = Apply("dianand", (Atom("P1"), Atom("P2")))
        self.all_points_agree(lhs, out, 5)


class TestSignatureIO:
    def test_builtins_injected(self):
        sig = FragmentSignature.from_dict({"connectives": {}})
        assert set(sig.names()) == {"and", "or", "top", "bot"}

    def test_builtin_can_be_overridden(self):
        sig = FragmentSignature.from_dict({"connectives": {"and": "{ p1 & p2 }"}})
        assert sig.get("and").core == from_expr("p1 & p2")

    def test_bad_names_rejected(self):
        with pytest.raises(ConnectiveError):
            FragmentSignature({"P1": LAM1})
        with pytest.raises(ConnectiveError):
            FragmentSignature({"no spaces": LAM1})

    def test_doc_round_trip_preserves_semantics(self):
        sig = sig_modal_intuitionistic()
        doc = sig.to_doc()
        back = FragmentSignature.from_dict(doc)
        assert back.names() == sig.names()
        for name in sig.names():
            assert back.get(name) == sig.get(name)

    def test_connectives_normalized_on_load(self):
        sig = FragmentSignature.from_dict({"connectives": {"t": "forall[R1]{ T }"}})
        assert sig.get("t").degree == 0
