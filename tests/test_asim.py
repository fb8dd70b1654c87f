"""Cross relations, condition schemata, asimulation checking and solving."""

import importlib.util
import json
import operator
import os
import random
import sys

import pytest

from guardasim import asim
from guardasim.asim import (
    BWD,
    FWD,
    CrossRelation,
    NonStandardFragmentError,
    RelationError,
    ViolationReport,
    atom_preserving,
    back_holds,
    connective_condition,
    core_candidate,
    forth_holds,
    full_relation,
    invariance_check,
    is_asimulation,
    largest_asimulation,
    max_inner_target,
    preservation_relation,
    relation_from_doc,
    sback_holds,
    sforth_holds,
)
from guardasim.boolfn import classify, from_expr
from guardasim.connective import FragmentSignature, parse_connective, validate_standard_fragment
from guardasim.formula import parse_fo, std_translate
from guardasim.model import Model, load, random_model, save
from guardasim.syntax import Apply, Atom

from helpers import (
    random_preorder,
    sig_intuitionistic,
    sig_modal,
    sig_modal_intuitionistic,
    theta_of,
)
from oracles import intuitionistic_clause_largest, partition_refinement_bisim

CHAIN = load({
    "domain": ["a", "a2"],
    "relations": {"R1": [["a", "a2"]]},
    "predicates": {"P1": ["a2"]},
})
SINGLE = load({"domain": ["b"], "relations": {}, "predicates": {}})
EMPTY = CrossRelation(frozenset(), frozenset())


def rel(fwd=(), bwd=()):
    return CrossRelation(frozenset(fwd), frozenset(bwd))


class TestCrossRelation:
    def test_inverse_swaps_and_transposes(self):
        a = rel(fwd=[("a", "b")], bwd=[("c", "d")])
        inv = a.inverse()
        assert inv.fwd == frozenset({("d", "c")})
        assert inv.bwd == frozenset({("b", "a")})
        assert inv.inverse() == a

    def test_lattice_operations(self):
        a = rel(fwd=[("a", "b"), ("a2", "b")])
        b = rel(fwd=[("a", "b")], bwd=[("b", "a")])
        assert (a & b).fwd == frozenset({("a", "b")})
        assert (a | b).bwd == frozenset({("b", "a")})
        assert b.subset_of(a | b)

    def test_doc_round_trip_and_validation(self):
        a = rel(fwd=[("a", "b")], bwd=[("b", "a2")])
        doc = a.to_doc()
        assert relation_from_doc(doc, CHAIN, SINGLE) == a
        with pytest.raises(RelationError, match="unknown element"):
            relation_from_doc({"fwd": [["zz", "b"]], "bwd": []}, CHAIN, SINGLE)
        with pytest.raises(RelationError, match="unknown element"):
            relation_from_doc({"fwd": [], "bwd": [["a", "b"]]}, CHAIN, SINGLE)

    def test_json_text_is_the_dumped_document(self):
        cases = json_cases()
        forms = {(a._rows is None, a._rows is not None and asim._mirrored(a._rows), a.is_empty) for a in cases}
        assert len(forms) == 6
        # keys before, between and after "bwd" and "fwd", and one replacing "fwd"
        extras = [{}, {"verdict": "related"},
                  {"status": "no asimulation exists between these models for this fragment",
                   "verdict": "not related"},
                  {"a": 1, "c": [None, "\u00e9"], "z": {"y": True, "x": 0.5}}, {"fwd": "\U0001d4b3"}]
        for a in cases:
            doc = a.to_doc()
            for extra in extras:
                assert a.to_json(extra) == json.dumps({**doc, **extra}, sort_keys=True)


def solved_pairs():
    """(signature, theta, m1, m2, solve): self-pairs and independent pairs of
    preorders, where ``solve()`` returns a fresh largest asimulation, a
    relation that carries its rows."""
    cases = []
    for seed in range(4):
        m1 = random_preorder(5, ["P1"], 0.3, 0.2, seed)
        m2 = random_preorder(4, ["P1"], 0.3, 0.2, seed + 50)
        for name, sig in (("int", sig_intuitionistic()), ("mi", sig_modal_intuitionistic())):
            for kind, a, b in (("self", m1, m1), ("pair", m1, m2), ("swapped", m2, m1)):
                theta = theta_of(a, b)
                solve = lambda sig=sig, theta=theta, a=a, b=b: largest_asimulation(sig, theta, a, b)
                cases.append(pytest.param(sig, theta, a, b, solve, id=f"{name}-{kind}-{seed}"))
    return cases


def plain(a):
    """A frozenset-only copy of ``a``."""
    return CrossRelation(frozenset(a.fwd), frozenset(a.bwd))


class TestRowBackedRelation:
    """The relations this module returns carry rows over their two models;
    they must behave as the plain frozenset form with the same pairs."""

    @pytest.mark.parametrize("sig,theta,m1,m2,solve", solved_pairs())
    def test_equal_to_the_plain_form_in_both_orders(self, sig, theta, m1, m2, solve):
        p = plain(solve())
        assert solve() == p and p == solve() and not solve() != p
        assert hash(solve()) == hash(p) and solve() in {p} and p in {solve()}
        # both carry rows over the same models: the rows are compared, a
        # self-pair's mirrored rows against the document's two row lists
        assert solve() == solve() == relation_from_doc(p.to_doc(), m1, m2)
        for d in (FWD, BWD) if p.fwd and p.bwd else ():
            # one pair fewer, in one direction
            less = {FWD: p.fwd, BWD: p.bwd, d: p.pairs(d) - {min(p.pairs(d))}}
            smaller = CrossRelation(less[FWD], less[BWD])
            assert solve() != smaller and smaller != solve()
            read = relation_from_doc(smaller.to_doc(), m1, m2)
            assert read != solve() and read.subset_of(solve()) and not solve().subset_of(read)
            assert read.to_doc() == smaller.to_doc()

    @pytest.mark.parametrize("sig,theta,m1,m2,solve", solved_pairs())
    def test_lattice_operations_across_the_forms(self, sig, theta, m1, m2, solve):
        p = plain(solve())
        top = atom_preserving(m1, m2, theta)
        assert solve() & top == solve() and top & p == p and p & top == p
        assert solve() | top == top and p | top == top
        assert solve().inverse() == p.inverse() == plain(solve()).inverse()
        assert solve().subset_of(p) and p.subset_of(solve()) and solve().subset_of(solve())
        assert solve().subset_of(top) and p.subset_of(top)
        assert top.subset_of(solve()) == top.subset_of(p) == (top == p)

    @pytest.mark.parametrize("sig,theta,m1,m2,solve", solved_pairs())
    def test_lattice_operations_keep_to_rows(self, sig, theta, m1, m2, solve):
        # a self-pair's solve() and atom_preserving carry mirrored rows, a
        # document's rows never are; a random half of the full relation is
        # nested in neither
        rng = random.Random(len(m1) * 10 + len(m2))
        half = {d: [p for p in pairs if rng.random() < 0.5]
                for d, pairs in full_relation(m1, m2).to_doc().items()}
        forms = [solve(), atom_preserving(m1, m2, theta), relation_from_doc(half, m1, m2), solve().inverse()]
        c1 = load(save(m1))
        copy = largest_asimulation(sig, theta, c1, c1 if m2 is m1 else load(save(m2)))
        for x in forms:
            want = plain(x).inverse()
            got = x.inverse()
            assert got._rows is not None and got == want and want == got
            assert hash(got) == hash(want) and got.to_doc() == want.to_doc()
            for y in forms:
                for op in (operator.and_, operator.or_):
                    want = op(plain(x), plain(y))
                    got = op(x, y)
                    assert got._rows is not None and got == want and want == got
                    assert hash(got) == hash(want) and got.to_doc() == want.to_doc()
                    # one plain operand, or rows over other model objects
                    for mixed in (op(x, plain(y)), op(plain(x), y), op(x, copy), op(copy, y)):
                        assert mixed._rows is None
                    assert op(x, plain(y)) == op(plain(x), y) == want
                    assert op(x, copy) == op(plain(x), plain(copy))
                    assert op(copy, y).to_doc() == op(plain(copy), plain(y)).to_doc()

    @pytest.mark.parametrize("sig,theta,m1,m2,solve", solved_pairs())
    def test_equal_forms_hash_equal(self, sig, theta, m1, m2, solve):
        top = atom_preserving(m1, m2, theta)
        forms = [solve(), plain(solve()), relation_from_doc(solve().to_doc(), m1, m2),
                 solve().inverse().inverse(), solve() & top, plain(top) & solve()]
        assert all(f == forms[0] for f in forms)
        assert len({hash(f) for f in forms}) == 1

    def test_hashing_builds_no_pair_set(self, monkeypatch):
        # two benchmark models of 200 elements, whose pair sets take a
        # visible fraction of a second to build
        path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                            "perfbench", "workloads.py")
        spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
        workloads = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, workloads)
        spec.loader.exec_module(workloads)
        rng = random.Random(200)
        m1, m2 = (load(workloads.model_doc(rng, 200)) for _ in range(2))
        a = largest_asimulation(sig_modal_intuitionistic(), ["P1"], m1, m2)

        def refuse(*args):
            raise AssertionError("a pair set was built")

        monkeypatch.setattr(asim, "pair_set", refuse)
        got, held = hash(a), {a}
        monkeypatch.undo()
        assert a.count(FWD) and got == hash(plain(a)) and plain(a) in held

    @pytest.mark.parametrize("sig,theta,m1,m2,solve", solved_pairs())
    def test_counts_and_single_pairs_read_as_the_sets(self, sig, theta, m1, m2, solve):
        p = plain(solve())
        for a in (solve(), p):
            assert (a.count(FWD), a.count(BWD)) == (len(p.fwd), len(p.bwd))
            assert a.is_empty == (not p.fwd and not p.bwd)
            for x in (*m1.domain, "zz"):
                for y in (*m2.domain, "zz"):
                    assert a.relates(x, y) == ((x, y) in p.fwd)

    @pytest.mark.parametrize("sig,theta,m1,m2,solve", solved_pairs())
    def test_equal_models_that_are_distinct_objects(self, sig, theta, m1, m2, solve):
        c1 = load(save(m1))
        c2 = c1 if m2 is m1 else load(save(m2))
        a, b = solve(), largest_asimulation(sig, theta, c1, c2)
        assert c1 == m1 and c1 is not m1
        assert a == b and b == a and hash(a) == hash(b) and a.to_doc() == b.to_doc()
        assert a.subset_of(b) and b.subset_of(a)
        expected = is_asimulation(sig, theta, m1, m2, plain(a))
        assert is_asimulation(sig, theta, c1, c2, a) == is_asimulation(sig, theta, m1, m2, b) == expected
        # the same structures with their domains in another order
        r1 = Model(m1.domain[::-1], m1.relations, m1.predicates)
        r2 = r1 if m2 is m1 else Model(m2.domain[::-1], m2.relations, m2.predicates)
        assert is_asimulation(sig, theta, r1, r2, a) == expected
        assert largest_asimulation(sig, theta, r1, r2) == a

    @pytest.mark.parametrize("sig,theta,m1,m2,solve", solved_pairs())
    def test_readers_never_change_the_carried_rows(self, sig, theta, m1, m2, solve):
        a = solve()
        doc, p = a.to_doc(), plain(solve())
        assert is_asimulation(sig, theta, m1, m2, a) == is_asimulation(sig, theta, m1, m2, p)
        for mu in sig:
            assert connective_condition(mu, a, m1, m2) is True
            if mu.degree == 1:
                max_inner_target(mu, a, a, m1, m2)
        for expr in ("T", "p1", "~p1", "p1 -> p2"):
            core_candidate(classify(from_expr(expr)), a, m1, m2)
        assert invariance_check(parse_fo("P1(x)"), a, m1, m2) is None
        assert a.to_doc() == doc and a == p and plain(a) == p


# Names JSON escapes: a quote, a backslash, a non-ASCII letter, a non-BMP
# letter (a surrogate pair), control characters, and DEL (``\u007f``, as
# ``json.dumps`` writes it with its default ``ensure_ascii=True``).
ESCAPING = [load({"domain": ['a"b', "\u00e9", "\U0001d4b3", "\x01", "\t", "\x7f", "z\\"][:n],
                  "relations": {"R1": [['a"b', "\u00e9"], ["\x01", "\t"], ["\t", "\x7f"]][:n - 4]},
                  "predicates": {"P1": ["\u00e9", "\x7f"][:n - 5]}})
            for n in (7, 6)]


def json_cases():
    """Relations of every form ``to_json`` writes: solved self-pairs (mirrored
    rows) and pairs, names JSON escapes, row-backed empty ones, documents
    read into rows, and the plain frozenset form."""
    out = [solve() for _, _, _, _, solve in (case.values for case in solved_pairs())]
    for m1, m2 in ((ESCAPING[0], ESCAPING[0]), (ESCAPING[0], ESCAPING[1]), (ESCAPING[1], ESCAPING[0])):
        a = largest_asimulation(sig_modal_intuitionistic(), theta_of(m1, m2), m1, m2)
        out += [a, a.inverse(), relation_from_doc({}, m1, m2), relation_from_doc(plain(a).to_doc(), m1, m2)]
    return out + [EMPTY, rel(fwd=[("a", "b"), ("a", "a\u00e9")], bwd=[("b", '"')]), rel(bwd=[("\t", "x")])]


class TestOutsideElements:
    """A ``CrossRelation`` pair naming an element outside its model is
    refused with the document reader's wording, at every entry point."""

    OUTSIDE = rel(fwd=[("a", "zz")])
    MESSAGE = "fwd: unknown element 'zz'"

    def test_is_asimulation(self):
        with pytest.raises(RelationError) as caught:
            is_asimulation(sig_modal(), ["P1"], CHAIN, CHAIN, self.OUTSIDE)
        assert str(caught.value) == self.MESSAGE

    def test_connective_condition(self):
        with pytest.raises(RelationError) as caught:
            connective_condition(sig_modal().get("box"), self.OUTSIDE, CHAIN, CHAIN)
        assert str(caught.value) == self.MESSAGE

    def test_core_candidate(self):
        with pytest.raises(RelationError) as caught:
            core_candidate(classify(from_expr("~p1")), self.OUTSIDE, CHAIN, CHAIN)
        assert str(caught.value) == self.MESSAGE

    @pytest.mark.parametrize("spec", ["forall[R1]{ p1 }", "forall[R1]{ ~p1 | p2 }"])
    def test_max_inner_target(self, spec):
        # the plain connective reads a1 and the special one a_for_special
        with pytest.raises(RelationError) as caught:
            max_inner_target(parse_connective(spec), self.OUTSIDE, self.OUTSIDE, CHAIN, CHAIN)
        assert str(caught.value) == self.MESSAGE

    def test_invariance_check(self):
        with pytest.raises(RelationError) as caught:
            invariance_check(parse_fo("P1(x)"), self.OUTSIDE, CHAIN, CHAIN)
        assert str(caught.value) == self.MESSAGE

    def test_first_unknown_element_in_sorted_order(self):
        a = rel(fwd=[("a2", "a")], bwd=[("b", "a"), ("a2", "yy"), ("a", "xx")])
        with pytest.raises(RelationError) as caught:
            is_asimulation(sig_modal(), ["P1"], CHAIN, SINGLE, a)
        assert str(caught.value) == "fwd: unknown element 'a'"
        with pytest.raises(RelationError) as caught:
            is_asimulation(sig_modal(), ["P1"], CHAIN, SINGLE, rel(bwd=[("b", "a"), ("a", "a2"), ("b", "xx")]))
        assert str(caught.value) == "bwd: unknown element 'a'"


class TestAtomPreserving:
    def test_identical_single_worlds(self):
        m1 = load({"domain": ["u"], "relations": {}, "predicates": {"P1": ["u"]}})
        m2 = load({"domain": ["v"], "relations": {}, "predicates": {"P1": ["v"]}})
        ap = atom_preserving(m1, m2, ["P1"])
        assert ap.fwd == frozenset({("u", "v")}) and ap.bwd == frozenset({("v", "u")})

    def test_one_directional(self):
        m1 = load({"domain": ["a"], "relations": {}, "predicates": {"P1": ["a"]}})
        m2 = load({"domain": ["b"], "relations": {}, "predicates": {}})
        ap = atom_preserving(m1, m2, ["P1"])
        assert ("a", "b") not in ap.fwd
        assert ("b", "a") in ap.bwd

    def test_empty_theta_gives_full(self):
        ap = atom_preserving(CHAIN, SINGLE, [])
        assert ap == full_relation(CHAIN, SINGLE)


class TestCoreCandidate:
    def test_four_branches(self):
        a = rel(fwd=[("a", "b")])
        assert core_candidate(classify(from_expr("p1 & p2")), a, CHAIN, SINGLE) == a
        assert core_candidate(classify(from_expr("~p1")), a, CHAIN, SINGLE) == a.inverse()
        sym = a | a.inverse()
        assert core_candidate(classify(from_expr("p1 -> p2")), sym, CHAIN, SINGLE) == sym
        assert core_candidate(classify(from_expr("T")), EMPTY, CHAIN, SINGLE) == full_relation(
            CHAIN, SINGLE
        )


class TestConditionSchemata:
    def test_empty_outer_vacuous(self):
        target = full_relation(CHAIN, SINGLE)
        for holds in (back_holds, forth_holds):
            assert holds(EMPTY, target, ("R1",), CHAIN, SINGLE) is True
        for holds in (sback_holds, sforth_holds):
            assert holds(EMPTY, target, ("R1",), CHAIN, SINGLE) is True

    def test_back_violation_carries_witness_path(self):
        # Partner side (second model) moves, carrier side is stuck.
        m2 = load({"domain": ["b", "b2"], "relations": {"R1": [["b", "b2"]]}, "predicates": {}})
        m1 = load({"domain": ["a"], "relations": {}, "predicates": {}})
        outer = rel(fwd=[("a", "b")])
        got = back_holds(outer, full_relation(m1, m2), ("R1",), m1, m2)
        assert isinstance(got, ViolationReport)
        assert got.condition == "back" and got.pair == ("a", "b") and got.direction == "fwd"
        assert got.path == ("b", "b2")

    def test_back_satisfied_with_full_target(self):
        m2 = load({"domain": ["b", "b2"], "relations": {"R1": [["b", "b2"]]}, "predicates": {}})
        outer = rel(fwd=[("a", "b")])
        assert back_holds(outer, full_relation(CHAIN, m2), ("R1",), CHAIN, m2) is True

    def test_forth_violation_when_partner_stuck(self):
        outer = rel(fwd=[("a", "b")])
        got = forth_holds(outer, full_relation(CHAIN, SINGLE), ("R1",), CHAIN, SINGLE)
        assert isinstance(got, ViolationReport)
        assert got.condition == "forth" and got.path == ("a", "a2")

    def test_forth_on_complete_graphs(self):
        m1 = load({"domain": ["u", "v"], "relations": {"R1": [["u", "u"], ["u", "v"], ["v", "u"], ["v", "v"]]}, "predicates": {}})
        m2 = load({"domain": ["w"], "relations": {"R1": [["w", "w"]]}, "predicates": {}})
        outer = full_relation(m1, m2)
        assert forth_holds(outer, outer, ("R1",), m1, m2) is True

    def test_symmetric_target_collapses_two_witness_conditions(self):
        m1 = load({"domain": ["x", "x2"], "relations": {"R1": [["x", "x2"]]}, "predicates": {}})
        m2 = load({"domain": ["y", "y2"], "relations": {"R1": [["y", "y2"]]}, "predicates": {}})
        outer = rel(fwd=[("x", "y")])
        symmetric = rel(fwd=[("x2", "y2")], bwd=[("y2", "x2")])
        assert back_holds(outer, symmetric, ("R1",), m1, m2) is True
        assert sback_holds(outer, symmetric, ("R1",), m1, m2) is True

    def test_sback_second_witness_failure_reported(self):
        m1 = load({"domain": ["x", "x2"], "relations": {"R1": [["x", "x2"]]}, "predicates": {}})
        m2 = load({"domain": ["y", "y2"], "relations": {"R1": [["y", "y2"]]}, "predicates": {}})
        outer = rel(fwd=[("x", "y")])
        one_way = rel(fwd=[("x2", "y2")])  # no bwd pair relating y2 back
        got = sback_holds(outer, one_way, ("R1",), m1, m2)
        assert isinstance(got, ViolationReport)
        assert got.condition == "s-back"
        assert "from the endpoint" in got.detail

    def test_sforth_mirrors(self):
        m1 = load({"domain": ["x", "x2"], "relations": {"R1": [["x", "x2"]]}, "predicates": {}})
        m2 = load({"domain": ["y", "y2"], "relations": {"R1": [["y", "y2"]]}, "predicates": {}})
        outer = rel(fwd=[("x", "y")])
        one_way = rel(fwd=[("x2", "y2")])
        got = sforth_holds(outer, one_way, ("R1",), m1, m2)
        assert isinstance(got, ViolationReport)
        assert got.condition == "s-forth"
        both = rel(fwd=[("x2", "y2")], bwd=[("y2", "x2")])
        assert sforth_holds(outer, both, ("R1",), m1, m2) is True

    def test_monotone_in_target(self):
        rng = random.Random(3)
        for trial in range(30):
            m1 = random_model(rng.randint(1, 4), ["R1"], [], 0.4, 0.0, 100 + trial)
            m2 = random_model(rng.randint(1, 4), ["R1"], [], 0.4, 0.0, 200 + trial)
            univ = full_relation(m1, m2)
            small = rel(
                fwd=[p for p in sorted(univ.fwd) if rng.random() < 0.4],
                bwd=[p for p in sorted(univ.bwd) if rng.random() < 0.4],
            )
            big = small | rel(
                fwd=[p for p in sorted(univ.fwd) if rng.random() < 0.4],
                bwd=[p for p in sorted(univ.bwd) if rng.random() < 0.4],
            )
            outer = rel(fwd=[p for p in sorted(univ.fwd) if rng.random() < 0.3])
            for holds in (back_holds, forth_holds, sback_holds, sforth_holds):
                if holds(outer, small, ("R1",), m1, m2) is True:
                    assert holds(outer, big, ("R1",), m1, m2) is True


class TestMaxInnerTarget:
    def test_full_target_requires_matching_moves(self):
        some = parse_connective("exists[R1]{ p1 }", "some")
        m1 = load({"domain": ["a", "b", "c"], "relations": {"R1": [["a", "b"], ["b", "c"]]}, "predicates": {}})
        m2 = load({"domain": ["u", "v"], "relations": {"R1": [["u", "v"]]}, "predicates": {}})
        full = full_relation(m1, m2)
        x = max_inner_target(some, full, full, m1, m2)
        # Forward: a pair survives iff a carrier move implies a partner move.
        assert ("a", "u") in x.fwd       # a moves, u moves
        assert ("a", "v") not in x.fwd   # a moves, v is stuck
        assert ("c", "v") in x.fwd       # c is stuck, vacuous
        assert ("u", "c") not in x.bwd   # u moves, c is stuck

    def test_empty_target_excludes_moving_sources(self):
        some = parse_connective("exists[R1]{ p1 }", "some")
        m1 = load({"domain": ["a", "b"], "relations": {"R1": [["a", "b"]]}, "predicates": {}})
        m2 = load({"domain": ["u"], "relations": {"R1": [["u", "u"]]}, "predicates": {}})
        x = max_inner_target(some, EMPTY, EMPTY, m1, m2)
        assert ("a", "u") not in x.fwd and ("u", "a") not in x.bwd
        assert ("b", "u") in x.fwd  # b cannot move, condition vacuous

    def test_no_edges_gives_full(self):
        some = parse_connective("exists[R1]{ p1 }", "some")
        m1 = load({"domain": ["a"], "relations": {}, "predicates": {}})
        m2 = load({"domain": ["u"], "relations": {}, "predicates": {}})
        assert max_inner_target(some, EMPTY, EMPTY, m1, m2) == full_relation(m1, m2)


class TestConnectiveCondition:
    def test_degree0_monotone_always_holds(self):
        conj = parse_connective("{ p1 & p2 }", "and")
        assert connective_condition(conj, rel(fwd=[("a", "b")]), CHAIN, SINGLE) is True

    def test_degree0_negation_needs_symmetry(self):
        neg = parse_connective("{ ~p1 }", "not")
        asym = rel(fwd=[("a", "b")])
        got = connective_condition(neg, asym, CHAIN, SINGLE)
        assert isinstance(got, ViolationReport)
        assert got.condition == "degree0" and got.pair == ("a", "b")
        sym = asym | asym.inverse()
        assert connective_condition(neg, sym, CHAIN, SINGLE) is True

    def test_guarded_implication_matches_hand_coded_clause(self):
        lam5 = parse_connective("forall[R1]{ ~p1 | p2 }", "lambda5")
        rng = random.Random(17)
        for trial in range(40):
            m1 = random_preorder(rng.randint(1, 4), ["P1"], 0.4, 0.5, 300 + trial)
            m2 = random_preorder(rng.randint(1, 4), ["P1"], 0.4, 0.5, 400 + trial)
            univ = full_relation(m1, m2)
            a = rel(
                fwd=[p for p in sorted(univ.fwd) if rng.random() < 0.5],
                bwd=[p for p in sorted(univ.bwd) if rng.random() < 0.5],
            )
            got = connective_condition(lam5, a, m1, m2)
            # Hand-coded: each partner-side move needs a carrier-side move to a
            # two-way related endpoint.
            def clause(pairs, mx, my, d):
                for (x, y) in pairs:
                    for y2 in my.successors("R1", y):
                        if not any(
                            (x2, y2) in a.pairs(d) and (y2, x2) in a.pairs("bwd" if d == "fwd" else "fwd")
                            for x2 in mx.successors("R1", x)
                        ):
                            return False
                return True
            want = clause(a.fwd, m1, m2, "fwd") and clause(a.bwd, m2, m1, "bwd")
            assert (got is True) == want, trial

    def test_degree3_rejected(self):
        deep = parse_connective("forall[R1] exists[R2] forall[R3]{ p1 }", "deep")
        with pytest.raises(NonStandardFragmentError):
            connective_condition(deep, EMPTY, CHAIN, SINGLE)

    def test_nonstandard_degree2_rejected_when_strict(self):
        odd = parse_connective("exists[R2] forall[R1]{ ~p1 | p2 }", "odd")
        with pytest.raises(NonStandardFragmentError):
            connective_condition(odd, EMPTY, CHAIN, SINGLE, strict=True)
        assert connective_condition(odd, EMPTY, CHAIN, SINGLE, strict=False) is True


class TestIsAsimulation:
    def test_identity_between_isomorphic_models(self):
        m1 = load({"domain": ["u"], "relations": {"R1": [["u", "u"]]}, "predicates": {"P1": ["u"]}})
        m2 = load({"domain": ["v"], "relations": {"R1": [["v", "v"]]}, "predicates": {"P1": ["v"]}})
        a = rel(fwd=[("u", "v")], bwd=[("v", "u")])
        assert is_asimulation(sig_modal(), ["P1"], m1, m2, a) == []

    def test_empty_relation_is_its_own_violation(self):
        reports = is_asimulation(sig_modal(), ["P1"], CHAIN, SINGLE, EMPTY)
        assert len(reports) == 1 and reports[0].condition == "empty"

    def test_atom_breaking_pair_reported(self):
        a = rel(fwd=[("a2", "b")], bwd=[("b", "a2")])
        reports = is_asimulation(sig_modal(), ["P1"], CHAIN, SINGLE, a)
        atoms = [r for r in reports if r.condition == "atom"]
        assert atoms and atoms[0].pair == ("a2", "b") and "P1" in atoms[0].detail

    def test_report_serialization_is_stable(self):
        reports = is_asimulation(sig_modal(), ["P1"], CHAIN, SINGLE, EMPTY)
        doc = reports[0].to_doc()
        assert set(doc) == {"connective", "condition", "pair", "direction", "path", "detail"}


class TestLargestAsimulation:
    def test_isomorphic_single_worlds(self):
        m1 = load({"domain": ["u"], "relations": {}, "predicates": {"P1": ["u"]}})
        m2 = load({"domain": ["v"], "relations": {}, "predicates": {"P1": ["v"]}})
        out = largest_asimulation(sig_modal(), ["P1"], m1, m2)
        assert out.fwd == frozenset({("u", "v")}) and out.bwd == frozenset({("v", "u")})

    def test_observable_move_excludes_pair(self):
        out = largest_asimulation(sig_modal(), ["P1"], CHAIN, SINGLE)
        assert ("a", "b") not in out.fwd

    def test_asymmetric_without_negation(self):
        m1 = load({"domain": ["u"], "relations": {}, "predicates": {}})
        m2 = load({"domain": ["v"], "relations": {}, "predicates": {"P1": ["v"]}})
        out = largest_asimulation(sig_intuitionistic(), ["P1"], m1, m2)
        assert ("u", "v") in out.fwd and ("v", "u") not in out.bwd

    def test_agrees_with_bisimilarity_oracle(self):
        rng = random.Random(23)
        for trial in range(10):
            m1 = random_model(rng.randint(1, 6), ["R1"], ["P1"], 0.35, 0.5, 500 + trial)
            m2 = random_model(rng.randint(1, 6), ["R1"], ["P1"], 0.35, 0.5, 600 + trial)
            theta = theta_of(m1, m2)
            out = largest_asimulation(sig_modal(), theta, m1, m2)
            assert out.fwd == partition_refinement_bisim(m1, m2, theta)
            assert out.bwd == frozenset((b, a) for (a, b) in out.fwd)

    def test_sweeps_agree_with_bisimilarity_oracle(self):
        # The solver computes the modal result by partition refinement, so
        # the test above compares refinement with refinement; here the
        # sweeps, which every other fragment takes, meet the oracle.
        rng = random.Random(37)
        conds = [cond for _, cond in asim._conditions(sig_modal(), True)]
        for trial in range(30):
            m1 = random_model(rng.randint(1, 8), ["R1"], ["P1"], 0.35, 0.5, 900 + trial)
            m2 = m1 if trial % 3 == 0 else random_model(rng.randint(1, 8), ["R1"], ["P1"], 0.35, 0.5, 1000 + trial)
            theta = theta_of(m1, m2)
            out = asim._relation(asim._sweeps(conds, theta, m1, m2), m1, m2)
            assert out.fwd == partition_refinement_bisim(m1, m2, theta)
            assert out.bwd == frozenset((b, a) for (a, b) in out.fwd)

    def test_agrees_with_preorder_oracle(self):
        rng = random.Random(29)
        for trial in range(10):
            m1 = random_preorder(rng.randint(1, 5), ["P1", "P2"], 0.3, 0.5, 700 + trial)
            m2 = random_preorder(rng.randint(1, 5), ["P1", "P2"], 0.3, 0.5, 800 + trial)
            theta = theta_of(m1, m2)
            assert largest_asimulation(sig_intuitionistic(), theta, m1, m2) == intuitionistic_clause_largest(
                m1, m2, theta
            )

    def test_result_passes_checker_and_dominates_accepted_relations(self):
        rng = random.Random(31)
        sig = sig_modal()
        for trial in range(10):
            m1 = random_model(rng.randint(1, 5), ["R1"], ["P1"], 0.35, 0.6, 900 + trial)
            m2 = random_model(rng.randint(1, 5), ["R1"], ["P1"], 0.35, 0.6, 950 + trial)
            theta = theta_of(m1, m2)
            big = largest_asimulation(sig, theta, m1, m2)
            if not big.is_empty:
                assert is_asimulation(sig, theta, m1, m2, big) == []
            sub = rel(
                fwd=[p for p in sorted(big.fwd) if rng.random() < 0.6],
                bwd=[p for p in sorted(big.bwd) if rng.random() < 0.6],
            )
            if not sub.is_empty and not is_asimulation(sig, theta, m1, m2, sub):
                assert sub.subset_of(big)


class TestInvariance:
    def test_translated_fragment_formula_invariant_under_largest(self):
        sig = sig_modal()
        m1 = load({
            "domain": ["u", "u2"],
            "relations": {"R1": [["u", "u2"], ["u2", "u2"]]},
            "predicates": {"P1": ["u2"]},
        })
        m2 = load({
            "domain": ["v", "v2"],
            "relations": {"R1": [["v", "v2"], ["v2", "v2"]]},
            "predicates": {"P1": ["v2"]},
        })
        big = largest_asimulation(sig, ["P1"], m1, m2)
        assert not big.is_empty
        phi = std_translate(Apply("box", (Apply("dia", (Atom("P1"),)),)), "x", sig)
        assert invariance_check(phi, big, m1, m2) is None

    def test_bottom_invariant_under_anything(self):
        assert invariance_check(parse_fo("F"), full_relation(CHAIN, SINGLE), CHAIN, SINGLE) is None

    def test_negated_atom_counterexample(self):
        m1 = load({"domain": ["a"], "relations": {}, "predicates": {}})
        m2 = load({"domain": ["b"], "relations": {}, "predicates": {"P1": ["b"]}})
        a = rel(fwd=[("a", "b")], bwd=[("b", "a")])
        got = invariance_check(parse_fo("~P1(x)"), a, m1, m2)
        assert got == (("a", "b"), "fwd")


class TestPreservation:
    def test_depth_zero_is_atom_preservation(self):
        sig = sig_modal()
        theta = theta_of(CHAIN, SINGLE)
        assert preservation_relation(sig, theta, CHAIN, SINGLE, 0) == atom_preserving(
            CHAIN, SINGLE, theta
        )

    def test_antitone_in_depth(self):
        sig = sig_modal()
        theta = theta_of(CHAIN, SINGLE)
        prev = preservation_relation(sig, theta, CHAIN, SINGLE, 0)
        for d in range(1, 4):
            cur = preservation_relation(sig, theta, CHAIN, SINGLE, d)
            assert cur.subset_of(prev)
            prev = cur

    def test_sandwich_covers_rest_core_degree2(self):
        # Degree-2 connectives whose inner block carries a rest core take the
        # two-witness inner condition; the preservation preorder must still
        # collapse onto the fixpoint.
        sig = FragmentSignature.from_dict({"connectives": {
            "ae_imp": "forall[R2] exists[R1]{ ~p1 | p2 }",
            "ea_butnot": "exists[R2] forall[R1]{ p2 & ~p1 }",
            "ae_neg": "forall[R1] exists[R2]{ ~p1 }",
        }})
        assert validate_standard_fragment(sig) == []
        rng = random.Random(41)
        hits = 0
        for trial in range(15):
            m1 = random_model(rng.randint(1, 4), ["R1", "R2"], ["P1", "P2"], 0.35, 0.5, 1300 + trial)
            m2 = random_model(rng.randint(1, 4), ["R1", "R2"], ["P1", "P2"], 0.35, 0.5, 1400 + trial)
            theta = theta_of(m1, m2)
            big = largest_asimulation(sig, theta, m1, m2)
            if not big.is_empty:
                assert is_asimulation(sig, theta, m1, m2, big) == []
            hit = None
            for d in range(7):
                pres = preservation_relation(sig, theta, m1, m2, d)
                assert big.subset_of(pres), (trial, d)
                if pres == big:
                    hit = d
                    break
            assert hit is not None, trial
            hits += 1
        assert hits == 15

    def test_sandwich_on_small_instance(self):
        sig = sig_modal_intuitionistic()
        m1 = load({
            "domain": ["u", "u2"],
            "relations": {"R1": [["u", "u2"]], "R3": [["u2", "u"]]},
            "predicates": {"P1": ["u2"]},
        })
        m2 = load({
            "domain": ["v"],
            "relations": {"R1": [["v", "v"]], "R3": [["v", "v"]]},
            "predicates": {"P1": ["v"]},
        })
        theta = theta_of(m1, m2)
        big = largest_asimulation(sig, theta, m1, m2)
        hit = None
        for d in range(7):
            pres = preservation_relation(sig, theta, m1, m2, d)
            assert big.subset_of(pres)
            if pres == big:
                hit = d
                break
        assert hit is not None


class TestCoreCandidateKind:
    def test_one_kind_per_class(self):
        from guardasim.asim import CoreCandidateKind, core_candidate_kind

        want = {
            "T": CoreCandidateKind.FULL,
            "p1 & p2": CoreCandidateKind.SAME,
            "~p1": CoreCandidateKind.INVERSE,
            "p1 -> p2": CoreCandidateKind.SYMMETRIC_PART,
        }
        for expr, kind in want.items():
            assert core_candidate_kind(classify(from_expr(expr))) is kind


class TestExistentialCollapse:
    """The solver replaces the definition's existential over inner relations
    with maximal candidates; on tiny models the honest enumeration must agree
    relation by relation."""

    def check_sig(self, sig, sizes, seeds, rel_symbols):
        from oracles import _all_relations, brute_definition_accepts

        for (n1, n2), seed in zip(sizes, seeds):
            m1 = random_model(n1, rel_symbols, ["P1"], 0.5, 0.5, seed)
            m2 = random_model(n2, rel_symbols, ["P1"], 0.5, 0.5, seed + 1)
            theta = theta_of(m1, m2)
            universe = _all_relations(m1, m2)
            accepted = []
            for candidate in universe:
                brute = brute_definition_accepts(sig, theta, m1, m2, candidate, universe)
                fast = (
                    not candidate.is_empty
                    and is_asimulation(sig, theta, m1, m2, candidate) == []
                )
                assert brute == fast, (seed, candidate.to_doc())
                if fast:
                    accepted.append(candidate)
            union = CrossRelation(frozenset(), frozenset())
            for acc in accepted:
                union = union | acc
            assert union == largest_asimulation(sig, theta, m1, m2), seed

    def test_flat_signatures_on_2x2_models(self):
        self.check_sig(sig_modal(), [(2, 2), (2, 2)], [1201, 1207], ["R1"])
        self.check_sig(sig_intuitionistic(), [(2, 2), (2, 2)], [1301, 1307], ["R1"])

    def test_degree2_signatures_on_2x1_models(self):
        sig = sig_modal_intuitionistic()
        self.check_sig(sig, [(2, 1), (1, 2), (2, 1)], [1401, 1403, 1409], ["R1", "R2", "R3"])

    def test_degree2_signature_on_2x2_models(self):
        # Seeds picked for non-trivial acceptance sets (15, 7 and 4 accepted
        # relations out of 256 candidates respectively).
        sig = sig_modal_intuitionistic()
        self.check_sig(sig, [(2, 2), (2, 2), (2, 2)], [1618, 1638, 1656], ["R1", "R2", "R3"])

    def test_rest_core_degree2_on_2x1_models(self):
        sig = FragmentSignature.from_dict({"connectives": {
            "ae_imp": "forall[R2] exists[R1]{ ~p1 | p2 }",
            "ea_butnot": "exists[R2] forall[R1]{ p2 & ~p1 }",
        }})
        self.check_sig(sig, [(2, 1), (1, 2), (2, 1)], [1501, 1503, 1509], ["R1", "R2"])


class TestMultiGuardSpecial:
    def test_two_step_guard_special_connective(self):
        # Special connective over a two-relation path: both witnesses must
        # follow the full chain.
        mu = parse_connective("forall[R1,R2]{ p2 & ~p1 }", "deep_guard")
        assert classify_connective_is_special(mu)
        m1 = load({
            "domain": ["x", "m", "x2"],
            "relations": {"R1": [["x", "m"]], "R2": [["m", "x2"]]},
            "predicates": {},
        })
        m2 = load({
            "domain": ["y", "n", "y2"],
            "relations": {"R1": [["y", "n"]], "R2": [["n", "y2"]]},
            "predicates": {},
        })
        outer = rel(fwd=[("x", "y")])
        both_ways = rel(fwd=[("x2", "y2")], bwd=[("y2", "x2")])
        assert sback_holds(outer, both_ways, ("R1", "R2"), m1, m2) is True
        one_way = rel(fwd=[("x2", "y2")])
        got = sback_holds(outer, one_way, ("R1", "R2"), m1, m2)
        assert isinstance(got, ViolationReport)
        assert got.path == ("y", "n", "y2")
        # Break the chain in the carrier model: the first witness disappears.
        m1_broken = load({
            "domain": ["x", "m", "x2"],
            "relations": {"R1": [["x", "m"]]},
            "predicates": {},
        })
        got2 = sback_holds(outer, both_ways, ("R1", "R2"), m1_broken, m2)
        assert isinstance(got2, ViolationReport)
        assert "to the endpoint" in got2.detail


def classify_connective_is_special(mu):
    from guardasim.connective import classify_connective

    return classify_connective(mu).is_special


def test_preservation_budget_exhaustion_is_distinct():
    import pytest as _pytest

    from guardasim.formula import BudgetExceeded

    sig = sig_modal()
    m1 = load({"domain": ["a", "a2"], "relations": {"R1": [["a", "a2"]]},
               "predicates": {"P1": ["a2"], "P2": ["a"]}})
    with _pytest.raises(BudgetExceeded):
        preservation_relation(sig, ["P1", "P2"], m1, m1, 4, budget=2)
