"""Cross relations, condition schemata, asimulation checking and solving."""

import ast
import importlib.util
import inspect
import itertools
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
    connective_condition,
    full_relation,
    invariance_check,
    is_asimulation,
    largest_asimulation,
    preservation_relation,
    relation_from_doc,
)
from guardasim.boolfn import classify, from_expr
from guardasim.connective import FragmentSignature, parse_connective, validate_standard_fragment
from guardasim.formula import class_vectors, parse_fo, std_translate
from guardasim.model import Model, load, random_model, save
from guardasim.syntax import Apply, Atom

import reference_asim
from helpers import (
    ALL_SIGS,
    random_preorder,
    sig_intuitionistic,
    sig_modal,
    sig_modal_intuitionistic,
    theta_of,
)
from oracles import intuitionistic_clause_largest, partition_refinement_bisim
from test_asim_differential import RELATIONS, SIGNATURES, random_relation

CHAIN = load({
    "domain": ["a", "a2"],
    "relations": {"R1": [["a", "a2"]]},
    "predicates": {"P1": ["a2"]},
})
SINGLE = load({"domain": ["b"], "relations": {}, "predicates": {}})
# Every model over R1 and P1 with one or two elements: 4 + 64.
TINY = [
    load({"domain": domain,
          "relations": {"R1": [pair for k, pair in enumerate(itertools.product(domain, repeat=2)) if r >> k & 1]},
          "predicates": {"P1": [w for k, w in enumerate(domain) if p >> k & 1]}})
    for domain in (["a"], ["a", "b"]) for r in range(1 << len(domain) ** 2) for p in range(1 << len(domain))
]
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
    MESSAGE = "fwd[0]: unknown element 'zz'"

    def test_is_asimulation(self):
        with pytest.raises(RelationError) as caught:
            is_asimulation(sig_modal(), ["P1"], CHAIN, CHAIN, self.OUTSIDE)
        assert str(caught.value) == self.MESSAGE

    def test_connective_condition(self):
        # a plain, a special and a degree-2 connective
        for spec in ("forall[R1]{ p1 }", "forall[R1]{ p2 & ~p1 }", "forall[R2] exists[R1]{ p1 }"):
            with pytest.raises(RelationError) as caught:
                connective_condition(parse_connective(spec), self.OUTSIDE, CHAIN, CHAIN)
            assert str(caught.value) == self.MESSAGE, spec

    def test_invariance_check(self):
        with pytest.raises(RelationError) as caught:
            invariance_check(parse_fo("P1(x)"), self.OUTSIDE, CHAIN, CHAIN)
        assert str(caught.value) == self.MESSAGE

    def test_first_unknown_element_in_sorted_order(self):
        a = rel(fwd=[("a2", "a")], bwd=[("b", "a"), ("a2", "yy"), ("a", "xx")])
        with pytest.raises(RelationError) as caught:
            is_asimulation(sig_modal(), ["P1"], CHAIN, SINGLE, a)
        assert str(caught.value) == "fwd[0]: unknown element 'a'"
        with pytest.raises(RelationError) as caught:
            is_asimulation(sig_modal(), ["P1"], CHAIN, SINGLE, rel(bwd=[("b", "a"), ("a", "a2"), ("b", "xx")]))
        assert str(caught.value) == "bwd[0]: unknown element 'a'"
        with pytest.raises(RelationError) as caught:
            is_asimulation(sig_modal(), ["P1"], CHAIN, SINGLE, rel(fwd=[("a2", "b"), ("a", "b")], bwd=[("b", "zz")]))
        assert str(caught.value) == "bwd[0]: unknown element 'zz'"

    def test_malformed_pair_refused_at_every_entry_point(self):
        # the pair's place is counted in sorted order, so ("a", "b", "c")
        # comes second, after ("a", "a2")
        bad = rel(fwd=[("a", "a2"), ("a", "b", "c")])
        message = "fwd[1]: expected a pair of element names"
        calls = [
            lambda: is_asimulation(sig_modal(), ["P1"], CHAIN, CHAIN, bad),
            lambda: connective_condition(parse_connective("forall[R1]{ p1 }"), bad, CHAIN, CHAIN),
            lambda: invariance_check(parse_fo("P1(x)"), bad, CHAIN, CHAIN),
        ]
        for call in calls:
            with pytest.raises(RelationError) as caught:
                call()
            assert str(caught.value) == message

    def test_mixed_name_types_refused_at_every_entry_point(self):
        # an int name beside str names that does not sort, in either direction
        for bad in (rel(fwd=[(1, "a2"), ("a", "a2")]), rel(bwd=[("a", 2), ("a", "a2")])):
            calls = [
                lambda: is_asimulation(sig_modal(), ["P1"], CHAIN, CHAIN, bad),
                lambda: connective_condition(parse_connective("forall[R1]{ p1 }"), bad, CHAIN, CHAIN),
                lambda: invariance_check(parse_fo("P1(x)"), bad, CHAIN, CHAIN),
            ]
            for call in calls:
                with pytest.raises(RelationError) as caught:
                    call()
                assert str(caught.value) == "relation: expected a pair of element names"

    def test_mirrored_pair_set_reads_like_its_document_and_rows(self):
        # A self-pair relation with equal directions is read once, mirrored,
        # and reports what its document and its row relation report.
        rng = random.Random(61)
        seen = 0
        for trial in range(12):
            m = random_model(rng.randint(1, 6), ["R1", "R2"], ["P1", "P2"], 0.35, 0.5, 1300 + trial)
            theta = theta_of(m, m)
            pairs = [(x, y) for x in m.domain for y in m.domain if rng.random() < 0.6]
            a = rel(fwd=pairs, bwd=pairs)
            doc = a.to_doc()
            rows = relation_from_doc(doc, m, m)
            assert doc[FWD] == doc[BWD] and asim._mirrored(asim._read(a, m, m)[0])
            for sig in (sig_modal(), sig_modal_intuitionistic()):
                got = is_asimulation(sig, theta, m, m, a)
                assert got == is_asimulation(sig, theta, m, m, doc) == is_asimulation(sig, theta, m, m, rows)
                seen += bool(got)
                for mu in sig:
                    assert connective_condition(mu, a, m, m) == connective_condition(mu, rows, m, m)
        assert seen


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
        # Along the empty guard chain a pair must lie in the relation its
        # core admits: any relation under a constant or monotone core, and
        # under an anti-monotone or rest core one holding each pair's mirror.
        a = rel(fwd=[("a", "b")])
        sym = a | a.inverse()
        for spec in ("{ p1 & p2 }", "{ T }"):
            for r in (EMPTY, a, sym, full_relation(CHAIN, SINGLE)):
                assert connective_condition(parse_connective(spec), r, CHAIN, SINGLE) is True
        for spec in ("{ ~p1 }", "{ p1 -> p2 }"):
            mu = parse_connective(spec)
            got = connective_condition(mu, a, CHAIN, SINGLE)
            assert isinstance(got, ViolationReport)
            assert got.condition == "degree0" and got.pair == ("a", "b") and got.direction == FWD
            assert connective_condition(mu, sym, CHAIN, SINGLE) is True


class TestConditionSchemata:
    """One connective's condition on a relation that is also its witness:
    back and forth matching along R1, with the relation and its inverse as
    two witnesses for the special connectives."""

    BOX = parse_connective("forall[R1]{ p1 }", "box")
    DIA = parse_connective("exists[R1]{ p1 }", "dia")
    BUTNOT = parse_connective("forall[R1]{ p2 & ~p1 }", "butnot")  # s-back
    EX_IMP = parse_connective("exists[R1]{ ~p1 | p2 }", "ex_imp")  # s-forth

    def test_empty_outer_vacuous(self):
        for mu in (self.BOX, self.DIA, self.BUTNOT, self.EX_IMP):
            assert connective_condition(mu, EMPTY, CHAIN, SINGLE) is True

    def test_back_violation_carries_witness_path(self):
        # Partner side (second model) moves, carrier side is stuck.
        m2 = load({"domain": ["b", "b2"], "relations": {"R1": [["b", "b2"]]}, "predicates": {}})
        m1 = load({"domain": ["a"], "relations": {}, "predicates": {}})
        got = connective_condition(self.BOX, rel(fwd=[("a", "b")]), m1, m2)
        assert isinstance(got, ViolationReport)
        assert got.condition == "back" and got.pair == ("a", "b") and got.direction == "fwd"
        assert got.path == ("b", "b2")

    def test_back_satisfied_with_full_target(self):
        # the partner's move is matched by the carrier's, to a related pair
        m2 = load({"domain": ["b", "b2"], "relations": {"R1": [["b", "b2"]]}, "predicates": {}})
        a = rel(fwd=[("a", "b"), ("a2", "b2")])
        assert connective_condition(self.BOX, a, CHAIN, m2) is True

    def test_forth_violation_when_partner_stuck(self):
        got = connective_condition(self.DIA, rel(fwd=[("a", "b")]), CHAIN, SINGLE)
        assert isinstance(got, ViolationReport)
        assert got.condition == "forth" and got.path == ("a", "a2")

    def test_forth_on_complete_graphs(self):
        m1 = load({"domain": ["u", "v"], "relations": {"R1": [["u", "u"], ["u", "v"], ["v", "u"], ["v", "v"]]}, "predicates": {}})
        m2 = load({"domain": ["w"], "relations": {"R1": [["w", "w"]]}, "predicates": {}})
        assert connective_condition(self.DIA, full_relation(m1, m2), m1, m2) is True

    def test_symmetric_target_collapses_two_witness_conditions(self):
        m1 = load({"domain": ["x", "x2"], "relations": {"R1": [["x", "x2"]]}, "predicates": {}})
        m2 = load({"domain": ["y", "y2"], "relations": {"R1": [["y", "y2"]]}, "predicates": {}})
        a = rel(fwd=[("x", "y"), ("x2", "y2")], bwd=[("y2", "x2")])
        assert connective_condition(self.BOX, a, m1, m2) is True
        assert connective_condition(self.BUTNOT, a, m1, m2) is True

    def test_sback_second_witness_failure_reported(self):
        m1 = load({"domain": ["x", "x2"], "relations": {"R1": [["x", "x2"]]}, "predicates": {}})
        m2 = load({"domain": ["y", "y2"], "relations": {"R1": [["y", "y2"]]}, "predicates": {}})
        one_way = rel(fwd=[("x", "y"), ("x2", "y2")])  # no bwd pair relating y2 back
        got = connective_condition(self.BUTNOT, one_way, m1, m2)
        assert isinstance(got, ViolationReport)
        assert got.condition == "s-back"
        assert "from the endpoint" in got.detail

    def test_sforth_mirrors(self):
        m1 = load({"domain": ["x", "x2"], "relations": {"R1": [["x", "x2"]]}, "predicates": {}})
        m2 = load({"domain": ["y", "y2"], "relations": {"R1": [["y", "y2"]]}, "predicates": {}})
        one_way = rel(fwd=[("x", "y"), ("x2", "y2")])
        got = connective_condition(self.EX_IMP, one_way, m1, m2)
        assert isinstance(got, ViolationReport)
        assert got.condition == "s-forth"
        both = rel(fwd=[("x", "y"), ("x2", "y2")], bwd=[("y2", "x2")])
        assert connective_condition(self.EX_IMP, both, m1, m2) is True

    @pytest.mark.parametrize("name", sorted(SIGNATURES))
    def test_closed_under_union(self, name):
        # Each condition is monotone in its witnesses, which the relation
        # itself gives, so the relations passing it are closed under union:
        # that is what makes a largest asimulation exist.
        sig = SIGNATURES[name]
        rng = random.Random(sum(map(ord, name)))
        grown = 0  # unions larger than both parts
        for _ in range(10):
            m1, m2 = (random_model(rng.randint(1, 4), RELATIONS, ["P1", "P2"], 0.35, 0.5,
                                   rng.randrange(1 << 30)) for _ in range(2))
            for mu in (mu for mu in sig if mu.name not in ("and", "or", "top", "bot")):
                parts = [passing_part(mu, random_relation(rng, m1, m2, rng.random()), m1, m2)
                         for _ in range(6)]
                for a, b in itertools.combinations(parts, 2):
                    assert connective_condition(mu, a | b, m1, m2, strict=False) is True
                    grown += not (a.subset_of(b) or b.subset_of(a))
        assert grown >= 20, grown


def passing_part(mu, a, m1, m2):
    """The largest part of ``a`` passing the condition of ``mu``: a reported
    pair fails for every part of ``a`` too, so each is dropped in turn."""
    pairs = {FWD: set(a.fwd), BWD: set(a.bwd)}
    while True:
        part = rel(pairs[FWD], pairs[BWD])
        got = connective_condition(mu, part, m1, m2, strict=False)
        if got is True:
            return part
        pairs[got.direction].remove(got.pair)


def with_root(doc, root, end):
    """The model of ``doc`` with one more element, ``root``, whose one R2
    move reaches ``end``."""
    return load({**doc, "domain": [*doc["domain"], root], "relations": {**doc["relations"], "R2": [[root, end]]}})


class TestMaxInnerTarget:
    """The inner target of ``forall[R2] exists[R1]{ p1 }``: the pairs whose
    forth matching along R1 holds with the relation as witness.  A root on
    each side whose one R2 move reaches the probed pair makes the outer back
    condition at the two roots ask whether the pair lies in the inner
    target; no other pair has a partner with an R2 move."""

    AE = parse_connective("forall[R2] exists[R1]{ p1 }", "ae")

    def in_target(self, doc1, doc2, witness, d, pair):
        """Whether ``pair``, of direction ``d`` between the models of ``doc1``
        and ``doc2``, lies in the inner target for the relation ``witness``."""
        x, y = pair if d == FWD else pair[::-1]
        roots = ("r", "s") if d == FWD else ("s", "r")
        a = witness | rel(**{d: [roots]})
        got = connective_condition(self.AE, a, with_root(doc1, "r", x), with_root(doc2, "s", y))
        assert got is True or (got.pair, got.direction) == (roots, d)
        return got is True

    def test_full_target_requires_matching_moves(self):
        d1 = {"domain": ["a", "b", "c"], "relations": {"R1": [["a", "b"], ["b", "c"]]}, "predicates": {}}
        d2 = {"domain": ["u", "v"], "relations": {"R1": [["u", "v"]]}, "predicates": {}}
        full = full_relation(load(d1), load(d2))
        # Forward: a pair is in iff a carrier move implies a partner move.
        assert self.in_target(d1, d2, full, FWD, ("a", "u"))      # a moves, u moves
        assert not self.in_target(d1, d2, full, FWD, ("a", "v"))  # a moves, v is stuck
        assert self.in_target(d1, d2, full, FWD, ("c", "v"))      # c is stuck, vacuous
        assert not self.in_target(d1, d2, full, BWD, ("u", "c"))  # u moves, c is stuck

    def test_empty_target_excludes_moving_sources(self):
        d1 = {"domain": ["a", "b"], "relations": {"R1": [["a", "b"]]}, "predicates": {}}
        d2 = {"domain": ["u"], "relations": {"R1": [["u", "u"]]}, "predicates": {}}
        assert not self.in_target(d1, d2, EMPTY, FWD, ("a", "u"))
        assert not self.in_target(d1, d2, EMPTY, BWD, ("u", "a"))
        assert self.in_target(d1, d2, EMPTY, FWD, ("b", "u"))  # b cannot move, condition vacuous

    def test_no_edges_gives_full(self):
        d1 = {"domain": ["a"], "relations": {}, "predicates": {}}
        d2 = {"domain": ["u"], "relations": {}, "predicates": {}}
        assert self.in_target(d1, d2, EMPTY, FWD, ("a", "u"))
        assert self.in_target(d1, d2, EMPTY, BWD, ("u", "a"))


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
        conds = [cond for _, cond in asim._conditions(sig_modal())]
        for trial in range(30):
            m1 = random_model(rng.randint(1, 8), ["R1"], ["P1"], 0.35, 0.5, 900 + trial)
            m2 = m1 if trial % 3 == 0 else random_model(rng.randint(1, 8), ["R1"], ["P1"], 0.35, 0.5, 1000 + trial)
            theta = theta_of(m1, m2)
            rows = asim._sweeps(conds, asim._atom_rows(m1, m2, theta), m1, m2)
            out = asim._relation(rows, m1, m2)
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

    def test_conditions_compiled_once_per_signature(self, monkeypatch):
        compiled = []
        compile_all = asim._compile_all
        monkeypatch.setattr(asim, "_compile_all", lambda conns: compiled.append(conns) or compile_all(conns))
        m = random_model(4, ["R1", "R2"], ["P1", "P2"], 0.4, 0.5, 71)
        theta = theta_of(m, m)
        # one compile per signature object, whatever ``strict``
        sig = FragmentSignature({mu.name: mu for mu in sig_modal_intuitionistic()})
        conds = asim._conditions(sig)
        for strict in (True, False, True):
            is_asimulation(sig, theta, m, m, largest_asimulation(sig, theta, m, m, strict=strict), strict=strict)
        assert isinstance(conds, tuple) and asim._conditions(sig) is conds and compiled == [sig]
        # a plain connective list is compiled on each call
        listed = asim._conditions(list(sig))
        assert listed == conds and asim._conditions(list(sig)) is not listed
        # conditions kept from a lenient call never skip the gate
        odd = FragmentSignature.from_dict({"connectives": {"nope": "exists[R2] forall[R1]{ ~p1 | p2 }"}})
        largest_asimulation(odd, theta, m, m, strict=False)
        for _ in range(2):
            with pytest.raises(NonStandardFragmentError, match="nope"):
                largest_asimulation(odd, theta, m, m, strict=True)
        assert [name for name, _ in asim._conditions(odd)] == ["nope"]
        # one connective is refused for its degree before its standardness
        a = full_relation(m, m)
        deep = parse_connective("forall[R1] exists[R1] forall[R1]{ p1 }", name="deep")
        for strict in (True, False):
            with pytest.raises(NonStandardFragmentError) as caught:
                connective_condition(deep, a, m, m, strict=strict)
            assert str(caught.value) == "deep: degree 3 is not supported"
        with pytest.raises(NonStandardFragmentError) as caught:
            connective_condition(odd.get("nope"), a, m, m)
        assert str(caught.value) == "nope: not a standard connective"
        got = connective_condition(odd.get("nope"), a, m, m, strict=False)
        assert got is True or isinstance(got, ViolationReport)

    def test_sweep_memos_shared_over_a_solve_match_fresh_ones(self, monkeypatch):
        # The sweeps hand each condition one memo store for the whole solve;
        # the result must be the one a fresh store per step gives.
        rng = random.Random(43)
        cases = []
        for trial in range(25):
            m1 = random_model(rng.randint(1, 7), ["R1", "R2", "R3"], ["P1", "P2"], 0.35, 0.5, 1100 + trial)
            m2 = m1 if trial % 4 == 0 else random_model(
                rng.randint(1, 7), ["R1", "R2", "R3"], ["P1", "P2"], 0.35, 0.5, 1200 + trial)
            cases.append((m1, m2, theta_of(m1, m2)))
        sigs = [sig_modal_intuitionistic(), sig_intuitionistic()]
        conds = [[cond for _, cond in asim._conditions(sig)] for sig in sigs]
        starts = [(asim._atom_rows(m1, m2, theta), m1, m2) for m1, m2, theta in cases]
        shared = [asim._sweeps(c, *start) for c in conds for start in starts]
        passing, witnesses = asim._Condition.passing, asim._Condition.witnesses
        monkeypatch.setattr(asim._Condition, "passing",
                            lambda self, cand, ws, m1, m2, memos=None: passing(self, cand, ws, m1, m2))
        monkeypatch.setattr(asim._Condition, "witnesses",
                            lambda self, a, inv, m1, m2, memos=None: witnesses(self, a, inv, m1, m2))
        assert [asim._sweeps(c, *start) for c in conds for start in starts] == shared


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

    def test_two_free_variables_refused(self):
        with pytest.raises(ValueError, match=r"^need at most one free variable, got \['x', 'y'\]$"):
            invariance_check(parse_fo("R1(x,y)"), full_relation(CHAIN, SINGLE), CHAIN, SINGLE)

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


    @pytest.mark.parametrize("name", sorted(ALL_SIGS))
    def test_sandwich_on_every_model_of_at_most_two_elements(self, name):
        # All 4 624 ordered pairs of TINY, a self pair as one model object:
        # the fixpoint is the preservation preorder of an enumeration that
        # closes, and an asimulation when non-empty.  The set-based reference
        # solver is compared on the self pairs and the pairs whose indices
        # sum to a multiple of 4, so every model meets it 17 times per side.
        sig = ALL_SIGS[name]()
        assert len(TINY) == 68
        for (i, m1), (j, m2) in itertools.product(enumerate(TINY), repeat=2):
            big = largest_asimulation(sig, ["P1"], m1, m2)
            vecs, ends = class_vectors(sig, ["P1"], 10, m1, m2, None)
            assert ends[-2] == ends[-1], (i, j)
            assert big == asim._preorders(vecs, ends, m1, m2)[-1], (i, j)
            if not big.is_empty:
                assert is_asimulation(sig, ["P1"], m1, m2, big) == [], (i, j)
            if i == j or (i + j) % 4 == 0:
                assert big == reference_asim.largest_asimulation(sig, ["P1"], m1, m2), (i, j)


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
        both_ways = rel(fwd=[("x", "y"), ("x2", "y2")], bwd=[("y2", "x2")])
        assert connective_condition(mu, both_ways, m1, m2) is True
        one_way = rel(fwd=[("x", "y"), ("x2", "y2")])
        got = connective_condition(mu, one_way, m1, m2)
        assert isinstance(got, ViolationReport)
        assert got.path == ("y", "n", "y2")
        # Break the chain in the carrier model: the first witness disappears.
        m1_broken = load({
            "domain": ["x", "m", "x2"],
            "relations": {"R1": [["x", "m"]]},
            "predicates": {},
        })
        got2 = connective_condition(mu, both_ways, m1_broken, m2)
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


# The public names of each module that code outside the library reads, a
# method as ``Class.method``: the acceptance suite, the frozen oracles and
# the benchmark's tracer, and the types they pass around.
ENTRY_POINTS = {
    "asim": {
        "atom_preserving", "connective_condition", "core_candidate_kind", "full_relation",
        "invariance_check", "preservation_relation", "relation_from_doc",
        "CoreCandidateKind", "CrossRelation", "NonStandardFragmentError", "RelationError",
        "ViolationReport",
        "CrossRelation.inverse",  # tests/reference_asim.py, tests/oracles.py
    },
    "bitrows": set(),
    "boolfn": set(),
    "cli": set(),
    "connective": {"modality_collapse", "unify_args"},  # the acceptance suite
    "formula": {"semantic_classes"},  # the acceptance suite
    "model": {
        "Model.guard_endpoints",  # perfbench/tracer.py wraps it
        "Model.pred_elements",  # tests/reference_formula.py
        "Model.rel_pairs",  # tests/helpers.py
    },
    "syntax": {"fragment_depth"},  # perfbench/tracer.py
}


def public_names(module):
    """The public functions and classes of ``module``, and the public
    methods of those classes as ``Class.method``."""
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield name
        elif inspect.isclass(obj):
            yield name
            for attr, member in vars(obj).items():
                if isinstance(member, (staticmethod, classmethod)):
                    member = member.__func__
                if not attr.startswith("_") and inspect.isfunction(member):
                    yield f"{name}.{attr}"


def _reads(tree):
    """The names ``tree`` reads: each ``(name, is_attribute, top)``, where
    ``top`` is the module-level function whose body holds the read, if any."""
    for top in tree.body:
        owner = top.name if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef)) else None
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                yield node.id, False, owner
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                yield node.attr, True, owner


def test_every_public_name_has_a_caller():
    # Each public function, class and method of each module is read
    # somewhere in src/ (the package's export list aside) or is an entry
    # point, so no name lives on for the tests alone.  A method counts as
    # read only through an attribute read (``.name``), and a function only
    # through a read outside its own body, so neither a local variable of
    # the same name nor recursion keeps one alive.
    src = os.path.dirname(asim.__file__)
    reads = []
    modules = []
    for name in sorted(os.listdir(src)):
        if name.endswith(".py") and name != "__init__.py":
            with open(os.path.join(src, name)) as f:
                reads += [(read, attr, (name[:-3], top)) for read, attr, top in _reads(ast.parse(f.read()))]
            if not name.startswith("_"):
                modules.append(name[:-3])
    assert sorted(ENTRY_POINTS) == modules

    def is_read(module_name, public):
        owner, _, attr = public.rpartition(".")
        if owner:
            return any(read == attr and is_attr for read, is_attr, _ in reads)
        return any(read == attr and where != (module_name, attr) for read, _, where in reads)

    for module_name in modules:
        public = set(public_names(importlib.import_module(f"guardasim.{module_name}")))
        listed = ENTRY_POINTS[module_name]
        assert listed <= public, (module_name, listed - public)
        unread = {name for name in public - listed if not is_read(module_name, name)}
        assert sorted(unread) == [], module_name
