"""The bit-row asimulation kernel against the original set-based checks and
solver, kept in reference_asim.py, on seeded random model pairs of 1-12
elements, and of 30-48 for the dense-row kernels: equal largest
asimulations, connective verdicts and violation reports, atom reports
included; the loaders' exact error messages for malformed pairs and
lists; and relation documents read straight into rows against the rows of the
relation they list.  One model object on both sides takes the solver's
one-direction path, which is checked against the reference and against two
separate loads of the model; the sweeps are checked to reach one result in
any order of the conditions, and to build inverse rows only for conditions
that read them.  Fragments whose conditions read only the symmetric part are
solved by partition refinement, which is checked against the sweeps and the
reference, on the benchmark's models of 144 and 400 elements too; other
fragments sweep from the answer of the largest sub-fragment refinement
solves, checked the same way on mixes of refined and swept connectives; and
each signature is checked to take its route.  A self pair's relation document
whose two lists are equal is read once, mirrored: its reports and error
messages are checked against two separate loads of the model and against
the reference, and its reads are counted.  The largest asimulation with one
outside pair added, in fwd, in bwd or in both, is checked against the
reference, and the verifier's row loops are followed to check that a
failing condition computes no row after its first failing one."""

import importlib.util
import itertools
import os
import random
import sys

import pytest

from guardasim import asim, bitrows
from guardasim.asim import CrossRelation, NonStandardFragmentError
from guardasim.connective import FragmentSignature
from guardasim.model import Model, ModelError, load, random_model, save

import reference_asim as ref
from helpers import ALL_SIGS, theta_of

RELATIONS = ["R1", "R2", "R3"]

STANDARD = {
    **{name: build() for name, build in ALL_SIGS.items()},
    "rest_core_degree2": FragmentSignature.from_dict({"connectives": {
        "ae_imp": "forall[R2] exists[R1]{ ~p1 | p2 }",
        "ea_butnot": "exists[R2] forall[R1]{ p2 & ~p1 }",
    }}),
    "two_step_special": FragmentSignature.from_dict({"connectives": {
        "deep_guard": "forall[R1,R2]{ p2 & ~p1 }",
        "dia": "exists[R3]{ p1 }",
    }}),
    # A chain of three guards, plain and special.
    "three_step": FragmentSignature.from_dict({"connectives": {
        "box313": "forall[R3,R1,R3]{ p1 }",
        "ex_imp313": "exists[R3,R1,R3]{ ~p1 | p2 }",
    }}),
    "exists_special": FragmentSignature.from_dict({"connectives": {
        "ex_imp": "exists[R2]{ ~p1 | p2 }",
        "box": "forall[R1]{ p1 }",
    }}),
    # The degree-0 negation forces the symmetric part every round.
    "negation": FragmentSignature.from_dict({"connectives": {
        "not": "{ ~p1 }",
        "dia2": "exists[R1,R3]{ p1 }",
    }}),
    # Degree-0 rest and anti-monotone cores: the symmetry cut is matching
    # along the empty guard chain.
    "degree0_cores": FragmentSignature.from_dict({"connectives": {
        "xor": "{ (p1 | p2) & ~(p1 & p2) }",
        "nor": "{ ~p1 & ~p2 }",
        "dia": "exists[R1]{ p1 }",
    }}),
    # No model below interprets R4; some lack R2 or R3 as well.
    "missing_symbol": FragmentSignature.from_dict({"connectives": {
        "box4": "forall[R4]{ p1 }",
        "dia14": "exists[R1,R4]{ p1 }",
        "imp2": "forall[R2]{ ~p1 | p2 }",
        "ae_neg": "forall[R1] exists[R4]{ ~p1 }",
    }}),
    # Constant cores take every relation as their target.
    "constant_cores": FragmentSignature.from_dict({"connectives": {
        "some": "exists[R1]{ T }",
        "none": "forall[R2]{ F }",
        "dia": "exists[R3]{ p1 }",
    }}),
}
# Not regular: only strict=False runs them.
NON_STANDARD = {
    "irregular_degree2": FragmentSignature.from_dict({"connectives": {
        "odd": "exists[R2] forall[R1]{ ~p1 | p2 }",
        "const2": "forall[R1] exists[R2]{ T }",
        "box": "forall[R3]{ p1 }",
    }}),
}


def model_pairs(seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        rels2 = [r for r in RELATIONS if rng.random() < 0.8]
        m1 = random_model(rng.randint(1, 12), RELATIONS, ["P1", "P2"], rng.uniform(0.05, 0.35),
                          0.5, rng.randrange(1 << 30))
        m2 = random_model(rng.randint(1, 12), rels2, ["P1", "P2"], rng.uniform(0.05, 0.35),
                          0.5, rng.randrange(1 << 30))
        yield rng, m1, m2


def random_relation(rng, m1, m2, density):
    return CrossRelation(
        fwd=frozenset((x, y) for x in m1.domain for y in m2.domain if rng.random() < density),
        bwd=frozenset((y, x) for y in m2.domain for x in m1.domain if rng.random() < density),
    )


def perturbed(rng, big, m1, m2):
    """Relations near the largest asimulation: a random part of it, and all
    of it with a few outside pairs."""
    part = CrossRelation(
        fwd=frozenset(p for p in big.fwd if rng.random() < 0.7),
        bwd=frozenset(p for p in big.bwd if rng.random() < 0.7),
    )
    return [part, big | random_relation(rng, m1, m2, 0.05)]


CASES = [(name, sig, strict) for name, sig in STANDARD.items() for strict in (True, False)]
CASES += [(name, sig, False) for name, sig in NON_STANDARD.items()]


@pytest.mark.parametrize("name,sig,strict", CASES, ids=[f"{c[0]}-strict={c[2]}" for c in CASES])
def test_solver_and_verifier_match_reference(name, sig, strict):
    seed = sum(map(ord, name)) * 7 + strict
    for rng, m1, m2 in model_pairs(seed, 12):
        theta = theta_of(m1, m2)
        big = asim.largest_asimulation(sig, theta, m1, m2, strict=strict)
        assert big == ref.largest_asimulation(sig, theta, m1, m2, strict=strict)
        relations = [big, random_relation(rng, m1, m2, 0.3), random_relation(rng, m1, m2, 0.8)]
        relations += perturbed(rng, big, m1, m2)
        for a in relations:
            got = asim.is_asimulation(sig, theta, m1, m2, a, strict=strict)
            assert got == ref.is_asimulation(sig, theta, m1, m2, a, strict=strict), a.to_doc()
            for mu in sig:
                assert asim.connective_condition(mu, a, m1, m2, strict=strict) == \
                    ref.connective_condition(mu, a, m1, m2, strict=strict)


def test_verifier_reports_violations_on_most_relations():
    # Guards the comparison above against vacuity: report lists are compared
    # mostly on relations that break some condition.
    sig = STANDARD["modal_intuitionistic"]
    broken = 0
    for rng, m1, m2 in model_pairs(5, 20):
        a = random_relation(rng, m1, m2, 0.5)
        reports = asim.is_asimulation(sig, theta_of(m1, m2), m1, m2, a)
        broken += any(r.condition in ("back", "forth", "s-back", "s-forth") for r in reports)
    assert broken >= 10


def test_strict_rejects_non_standard_in_both():
    sig = NON_STANDARD["irregular_degree2"]
    deep = FragmentSignature.from_dict({"connectives": {"deep": "forall[R1] exists[R2] forall[R3]{ p1 }"}})
    for _, m1, m2 in model_pairs(3, 2):
        theta = theta_of(m1, m2)
        full = asim.full_relation(m1, m2)
        for lib in (asim, ref):
            with pytest.raises(NonStandardFragmentError):
                lib.largest_asimulation(sig, theta, m1, m2)
            # The degree cap holds without strict too.
            with pytest.raises(NonStandardFragmentError, match="deep: degree 3 is not supported"):
                lib.largest_asimulation(deep, theta, m1, m2, strict=False)
            with pytest.raises(NonStandardFragmentError, match="deep: degree 3 is not supported"):
                lib.is_asimulation(deep, theta, m1, m2, full, strict=False)
            with pytest.raises(NonStandardFragmentError, match="deep: degree 3 is not supported"):
                lib.connective_condition(deep.get("deep"), full, m1, m2, strict=False)


# Element names whose sorted order differs from their index order.
SHUFFLED_NAMES = (["b", "a10", "a2", "c"], ["a2", "b", "a10"])


def atom_model_pairs(seed, count):
    """Pairs over SHUFFLED_NAMES where P1-P3 hold densely in the first model
    and sparsely in the second (P3 only in the first), so many pairs fail
    several predicates at once."""
    rng = random.Random(seed)
    for _ in range(count):
        models = []
        for names, preds, density in ((SHUFFLED_NAMES[0], ["P1", "P2", "P3"], 0.8),
                                      (SHUFFLED_NAMES[1], ["P1", "P2"], 0.3)):
            rels = {r: [(x, y) for x in names for y in names if rng.random() < 0.3] for r in RELATIONS}
            holders = {p: [x for x in names if rng.random() < density] for p in preds}
            models.append(Model(names, rels, holders))
        yield rng, models[0], models[1]


# P3 is only in the first model and P9 in neither; the lists are unsorted.
THETAS = (["P3", "P1", "P2"], ["P9", "P2", "P1"], ["P2", "P3", "P9", "P1"])


def test_atom_reports_match_reference():
    several = 0
    for rng, m1, m2 in atom_model_pairs(17, 30):
        theta = rng.choice(THETAS)
        for name, sig in STANDARD.items():
            for a in (random_relation(rng, m1, m2, 0.6), full_relation_of(m1, m2)):
                got = asim.is_asimulation(sig, theta, m1, m2, a, strict=False)
                assert got == ref.is_asimulation(sig, theta, m1, m2, a, strict=False), (name, a.to_doc())
        for d, mx, my in ((asim.FWD, m1, m2), (asim.BWD, m2, m1)):
            for x in mx.domain:
                for y in my.domain:
                    several += sum(mx.has_pred(p, x) and not my.has_pred(p, y) for p in theta) >= 2
    assert several >= 100  # guards against vacuity: many pairs fail several predicates


def full_relation_of(m1, m2):
    return CrossRelation(
        fwd=frozenset((x, y) for x in m1.domain for y in m2.domain),
        bwd=frozenset((y, x) for y in m2.domain for x in m1.domain),
    )


@pytest.mark.parametrize("doc,message", [
    ({"relations": {"R1": ["ab"]}}, "relations.R1[0]: expected a pair of element names"),
    ({"relations": {"R1": [5]}}, "relations.R1[0]: expected a pair of element names"),
    ({"relations": {"R1": [["a", "b", "a"]]}}, "relations.R1[0]: expected a pair of element names"),
    ({"relations": {"R1": 5}}, "relations.R1: expected a list of pairs"),
    ({"relations": {"R1": "ab"}}, "relations.R1: expected a list of pairs"),
    ({"relations": {"R1": [["a", "b"], ["a", "ghost"]]}}, "relations.R1[1]: unknown element 'ghost'"),
    ({"relations": {"R1": [["ghost", 5]]}}, "relations.R1[0]: expected a pair of element names"),
    ({"predicates": {"P1": "ab"}}, "predicates.P1: expected a list of element names"),
    ({"predicates": {"P1": [["a"]]}}, "predicates.P1[0]: expected an element name"),
    ({"predicates": {"P1": 5}}, "predicates.P1: expected a list of element names"),
    ({"predicates": {"P1": ["a", "ghost"]}}, "predicates.P1[1]: unknown element 'ghost'"),
])
def test_model_error_messages(doc, message):
    with pytest.raises(ModelError) as caught:
        load({"domain": ["a", "b"], **doc})
    assert str(caught.value) == message


RELATION_ERRORS = [
    *[({"fwd": fwd, "bwd": []}, "fwd[0]: expected a pair of element names")
      for fwd in (["ab"], [5], [["a"]], [["a", "b", "a2"]], [["a", 5]], [{"a": "b"}])],
    ({"fwd": [], "bwd": [["b", "a"], ("b", "zz")]}, "bwd[1]: unknown element 'zz'"),
    ({"fwd": [["zz", "b"]]}, "fwd[0]: unknown element 'zz'"),
    ({"fwd": [["a", "zz"]]}, "fwd[0]: unknown element 'zz'"),
    ({"fwd": "ab"}, "fwd: expected a list of pairs"),
    ([["a", "b"]], "document: expected an object"),
]


def error_models():
    return Model(["a", "a2"], {"R1": [("a", "a2")]}, {"P1": ["a2"]}), Model(["b"])


@pytest.mark.parametrize("doc,message", RELATION_ERRORS)
def test_relation_error_messages(doc, message):
    m1, m2 = error_models()
    with pytest.raises(asim.RelationError) as caught:
        asim.relation_from_doc(doc, m1, m2)
    assert str(caught.value) == message


@pytest.mark.parametrize("doc,message", RELATION_ERRORS)
def test_relation_error_messages_through_the_verifier(doc, message):
    m1, m2 = error_models()
    with pytest.raises(asim.RelationError) as caught:
        asim.is_asimulation(STANDARD["modal"], ["P1"], m1, m2, doc)
    assert str(caught.value) == message


def renamed(rng, m):
    """``m`` with its elements renamed so that sorted order differs from
    index order."""
    names = dict(zip(m.domain, (f"e{k}" for k in rng.sample(range(100), len(m)))))
    return Model([names[x] for x in m.domain],
                 {r: [(names[a], names[b]) for a, b in pairs] for r, pairs in m.relations.items()},
                 {p: [names[x] for x in xs] for p, xs in m.predicates.items()})


def relation_doc(rng, a):
    """A document listing ``a``: entries shuffled, some repeated, pairs given
    as lists or tuples."""
    doc = {}
    for key, pairs in (("fwd", a.fwd), ("bwd", a.bwd)):
        entries = [rng.choice((list, tuple))(p) for p in sorted(pairs)]
        entries += [list(p) for p in rng.sample(sorted(pairs), min(3, len(pairs)))]
        rng.shuffle(entries)
        doc[key] = entries
    return doc


def renamed_documents(seed, count):
    """(m1, m2, the relation, its document) on renamed model pairs, for the
    largest asimulation, random relations and the empty relation."""
    sig = STANDARD["modal_intuitionistic"]
    for rng, m1, m2 in model_pairs(seed, count):
        m1, m2 = renamed(rng, m1), renamed(rng, m2)
        big = asim.largest_asimulation(sig, theta_of(m1, m2), m1, m2)
        for a in (big, random_relation(rng, m1, m2, 0.3), *perturbed(rng, big, m1, m2),
                  CrossRelation(frozenset(), frozenset())):
            yield m1, m2, a, relation_doc(rng, a)


def test_document_reader_matches_relation_rows():
    for m1, m2, a, doc in renamed_documents(23, 15):
        assert asim.relation_from_doc(doc, m1, m2) == a
        rows = asim._read(a, m1, m2)[0]
        assert asim._doc_rows(doc, m1, m2) == (rows, asim._inverse(rows, m1, m2))


@pytest.mark.parametrize("name", sorted(STANDARD))
def test_verifier_reads_documents_like_relations(name):
    sig = STANDARD[name]
    for m1, m2, _, doc in renamed_documents(sum(map(ord, name)), 6):
        theta = theta_of(m1, m2)
        for d in (doc, {}):
            got = asim.is_asimulation(sig, theta, m1, m2, d)
            assert got == asim.is_asimulation(sig, theta, m1, m2, asim.relation_from_doc(d, m1, m2))


def swept(sig, theta, m1, m2):
    """The relation the sweeps reach from the atom rows.  The solver starts
    them from a sub-fragment's answer, found by partition refinement, or
    takes that answer when the sub-fragment is the whole fragment, so the
    tests of the sweeps' own mechanisms call them directly."""
    conds = [cond for _, cond in asim._conditions(sig)]
    return asim._relation(asim._sweeps(conds, asim._atom_rows(m1, m2, theta), m1, m2), m1, m2)


def dense_models(rng):
    """Two independent models of 30-48 elements with sparse guards and P1/P2
    at 70% of the elements."""
    return tuple(random_model(rng.randint(30, 48), RELATIONS, ["P1", "P2"], 0.06, 0.7,
                              rng.randrange(1 << 30)) for _ in range(2))


def test_dense_models_reach_the_row_kernels(monkeypatch):
    # Models of 30-48 elements with sparse guards and P1/P2 at 70% of the
    # elements: the relations stay dense, so the solver's inverse rows take
    # the strided-slice transpose and rest-core back matching meets covers
    # smaller than its candidate rows.  The counts guard against vacuity.
    calls = {"slices": 0, "sparse cover": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(bitrows, "_transpose_slices", counted("slices", bitrows._transpose_slices))
    monkeypatch.setattr(asim, "_sparse_cover", counted("sparse cover", asim._sparse_cover))
    rng = random.Random(11)
    for _ in range(3):
        m1, m2 = dense_models(rng)
        theta = theta_of(m1, m2)
        for build in ALL_SIGS.values():
            sig = build()
            big = swept(sig, theta, m1, m2)
            assert big == ref.largest_asimulation(sig, theta, m1, m2)
            for a in [big, *perturbed(rng, big, m1, m2)]:
                assert asim.is_asimulation(sig, theta, m1, m2, a) == \
                    ref.is_asimulation(sig, theta, m1, m2, a), a.to_doc()
    assert calls["slices"] >= 10 and calls["sparse cover"] >= 100, calls


def test_forth_matching_unions_each_witness_row_once(monkeypatch):
    # Whether a partner element has an endpoint in a witness row S depends
    # on S and the partner model alone, so under one memo no S is unioned
    # against a partner's chain sources twice.  A memo lives for one call of
    # the verifier's check or of ``passing``, and for a whole solve in the
    # sweeps.  The shared row loop ``_kept`` runs once per direction and is
    # followed lazily, row by row, as the verifier stops it at its first
    # failing row.  Two models give each direction its own sources tuple;
    # one model object on both sides, with relations whose two directions
    # differ, gives both directions one sources tuple and one memo.
    logs = {}  # per memo key of _kept: the (sources, S) of each union
    running = []  # the log of the forth row loop computing a row now
    counts = {"forth": 0, "unions": 0}
    union, kept = asim.union, asim._Condition._kept

    def logged_union(rows, mask):
        if running:
            running[-1].append((id(rows), mask))
        return union(rows, mask)

    def logged_kept(self, cand, ws, mx, my, memos):
        rows = kept(self, cand, ws, mx, my, memos)
        if self.back or not self.guards:
            yield from rows
            return
        counts["forth"] += 1
        # the log keeps memos alive, so its id is not reused by a later call
        log = logs.setdefault((id(memos), self, id(my)), (memos, []))[1]
        while True:
            running.append(log)
            try:
                row = next(rows)
            except StopIteration:
                return
            finally:
                running.pop()
            yield row

    monkeypatch.setattr(asim, "union", logged_union)
    monkeypatch.setattr(asim._Condition, "_kept", logged_kept)
    rng = random.Random(11)
    for _ in range(3):
        m1, m2 = dense_models(rng)
        for mx, my in ((m1, m2), (m1, m1)):
            theta = theta_of(mx, my)
            for build in ALL_SIGS.values():
                sig = build()
                big = swept(sig, theta, mx, my)
                for a in [big, *perturbed(rng, big, mx, my)]:
                    asim.is_asimulation(sig, theta, mx, my, a)
    for key, (_, log) in logs.items():
        assert len(log) == len(set(log)), (key[1], len(log) - len(set(log)))
    counts["unions"] = sum(len(log) for _, log in logs.values())
    assert counts["forth"] >= 60 and counts["unions"] >= 1000, counts


def self_pair_models(seed):
    """Seeded models of 1-14 elements, some without R2 or R3, then one dense
    model like those of ``dense_models``, at the small end of their sizes
    (30-36 elements) to keep the reference solver's time down."""
    rng = random.Random(seed)
    for _ in range(12):
        rels = [r for r in RELATIONS if rng.random() < 0.8]
        yield random_model(rng.randint(1, 14), rels, ["P1", "P2"], rng.uniform(0.05, 0.35), 0.5,
                           rng.randrange(1 << 30))
    yield random_model(rng.randint(30, 36), RELATIONS, ["P1", "P2"], 0.06, 0.7, rng.randrange(1 << 30))


SIGNATURES = {**STANDARD, **NON_STANDARD}


@pytest.mark.parametrize("name", SIGNATURES)
def test_self_pairs_match_reference(name):
    # One model object on both sides: the solver computes one direction and
    # shares it, so fwd equals bwd, and the result is the one for two
    # separate loads of the same document, which take both directions.  A
    # standard signature runs strict and not; its reference result is one.
    sig = SIGNATURES[name]
    for m in self_pair_models(sum(map(ord, name)) * 11):
        theta = theta_of(m)
        want = ref.largest_asimulation(sig, theta, m, m, strict=False)
        doc = save(m)
        for strict in (True, False) if name in STANDARD else (False,):
            got = asim.largest_asimulation(sig, theta, m, m, strict=strict)
            assert got.fwd == got.bwd
            assert got == want
            assert got == asim.largest_asimulation(sig, theta, load(doc), load(doc), strict=strict)


def permuted(sig, order):
    """``sig`` with its connectives renamed so that they sort in ``order``."""
    return FragmentSignature({f"k{k}": sig.get(name) for k, name in enumerate(order)})


@pytest.mark.parametrize("name,sig,strict", CASES, ids=[f"{c[0]}-strict={c[2]}" for c in CASES])
def test_sweep_order_does_not_change_the_result(name, sig, strict):
    # The solver sweeps the conditions in signature order, each reading the
    # relation the previous one left; every order reaches the greatest fixpoint.
    names = [mu.name for mu in sig if mu.name not in ("and", "or", "top", "bot")]
    orders = list(itertools.permutations(names))[1:]
    pairs = [(m1, m2) for _, m1, m2 in model_pairs(sum(map(ord, name)) * 13 + strict, 6)]
    pairs += [(m, m) for m, _ in pairs[:3]]
    for m1, m2 in pairs:
        theta = theta_of(m1, m2)
        want = asim.largest_asimulation(sig, theta, m1, m2, strict=strict)
        for order in orders:
            assert swept(permuted(sig, order), theta, m1, m2) == want, order


def counting(monkeypatch, module, attr):
    """Count the calls of ``module.attr``; returns the list of results."""
    results = []
    fn = getattr(module, attr)

    def counted(*args):
        results.append(fn(*args))
        return results[-1]

    monkeypatch.setattr(module, attr, counted)
    return results


def test_inverse_rows_only_for_conditions_that_read_them(monkeypatch):
    inverses = counting(monkeypatch, asim, "_inverse")
    changes = []
    passing = asim._Condition.passing

    def logged_passing(self, cand, *args):
        out = passing(self, cand, *args)
        changes.append(out != cand)
        return out

    monkeypatch.setattr(asim._Condition, "passing", logged_passing)
    monotone = FragmentSignature.from_dict({"connectives": {
        "box": "forall[R1]{ p1 }",
        "dia": "exists[R1]{ p1 }",
    }})
    pairs = [(m1, m2) for _, m1, m2 in model_pairs(29, 12)]
    pairs += [(m, m) for m, _ in pairs[:6]]
    for m1, m2 in pairs:
        swept(monotone, theta_of(m1, m2), m1, m2)
    assert not inverses and sum(changes) >= 10, (len(inverses), sum(changes))
    # The one condition of the intuitionistic signature reads the inverse
    # rows at every step: they are built once at the start and once after
    # each change of the relation.
    for m1, m2 in pairs:
        inverses.clear()
        changes.clear()
        swept(ALL_SIGS["intuitionistic"](), theta_of(m1, m2), m1, m2)
        assert len(inverses) == 1 + sum(changes)


def test_self_pairs_compute_one_direction(monkeypatch):
    # Each guarded condition's passing rows come from one direction (one
    # endpoint lookup per call) on one model object, and from both on two
    # separate loads of it.  Separate loads are equal models, so only the
    # identity of the objects tells the two cases apart.
    lookups = counting(monkeypatch, Model, "endpoint_indices")
    outputs = []
    passing = asim._Condition.passing

    def logged_passing(self, *args):
        lookups.clear()
        out = passing(self, *args)
        if self.guards:
            outputs.append((len(lookups), out[asim.FWD] is out[asim.BWD]))
        return out

    monkeypatch.setattr(asim._Condition, "passing", logged_passing)
    m = dense_models(random.Random(31))[0]
    for build in ALL_SIGS.values():
        sig = build()
        theta = theta_of(m)
        outputs.clear()
        one = swept(sig, theta, m, m)
        assert outputs and set(outputs) == {(1, True)}, sig.names()
        outputs.clear()
        doc = save(m)
        assert swept(sig, theta, load(doc), load(doc)) == one
        assert outputs and set(outputs) == {(2, False)}, sig.names()


# -- partition refinement: fragments whose conditions read only the symmetric part

def sig_of(connectives):
    return FragmentSignature.from_dict({"connectives": connectives})


IMP = "forall[R1]{ ~p1 | p2 }"
# Each one has a degree-0 cut (the result is the bisimulation) or only
# non-special rest cores (the result is one narrowing of the atom rows).
REFINED = {
    "modal": ALL_SIGS["modal"](),
    "intuitionistic": ALL_SIGS["intuitionistic"](),
    "not_box": sig_of({"not": "{ ~p1 }", "box": "forall[R1]{ p1 }"}),
    "not_dia12": sig_of({"not": "{ ~p1 }", "dia12": "exists[R1,R2]{ p1 }"}),
    "not_imp_box2": sig_of({"not": "{ ~p1 }", "imp": IMP, "box2": "forall[R2]{ p1 }"}),
    "not_antitone": sig_of({"not": "{ ~p1 }", "nbox": "forall[R1]{ ~p1 }"}),
    "iff_dia": sig_of({"iff": "{ p1 <-> p2 }", "dia": "exists[R1]{ p1 }"}),
    "not_special": sig_of({"not": "{ ~p1 }", "butnot": "forall[R1]{ p2 & ~p1 }"}),
    "imp_imp2": sig_of({"imp": IMP, "imp2": "forall[R2]{ ~p1 | p2 }"}),
    "imp12": sig_of({"imp12": "forall[R1,R2]{ ~p1 | p2 }"}),
    "dia_butnot": sig_of({"butnot": "exists[R1]{ p1 & ~p2 }"}),
}
# A degree-2 connective, a constant core or a special core without a
# negation needs the sweeps.  The first three have a sub-fragment that
# refinement solves (lambda5 is a rest core, the others have a negation),
# whose answer the sweeps start from; a special core without a negation
# starts them from the atom rows, and built-ins alone need no sweep.
SWEPT = {
    "modal_intuitionistic": ALL_SIGS["modal_intuitionistic"](),
    "not_some_box": sig_of({"not": "{ ~p1 }", "some": "exists[R1]{ T }", "box": "forall[R1]{ p1 }"}),
    "not_degree2": sig_of({"not": "{ ~p1 }", "ae": "forall[R1] exists[R3]{ p1 }"}),
    "special": sig_of({"butnot": "forall[R1]{ p2 & ~p1 }", "dia": "exists[R3]{ p1 }"}),
    "builtins": sig_of({}),
}


def refinement_pairs(seed):
    """Seeded model pairs of 1-12 elements, then self pairs of four of them."""
    pairs = [(m1, m2) for _, m1, m2 in model_pairs(seed, 10)]
    return pairs + [(m, m) for m, _ in pairs[:4]]


@pytest.mark.parametrize("name", REFINED)
def test_refinement_matches_sweeps_and_reference(name):
    sig = REFINED[name]
    for m1, m2 in refinement_pairs(sum(map(ord, name)) * 17):
        theta = theta_of(m1, m2)
        got = asim.largest_asimulation(sig, theta, m1, m2, strict=False)
        assert got == swept(sig, theta, m1, m2)
        assert got == ref.largest_asimulation(sig, theta, m1, m2, strict=False)
        assert asim._mirrored(got._rows) == (m1 is m2)


def test_each_signature_takes_its_route(monkeypatch):
    # A refined signature is solved by one refinement route, without the
    # sweeps.  The first three swept ones run one colour refinement and
    # sweep from a start that holds the gfp and lies inside the atom rows,
    # strictly on some pairs; the last two run none, and only the special
    # one sweeps, from the atom rows.
    bisimulations = counting(monkeypatch, asim, "_bisimulation")
    starts = []
    sweeps = asim._sweeps

    def logged_sweeps(conds, start, m1, m2):
        starts.append(start)
        return sweeps(conds, start, m1, m2)

    monkeypatch.setattr(asim, "_sweeps", logged_sweeps)
    tighter = 0
    for name, sig in {**REFINED, **SWEPT}.items():
        for m1, m2 in refinement_pairs(41):
            theta = theta_of(m1, m2)
            bisimulations.clear()
            starts.clear()
            want = ref.largest_asimulation(sig, theta, m1, m2, strict=False)
            assert asim.largest_asimulation(sig, theta, m1, m2, strict=False) == want
            if name in REFINED:
                assert not starts, name
            elif name in ("special", "builtins"):
                assert not bisimulations, name
                assert starts == ([asim._atom_rows(m1, m2, theta)] if name == "special" else []), name
            else:
                assert len(bisimulations) == 1 and len(starts) == 1, name
                start = asim._relation(starts[0], m1, m2)
                atoms = asim._relation(asim._atom_rows(m1, m2, theta), m1, m2)
                assert want.subset_of(start) and start.subset_of(atoms), name
                tighter += start != atoms
    assert tighter >= 20, tighter


# Mixes of a refined sub-fragment with connectives only the sweeps solve: a
# degree-2 connective, a special core and, under strict=False only, a
# degree-2 connective that is not regular.
AE = "forall[R2] exists[R3]{ p1 }"
MIXED = {
    "imp_ae": (sig_of({"imp": IMP, "ae": AE}), True),
    "not_imp_ae": (sig_of({"not": "{ ~p1 }", "imp": IMP, "ae": AE}), True),
    "imp_butnot": (sig_of({"imp": IMP, "butnot": "forall[R2]{ p2 & ~p1 }"}), True),
    "imp_irregular_degree2": (sig_of({"imp": IMP, "odd": "exists[R2] forall[R1]{ ~p1 | p2 }"}), False),
}


@pytest.mark.parametrize("name", MIXED)
def test_bound_then_sweeps_match_sweeps_and_reference(monkeypatch, name):
    # The sweeps from the bound reach the result of the sweeps from the atom
    # rows and of the reference, on pairs and on self pairs.  The counts
    # guard against vacuity: the bound removes atom pairs, and the sweeps
    # remove pairs of the bound.
    sig, strict = MIXED[name]
    bounds = counting(monkeypatch, asim, "_bound")
    cut, swept_off = 0, 0
    for m1, m2 in refinement_pairs(sum(map(ord, name)) * 43):
        theta = theta_of(m1, m2)
        bounds.clear()
        got = asim.largest_asimulation(sig, theta, m1, m2, strict=strict)
        assert got == swept(sig, theta, m1, m2)
        assert got == ref.largest_asimulation(sig, theta, m1, m2, strict=strict)
        assert asim._mirrored(got._rows) == (m1 is m2)
        (rows, exact), = bounds
        assert not exact
        cut += rows != asim._atom_rows(m1, m2, theta)
        swept_off += rows != got._rows
    assert cut >= 3 and swept_off >= 3, (cut, swept_off)


@pytest.fixture
def workloads(monkeypatch):
    """The benchmark's input generator, ``perfbench/workloads.py``."""
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "perfbench", "workloads.py")
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("n", [144, 400])
@pytest.mark.parametrize("name", ["modal", "intuitionistic", "modal_intuitionistic"])
def test_refinement_matches_sweeps_at_scale(workloads, name, n):
    sig = {**REFINED, **SWEPT}[name]
    rng = random.Random(n)
    m1, m2 = (load(workloads.model_doc(rng, n)) for _ in range(2))
    for mx, my in ((m1, m2), (m1, m1)):
        got = asim.largest_asimulation(sig, ["P1"], mx, my)
        want = swept(sig, ["P1"], mx, my)
        assert got._rows == want._rows and got.count(asim.FWD)
        assert got.to_doc() == want.to_doc()


# -- a self pair's document: one read when its two lists are equal

# Each has guarded conditions on both sides of the mirror; the last one's
# degree-2 connectives have special inner conditions.
MIRROR_SIGS = ["modal", "intuitionistic", "modal_intuitionistic", "rest_core_degree2"]


def self_pair_documents(rng, sig, m):
    """(document, whether its lists are equal) on the self pair of ``m``:
    the largest asimulation, part of it and a random relation, each with
    both lists equal and with one pair off in one list."""
    big = swept(sig, theta_of(m), m, m)
    pairs = [[x, y] for x in m.domain for y in m.domain]
    for listed in (big.to_doc()["fwd"], [p for p in big.to_doc()["fwd"] if rng.random() < 0.7],
                   [p for p in pairs if rng.random() < 0.3]):
        yield {"fwd": listed, "bwd": [list(p) for p in listed]}, True
        off = rng.choice(pairs)
        if off in listed:
            yield {"fwd": listed, "bwd": [p for p in listed if p != off]}, False
        else:
            yield {"fwd": sorted(listed + [off]), "bwd": list(listed)}, False


@pytest.mark.parametrize("name", MIRROR_SIGS)
def test_self_pair_documents_read_once_when_mirrored(monkeypatch, name):
    # One model object on both sides with equal lists: the document is read
    # once, with its mirror, and every condition computes one direction; the
    # reports are those of two separate loads of the model (two reads, both
    # directions) and of the reference.  Lists that differ take two reads on
    # the self pair too, where both directions share their memos.
    sig = STANDARD[name]
    reads = counting(monkeypatch, asim, "read_pairs")
    rng = random.Random(sum(map(ord, name)) * 19)
    mirrored_reads = 0
    for m in self_pair_models(sum(map(ord, name)) * 23):
        theta, twin = theta_of(m), load(save(m))
        for doc, mirrored in self_pair_documents(rng, sig, m):
            reads.clear()
            got = asim.is_asimulation(sig, theta, m, m, doc)
            assert len(reads) == (1 if mirrored else 2), doc
            mirrored_reads += mirrored
            reads.clear()
            assert asim.is_asimulation(sig, theta, m, twin, doc) == got, doc
            assert len(reads) == 2
            rel = CrossRelation(*(frozenset(map(tuple, doc[d])) for d in ("fwd", "bwd")))
            assert ref.is_asimulation(sig, theta, m, m, rel) == got, doc
    assert mirrored_reads >= 30


@pytest.mark.parametrize("doc,message", [
    ({"fwd": [["w0", "w0"], ["w0", 5]], "bwd": [["w0", "w0"], ["w0", 5]]},
     "fwd[1]: expected a pair of element names"),
    ({"fwd": [["zz", "w0"]], "bwd": [["zz", "w0"]]}, "fwd[0]: unknown element 'zz'"),
    ({"fwd": [["w0", "w1"], "ab"], "bwd": [["w0", "w1"], "ab"]}, "fwd[1]: expected a pair of element names"),
    ({"fwd": "ab", "bwd": "ab"}, "fwd: expected a list of pairs"),
    ({"fwd": 5, "bwd": 5}, "fwd: expected a list of pairs"),
    ({"fwd": {"w0": "w1"}, "bwd": {"w0": "w1"}}, "fwd: expected a list of pairs"),
])
@pytest.mark.parametrize("name", MIRROR_SIGS)
def test_self_pair_documents_raise_as_two_reads(doc, message, name):
    # A document malformed alike in both lists raises what the two-direction
    # read raises: the first malformed fwd entry, or the fwd list itself.
    m = random_model(3, RELATIONS, ["P1"], 0.4, 0.5, 5)
    for m2 in (m, load(save(m))):
        with pytest.raises(asim.RelationError) as caught:
            asim.is_asimulation(STANDARD[name], ["P1"], m, m2, doc)
        assert str(caught.value) == message


# -- single outside pairs: the verifier stops at the first failing row

# The reference signatures, a degree-0 cut, a special core without a
# negation, and degree-2 connectives on rest cores.
OUTSIDE_SIGS = [*ALL_SIGS, "negation", "exists_special", "rest_core_degree2"]


def outside_pair_cases(seed, sig):
    """(m1, m2, document, mirrored) over seeded pairs of two models and self
    pairs: the largest asimulation with one pair outside it added to fwd
    alone, to bwd alone, and one to each.  The added pairs keep every atom
    where they can, so a connective's condition is what fails.  On a self
    pair, the same pair added to both lists makes them equal, so the
    document is read mirrored."""
    for rng, m1, m2 in model_pairs(seed, 8):
        for mx, my in ((m1, m2), (m1, m1)):
            theta = theta_of(mx, my)
            doc = asim.largest_asimulation(sig, theta, mx, my).to_doc()
            atoms = asim.atom_preserving(mx, my, theta).to_doc()
            outside = {}
            for d, xs, ys in (("fwd", mx.domain, my.domain), ("bwd", my.domain, mx.domain)):
                pairs = [[x, y] for x in xs for y in ys if [x, y] not in doc[d]]
                outside[d] = [p for p in pairs if p in atoms[d]] or pairs
            if not outside["fwd"] or not outside["bwd"]:
                continue
            for _ in range(3):
                f, b = rng.choice(outside["fwd"]), rng.choice(outside["bwd"])
                yield mx, my, {"fwd": sorted(doc["fwd"] + [f]), "bwd": doc["bwd"]}, False
                yield mx, my, {"fwd": doc["fwd"], "bwd": sorted(doc["bwd"] + [b])}, False
                yield mx, my, {"fwd": sorted(doc["fwd"] + [f]), "bwd": sorted(doc["bwd"] + [b])}, False
                if mx is my and f in outside["bwd"]:
                    yield mx, my, {"fwd": sorted(doc["fwd"] + [f]), "bwd": sorted(doc["bwd"] + [f])}, True


@pytest.mark.parametrize("name", OUTSIDE_SIGS)
def test_single_outside_pairs_match_reference(name):
    # Each report, in order, with its pair, direction, endpoint path and
    # detail, equals the reference's, which checks every pair.  The counts
    # guard against vacuity: conditions fail in each direction, and some
    # documents are read mirrored.
    sig = STANDARD[name]
    failed = {asim.FWD: 0, asim.BWD: 0}
    mirrored = 0
    for m1, m2, doc, equal_lists in outside_pair_cases(sum(map(ord, name)) * 29, sig):
        theta = theta_of(m1, m2)
        got = asim.is_asimulation(sig, theta, m1, m2, doc)
        rel = CrossRelation(*(frozenset(map(tuple, doc[d])) for d in ("fwd", "bwd")))
        assert got == ref.is_asimulation(sig, theta, m1, m2, rel), doc
        for report in got:
            failed[report.direction] += report.condition != "atom"
        mirrored += equal_lists
    assert min(failed.values()) >= 30 and mirrored >= 15, (failed, mirrored)


def test_verifier_stops_at_the_first_failing_row(monkeypatch):
    # Each call of the verifier's check of one condition follows its row
    # loops row by row.  A condition that passes computes every row, in one
    # direction when its inputs are mirrored and in both otherwise.  Once a
    # row fails, the loop computes no later row and no other direction: a
    # fwd failure computes no bwd row.
    calls = []  # per check: [condition, mirrored, [[candidate rows, rows computed], ...], report]
    running = []  # the check running now
    kept, violation = asim._Condition._kept, asim._Condition.violation

    def logged_violation(self, cand, witnesses, m1, m2):
        call = [self, asim._mirrored(cand, *witnesses), [], None]
        running.append(call)
        try:
            call[3] = violation(self, cand, witnesses, m1, m2)
        finally:
            running.pop()
        calls.append(call)
        return call[3]

    def logged_kept(self, cand, *args):
        rows = kept(self, cand, *args)
        if not running:
            yield from rows  # a witness's rows, computed before the check
            return
        loop = [cand, []]
        running[-1][2].append(loop)
        for row in rows:
            loop[1].append(row)
            yield row

    monkeypatch.setattr(asim._Condition, "violation", logged_violation)
    monkeypatch.setattr(asim._Condition, "_kept", logged_kept)
    stops = {asim.FWD: 0, asim.BWD: 0}
    early = 0  # failures with later rows left uncomputed
    for name in OUTSIDE_SIGS:
        sig = STANDARD[name]
        for m1, m2, doc, _ in outside_pair_cases(sum(map(ord, name)) * 31, sig):
            calls.clear()
            asim.is_asimulation(sig, theta_of(m1, m2), m1, m2, doc)
            for cond, mirrored, loops, report in calls:
                if report is None:
                    assert len(loops) == (1 if mirrored else 2)
                    assert all(len(done) == len(cand) for cand, done in loops)
                    continue
                assert len(loops) == (1 if report.direction == asim.FWD else 2), (cond, report)
                for cand, done in loops[:-1]:
                    assert done == cand  # bwd fails after the whole of fwd passed
                cand, done = loops[-1]
                mx = m1 if report.direction == asim.FWD else m2
                i = mx.index[report.pair[0]]
                assert len(done) == i + 1 and done[:i] == cand[:i] and done[i] != cand[i]
                stops[report.direction] += 1
                early += i + 1 < len(cand)
    assert min(stops.values()) >= 300 and early >= 500, (stops, early)
