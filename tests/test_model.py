"""Model construction, serialization, guard chains, random generation."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from guardasim.bitrows import bits, transpose
from guardasim.formula import _model_preds, eval_fo, parse_fo
from guardasim.model import (
    Model,
    ModelError,
    PointedModel,
    dumps,
    load,
    loads,
    random_model,
    save,
)


class TestLoadSave:
    def test_minimal_document(self):
        m = load({"domain": ["w"], "relations": {}, "predicates": {}})
        assert m.domain == ("w",)
        assert not m.relations and not m.predicates

    def test_round_trip_is_canonical_identity(self):
        doc = {
            "domain": ["w0", "w1"],
            "relations": {"R1": [["w0", "w1"], ["w0", "w0"]]},
            "predicates": {"P1": ["w1", "w0"]},
        }
        canonical = save(load(doc))
        assert canonical == {
            "domain": ["w0", "w1"],
            "relations": {"R1": [["w0", "w0"], ["w0", "w1"]]},
            "predicates": {"P1": ["w0", "w1"]},
        }
        assert save(load(canonical)) == canonical

    def test_unknown_element_named_in_error(self):
        with pytest.raises(ModelError, match="relations.R1\\[0\\].*'ghost'"):
            load({"domain": ["w"], "relations": {"R1": [["w", "ghost"]]}, "predicates": {}})
        with pytest.raises(ModelError, match="predicates.P1\\[0\\].*'ghost'"):
            load({"domain": ["w"], "relations": {}, "predicates": {"P1": ["ghost"]}})

    def test_bad_symbol_names(self):
        with pytest.raises(ModelError, match="not a relation symbol"):
            load({"domain": ["w"], "relations": {"edge": []}, "predicates": {}})
        with pytest.raises(ModelError, match="not a predicate symbol"):
            load({"domain": ["w"], "relations": {}, "predicates": {"Q1": []}})

    def test_symbol_names_with_trailing_newline(self):
        with pytest.raises(ModelError) as err:
            load({"domain": ["a"], "relations": {"R1\n": [["a", "a"]]}, "predicates": {}})
        assert str(err.value) == "relations.R1\n: not a relation symbol (expected R<digits>)"
        with pytest.raises(ModelError) as err:
            load({"domain": ["a"], "relations": {}, "predicates": {"P1\n": ["a"]}})
        assert str(err.value) == "predicates.P1\n: not a predicate symbol (expected P<digits>)"

    def test_malformed_documents(self):
        with pytest.raises(ModelError):
            load(["not", "an", "object"])
        with pytest.raises(ModelError):
            load({"domain": ["w"], "extra": 1})
        with pytest.raises(ModelError):
            loads("{not json")
        with pytest.raises(ModelError):
            load({"domain": []})
        with pytest.raises(ModelError):
            load({"domain": ["w", "w"]})

    def test_dumps_loads_inverse(self):
        m = random_model(4, ["R1", "R2"], ["P1"], 0.5, 0.5, 99)
        assert loads(dumps(m)) == m


class TestQueries:
    def chain(self):
        return load({
            "domain": ["a", "b", "c"],
            "relations": {"R1": [["a", "b"]], "R2": [["b", "c"]]},
            "predicates": {"P1": ["c"]},
        })

    def test_single_edge(self):
        assert self.chain().guard_endpoints(["R1"], "a") == frozenset({"b"})

    def test_composition(self):
        assert self.chain().guard_endpoints(["R1", "R2"], "a") == frozenset({"c"})

    def test_isolated_point(self):
        assert self.chain().guard_endpoints(["R1"], "c") == frozenset()

    def test_unknown_relation_is_empty(self):
        assert self.chain().guard_endpoints(["R9"], "a") == frozenset()

    def test_unknown_start_rejected(self):
        with pytest.raises(ModelError):
            self.chain().guard_endpoints(["R1"], "zz")

    def test_guard_path_witness(self):
        assert self.chain().guard_path(["R1", "R2"], "a", "c") == ("a", "b", "c")
        assert self.chain().guard_path(["R1"], "a", "c") is None

    def test_pointed_model_validation(self):
        m = self.chain()
        assert PointedModel(m, "a").point == "a"
        with pytest.raises(ModelError):
            PointedModel(m, "zz")


class TestRowViews:
    """``relations`` and ``predicates`` are built from the rows; the queries,
    ``save`` and ``==`` read the rows."""

    DOC = {
        "domain": ["b", "a", "c"],
        "relations": {"R1": [["b", "a"], ["a", "c"]], "R2": []},
        "predicates": {"P1": [], "P2": ["c", "b"]},
    }

    def test_declared_empty_names_stay(self):
        m = load(self.DOC)
        assert m.relations == {"R1": frozenset({("b", "a"), ("a", "c")}), "R2": frozenset()}
        assert m.predicates == {"P1": frozenset(), "P2": frozenset({"b", "c"})}
        assert save(m) == {
            "domain": ["b", "a", "c"],
            "relations": {"R1": [["a", "c"], ["b", "a"]], "R2": []},
            "predicates": {"P1": [], "P2": ["b", "c"]},
        }
        assert repr(m) == "Model(|U|=3, R=['R1', 'R2'], P=['P1', 'P2'])"
        assert _model_preds(m, load({"domain": ["d"]})) == ["P1", "P2"]
        for key, name in (("relations", "R2"), ("predicates", "P1")):
            doc = dict(self.DOC, **{key: {k: v for k, v in self.DOC[key].items() if k != name}})
            assert load(doc) != m and m != load(doc)

    def test_duplicates_collapse(self):
        pairs = [("a", "b"), ["a", "b"], ("b", "b"), ("a", "b")]
        m = Model(["a", "b"], {"R1": pairs}, {"P1": ["a", "a", "b"]})
        assert m.relations == {"R1": frozenset({("a", "b"), ("b", "b")})}
        assert m.predicates == {"P1": frozenset({"a", "b"})}
        assert save(m)["relations"] == {"R1": [["a", "b"], ["b", "b"]]}
        assert save(m)["predicates"] == {"P1": ["a", "b"]}
        assert m == Model(["a", "b"], {"R1": [("b", "b"), ("a", "b")]}, {"P1": ["b", "a"]})

    def test_lists_and_sets_of_pairs_compare_equal(self):
        pairs = [("a", "b"), ("b", "a"), ("b", "b")]
        as_lists = Model(["a", "b"], {"R1": [list(p) for p in pairs]}, {"P1": ["a"]})
        as_sets = Model(["a", "b"], {"R1": set(pairs)}, {"P1": {"a"}})
        as_frozensets = Model(["a", "b"], {"R1": frozenset(pairs)}, {"P1": frozenset({"a"})})
        assert as_lists == as_sets == as_frozensets and as_sets == as_lists
        assert as_lists.relations == as_sets.relations and save(as_lists) == save(as_frozensets)
        assert as_lists != Model(["b", "a"], {"R1": pairs}, {"P1": ["a"]})

    def test_queries_outside_the_domain_are_false(self):
        m = load(self.DOC)
        assert m.has_pred("P2", "b") and not m.has_pred("P2", "a")
        assert not m.has_pred("P2", "zz") and not m.has_pred("P9", "b")
        assert m.has_rel("R1", "b", "a") and not m.has_rel("R1", "a", "b")
        for x, y in (("zz", "a"), ("b", "zz"), ("zz", "zz")):
            assert not m.has_rel("R1", x, y)
        assert not m.has_rel("R9", "b", "a")
        for text, env in (("P2(x)", {"x": "zz"}), ("R1(x,y)", {"x": "zz", "y": "a"}),
                          ("R1(x,y)", {"x": "b", "y": "zz"}), ("R9(x,y)", {"x": "b", "y": "a"})):
            assert eval_fo(m, env, parse_fo(text)) is False
        assert eval_fo(m, {"x": "b", "y": "a"}, parse_fo("R1(x,y)")) is True
        assert eval_fo(m, {"x": "b"}, parse_fo("P2(x)")) is True

    def test_save_lists_pairs_in_name_order(self):
        # generator names in shuffled order: neither the index order nor
        # w0 < w1 < w2 is the name order (w10 < w2)
        rng = random.Random(5)
        names = [f"w{i}" for i in range(16)]
        rng.shuffle(names)
        pairs = [(x, y) for x in names for y in names if rng.random() < 0.3]
        holders = [x for x in names if rng.random() < 0.5]
        m = Model(names, {"R1": pairs + pairs[:5]}, {"P1": holders})
        assert save(m) == {"domain": names, "relations": {"R1": [list(p) for p in sorted(set(pairs))]},
                           "predicates": {"P1": sorted(holders)}}
        assert load(save(m)) == m


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=0, max_value=2),
    st.integers(min_value=0, max_value=2),
    st.integers(min_value=0, max_value=10_000),
)
def test_guard_chain_composition_law(n, k1, k2, seed):
    m = random_model(n, ["R1", "R2", "R3"], [], 0.4, 0.0, seed)
    g1 = ["R1", "R2", "R3"][:k1]
    g2 = ["R3", "R1"][:k2]
    for start in m.domain:
        combined = m.guard_endpoints(list(g1) + list(g2), start)
        stepwise = frozenset(
            c for b in m.guard_endpoints(g1, start) for c in m.guard_endpoints(g2, b)
        )
        assert combined == stepwise


def rows_of(m, pairs):
    """Bit rows rebuilt from element-name pairs."""
    rows = [0] * len(m)
    for a, b in pairs:
        rows[m.index_of(a)] |= 1 << m.index_of(b)
    return tuple(rows)


@pytest.mark.parametrize("container", [list, tuple, set, frozenset])
def test_chain_rows_match_relations(container):
    # Names whose sorted order differs from their index order; R3 is absent.
    names = ["b", "a10", "a2", "c", "a"]
    rng = random.Random(container.__name__)
    for _ in range(20):
        rels = {}
        for r in ("R1", "R2"):
            pairs = [(x, y) for x in names for y in names if rng.random() < 0.3]
            pairs += rng.sample(pairs, min(3, len(pairs)))
            rels[r] = container(list(p) if container is list else p for p in pairs)
        m = Model(names, rels)
        r1, r2 = set(map(tuple, rels["R1"])), set(map(tuple, rels["R2"]))
        composed = {(a, c) for a, b in r1 for b2, c in r2 if b == b2}
        for guards, pairs in ((("R1",), r1), (("R2",), r2), (("R1", "R2"), composed),
                              (("R3",), ()), (("R1", "R3"), ()), (("R3", "R1"), ()),
                              ((), [(x, x) for x in names])):
            ends, sources, dead = m.chain_rows(guards)
            assert ends == rows_of(m, pairs), guards
            assert sources == rows_of(m, ((b, a) for a, b in pairs)), guards
            # dead: the elements with no endpoint along the chain
            assert dead == sum(1 << m.index[x] for x in names if all(a != x for a, _ in pairs)), guards


def test_endpoint_indices_list_the_chain_rows():
    rng = random.Random(7)
    for n in (1, 5, 40):
        m = random_model(n, ["R1", "R2"], [], 0.2, 0.0, rng.randrange(1 << 30))
        for guards in (("R1",), ("R1", "R2"), ("R3",), ()):
            got = m.endpoint_indices(guards)
            assert got == tuple(tuple(j for j in range(n) if row >> j & 1) for row in m.chain_rows(guards)[0])
            assert m.endpoint_indices(list(guards)) is got  # built once per guard tuple


@pytest.mark.parametrize("edge_prob", [0.05, 0.3, 0.9])
@pytest.mark.parametrize("endpoints_first", [False, True])
def test_one_walk_fills_sources_dead_and_endpoints(edge_prob, endpoints_first):
    # The walk that compiles a chain fills its sources, its dead row and its
    # endpoint tuples at once: the same as transposing the ends, collecting
    # the rows with no endpoint and listing each row's bits.  Dense models
    # (0.9) reach the strided-slice transpose; R3 is absent, R2 sometimes.
    rng = random.Random(int(edge_prob * 100) + endpoints_first)
    for n in (1, 2, 7, 30, 64):
        rels = ["R1", "R2"] if rng.random() < 0.7 else ["R1"]
        m = random_model(n, rels, ["P1"], edge_prob, 0.5, rng.randrange(1 << 30))
        for guards in (("R1",), ("R2",), ("R1", "R2"), ("R2", "R1", "R1"), ("R3",), ("R1", "R3"),
                       ("R3", "R1"), ()):
            if endpoints_first:
                points = m.endpoint_indices(guards)
            ends, sources, dead = m.chain_rows(guards)
            if not endpoints_first:
                points = m.endpoint_indices(guards)
            assert sources == tuple(transpose(ends, n)), guards
            assert dead == sum(1 << i for i, row in enumerate(ends) if not row), guards
            assert points == tuple(tuple(bits(row)) for row in ends), guards
            assert m.chain_rows(list(guards)) is m.chain_rows(guards)
            assert m.endpoint_indices(list(guards)) is points


class TestRandomModel:
    def test_edgeless_at_probability_zero(self):
        m = random_model(5, ["R1"], ["P1"], 0.0, 0.5, 7)
        assert m.rel_pairs("R1") == frozenset()

    def test_complete_at_probability_one(self):
        m = random_model(4, ["R1"], [], 1.0, 0.0, 7)
        assert len(m.rel_pairs("R1")) == 16

    def test_seed_determinism(self):
        a = random_model(6, ["R1", "R2"], ["P1", "P2"], 0.3, 0.4, 123)
        b = random_model(6, ["R1", "R2"], ["P1", "P2"], 0.3, 0.4, 123)
        assert a == b
        c = random_model(6, ["R1", "R2"], ["P1", "P2"], 0.3, 0.4, 124)
        assert a != c or save(a) == save(c)  # different seed, almost surely different

    def test_input_validation(self):
        with pytest.raises(ValueError):
            random_model(0, ["R1"], [], 0.5, 0.5, 1)
        with pytest.raises(ValueError):
            random_model(2, ["R1"], [], 1.5, 0.5, 1)
