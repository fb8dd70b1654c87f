"""The input readers against ``reference_readers``, the validating loops
they had before the bulk pass.

On seeded relation documents and models of hundreds of entries, both give
the same rows and sets, or raise the same error with the same message.  Each
malformed document or model holds one bad entry, put first, in the middle or
last, in ``fwd`` or ``bwd`` (in the first or the second relation, or in a
predicate list).  The bad entries cover every kind of
``test_asim_differential.RELATION_ERRORS`` and of
``test_asim_differential.test_model_error_messages``, plus floats, booleans,
null and nested lists.  A last test shows that well-formed input never
reaches the validating loops.
"""

import json
import os
import random

import pytest

import reference_readers as ref
from guardasim import asim, bitrows, cli, model
from guardasim.asim import BWD, FWD, RelationError
from guardasim.connective import FragmentSignature
from guardasim.model import Model, ModelError

SIG = os.path.join(os.path.dirname(__file__), "data", "sig_modal_int.json")

# Single-letter names, so that a two-letter string unpacks into two names.
DOMAIN1 = ["a", "c", *(f"a{k}" for k in range(22))]
DOMAIN2 = ["b", "d", *(f"b{k}" for k in range(18))]


def bad_pairs(x, y):
    """Entries that are not a pair of element names, around the names x, y."""
    return [
        x + y, 5, 1.5, True, None, {x: y}, [], [x], (x,), [x, y, x], (x, y, y),
        [x, 5], [5, y], [x, 1.5], [1.5, y], [True, y], [x, False], [None, y], [x, None],
        ["zz", y], [x, "zz"], ("zz", y), [[x], y], [x, [y]], [[x, y]], [(x,), y], [x, (y,)],
        [x, {y: 1}],
    ]


def bad_names(x):
    """Entries that are not an element name."""
    return [5, 1.5, True, None, "zz", [x], (x,), {x: 1}, [x, x]]


def positions(entries):
    return (0, len(entries) // 2, len(entries))


def outcome(fn, *args):
    try:
        return "value", fn(*args)
    except (RelationError, ModelError) as e:
        return "raised", type(e), str(e)


def pairs(rng, xs, ys, density):
    """Shuffled pairs as lists or tuples, a few of them repeated."""
    out = [rng.choice((list, tuple))((x, y)) for x in xs for y in ys if rng.random() < density]
    out += rng.sample(out, min(5, len(out)))
    rng.shuffle(out)
    return out


def documents(seed):
    """Valid documents of a few hundred entries in each direction."""
    rng = random.Random(seed)
    for density in (0.05, 0.3, 0.6, 0.9):
        yield {FWD: pairs(rng, DOMAIN1, DOMAIN2, density), BWD: pairs(rng, DOMAIN2, DOMAIN1, density)}


def library_doc_rows(doc):
    m1, m2 = Model(DOMAIN1), Model(DOMAIN2)
    return asim._doc_rows(doc, m1, m2)


def reference_doc_rows(doc):
    # a model's element indices are its names' ranks
    return ref.doc_rows(doc, sorted(DOMAIN1), sorted(DOMAIN2))


def test_valid_documents_match_reference():
    sizes = []
    for doc in documents(1):
        sizes.append(len(doc[FWD]))
        got = library_doc_rows(doc)
        assert got == reference_doc_rows(doc)
        m1, m2 = Model(DOMAIN1), Model(DOMAIN2)
        rows, _ = got
        assert asim.relation_from_doc(doc, m1, m2) == asim._relation(rows, m1, m2)
    assert max(sizes) >= 400


@pytest.mark.parametrize("key", [FWD, BWD])
def test_one_bad_entry_raises_as_reference(key):
    x, y = ("a", "b") if key == FWD else ("b", "a")
    for doc in documents(2):
        for bad in bad_pairs(x, y):
            for at in positions(doc[key]):
                entries = list(doc[key])
                entries.insert(at, bad)
                broken = {**doc, key: entries}
                want = outcome(reference_doc_rows, broken)
                assert want[0] == "raised" and f"{key}[{at}]" in want[2], (bad, at)
                assert outcome(library_doc_rows, broken) == want, (bad, at)


def test_document_level_errors_match_reference():
    for doc in ([["a", "b"]], {FWD: "ab"}, {FWD: [], BWD: ("b", "a")}, {FWD: {"a": "b"}}, {}):
        assert outcome(library_doc_rows, doc) == outcome(reference_doc_rows, doc), doc


def model_inputs(seed):
    """Valid model inputs: two relations of a few hundred pairs each, given
    as lists, tuples or sets, and predicate lists with repeats."""
    rng = random.Random(seed)
    for density in (0.1, 0.5, 0.9):
        relations = {
            "R1": pairs(rng, DOMAIN1, DOMAIN1, density),
            "R2": rng.choice((list, tuple, set))(map(tuple, pairs(rng, DOMAIN1, DOMAIN1, density))),
        }
        predicates = {
            "P1": [rng.choice(DOMAIN1) for _ in range(200)],
            "P2": rng.choice((tuple, frozenset))(rng.sample(DOMAIN1, 12)),
            "P3": [],
        }
        yield relations, predicates


def library_model(domain, relations, predicates):
    m = Model(domain, relations, predicates)
    steps = {name: list(m.chain_rows((name,))[0]) for name in m.relations}
    return steps, m.relations, m.predicates, {name: m.pred_row(name) for name in m.predicates}


def test_valid_models_match_reference():
    sizes = []
    for relations, predicates in model_inputs(3):
        sizes.append(len(relations["R1"]))
        want = ref.model_parts(sorted(DOMAIN1), relations, predicates)
        assert library_model(DOMAIN1, relations, predicates) == want
    assert max(sizes) >= 400


@pytest.mark.parametrize("name", ["R1", "R2"])
def test_one_bad_relation_entry_raises_as_reference(name):
    for relations, predicates in model_inputs(4):
        for bad in bad_pairs("a", "c"):
            for at in positions(relations[name]):
                entries = list(relations[name])
                entries.insert(at, bad)
                broken = {**relations, name: entries}
                want = outcome(ref.model_parts, DOMAIN1, broken, predicates)
                assert want[0] == "raised" and f"relations.{name}[{at}]" in want[2], (bad, at)
                assert outcome(library_model, DOMAIN1, broken, predicates) == want, (bad, at)


@pytest.mark.parametrize("name", ["P1", "P2"])
def test_one_bad_predicate_entry_raises_as_reference(name):
    for relations, predicates in model_inputs(5):
        for bad in bad_names("a"):
            for at in positions(predicates[name]):
                elems = list(predicates[name])
                elems.insert(at, bad)
                broken = {**predicates, name: elems}
                want = outcome(ref.model_parts, DOMAIN1, relations, broken)
                assert want[0] == "raised" and f"predicates.{name}[{at}]" in want[2], (bad, at)
                assert outcome(library_model, DOMAIN1, relations, broken) == want, (bad, at)


@pytest.mark.parametrize("relations,predicates", [
    ({"R1": [["a", "a"], ["a", "b"]]}, {"P1": ["b", "a"]}),
    ({"R1": [["a", 1]]}, {}),
    ({"R1": [[1, "a"]]}, {}),
    ({}, {"P1": ["a", 1]}),
    ({"R1": "ab"}, {}),
    ({}, {"P1": 5}),
])
def test_domain_with_a_non_string_element(relations, predicates):
    """A domain built in code may hold a non-string; the model refuses it
    before it reads a pair or a predicate, so no lookup can accept it."""
    domain = ["a", 1, "b"]
    got = outcome(library_model, domain, relations, predicates)
    assert got == ("raised", ModelError, "domain: expected a list of strings")


def refuse(*args):
    raise AssertionError("the validating loop ran")


def test_well_formed_input_takes_the_fast_pass(tmp_path, monkeypatch, capsys):
    """With every validating loop replaced by one that fails, ``check`` still
    reads a model pair and a relation document the size of the benchmark's,
    and a malformed document does reach the replaced loop."""
    sig = FragmentSignature.from_file(SIG)
    m1 = model.random_model(72, ["R1", "R2", "R3"], ["P1"], 0.03, 0.5, seed=11)
    m2 = model.random_model(72, ["R1", "R2", "R3"], ["P1"], 0.03, 0.5, seed=12)
    rel = asim.largest_asimulation(sig, ["P1"], m1, m2)
    assert len(rel.fwd) + len(rel.bwd) >= 200
    paths = {}
    for name, doc in (("m1", model.save(m1)), ("m2", model.save(m2)), ("rel", rel.to_doc()),
                      ("bad", {**rel.to_doc(), "bwd": rel.to_doc()["bwd"] + [["nosuch", "w0"]]})):
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(doc))
    monkeypatch.setattr(bitrows, "_checked_pairs", refuse)
    monkeypatch.setattr(bitrows, "_checked_names", refuse)
    argv = ["check", "--fragment", SIG, "--m1", str(paths["m1"]), "--m2", str(paths["m2"])]
    assert cli.main([*argv, "--relation", str(paths["rel"])]) == 0
    assert capsys.readouterr() == ("", "ok: the relation is an asimulation\n")
    with pytest.raises(AssertionError, match="the validating loop ran"):
        cli.main([*argv, "--relation", str(paths["bad"])])
