"""Seeded inputs, operations and output checks of the three benchmark workloads.

Each workload turns a workload seed into one pass: a list of CLI operations
with a fixed composition of signatures and sizes.  The seed only draws the
random models, verdict points, experiment seeds and the order of the pass.
That keeps the cost of a pass steady across seeds, so the end-to-end figures
measure the program and not the luck of the draw.

Every instance seed comes from the workload seed through ``zlib.crc32`` (never
``hash()``, whose value for strings changes from one process to the next), so
the same seed writes byte-identical input files in any process.
"""

from __future__ import annotations

import json
import os
import random
import zlib
from dataclasses import dataclass, field

# The three reference signatures of the test suite (tests/helpers.py).
SIGNATURES = {
    "modal": {
        "not": "{ ~p1 }",
        "box": "forall[R1]{ p1 }",
        "dia": "exists[R1]{ p1 }",
    },
    "intuitionistic": {"imp": "forall[R1]{ ~p1 | p2 }"},
    "modal_intuitionistic": {
        "lambda2": "forall[R1,R2]{ p1 }",
        "lambda3": "forall[R1] exists[R3]{ p1 }",
        "lambda5": "forall[R1]{ ~p1 | p2 }",
    },
}
MODAL, INT, MI = "modal", "intuitionistic", "modal_intuitionistic"

RELATIONS = ("R1", "R2", "R3")
# Out-degrees per relation, 2 on average, with some dead ends.
OUT_DEGREES = (0, 1, 2, 2, 3, 4)

# largest: per signature, (smallest size, largest size, instances).  Sizes
# follow a ladder skewed towards small models; the large
# modal-intuitionistic instances make up most of the slowest tenth.
LARGEST_LADDERS = {MODAL: (24, 144, 34), INT: (24, 144, 34), MI: (24, 88, 36)}
LADDER_SKEW = 2.5
# check: model pairs whose largest asimulation set-up computes.  Each pair
# appears in CHECK_VARIANTS copies with the elements renamed, and each copy
# is checked with its largest asimulation (exit 0) and with one outside pair
# added (exit 1).  The cheap modal pairs take the lowest quarter of the times
# and the modal-intuitionistic ones the highest, so the median falls among
# five intuitionistic pairs and the 90th percentile among three
# modal-intuitionistic ones, never in a gap between two clusters.
CHECK_PAIRS = (
    (MODAL, 80, "self"), (MODAL, 120, "pair"), (MODAL, 160, "self"),
    (INT, 88, "pair"), (INT, 96, "self"), (INT, 104, "pair"), (INT, 112, "self"), (INT, 120, "pair"),
    (MI, 60, "self"), (MI, 66, "pair"), (MI, 72, "self"),
)
CHECK_VARIANTS = 8
# experiment: one-trial calls per signature, by model size; both models of
# a trial have that size, so the cost mix does not depend on the seed.  A
# trial's time varies by about half its mean with the random models, so the
# quantiles need many trials: size 4 makes up the slowest ~45% of a pass and
# holds the 90th percentile, size 3 holds the median.
EXPERIMENT_TRIALS = {2: 36, 3: 72, 4: 84}
EXPERIMENT_DEPTH = 3
# The golden experiment argv of the test suite, split into one trial per seed.
GOLDEN_SEEDS = range(2024, 2030)
GOLDEN_FILE = os.path.join("tests", "data", "experiment_golden.jsonl")


def instance_seed(workload: str, seed: int, index: int) -> int:
    return zlib.crc32(f"{workload}:{seed}:{index}".encode())


def model_doc(rng: random.Random, n: int) -> dict:
    """A random model over R1-R3 and P1.  Element w0 is a dead end without P1
    in every model, so any two models have a non-empty asimulation.  The
    other elements take their out-degrees from a shuffled fixed list and half
    of them hold P1, so only the wiring varies between seeds."""
    domain = [f"w{i}" for i in range(n)]
    relations = {}
    for r in RELATIONS:
        degrees = [OUT_DEGREES[i % len(OUT_DEGREES)] for i in range(n - 1)]
        rng.shuffle(degrees)
        relations[r] = [
            [domain[i], domain[j]]
            for i, k in enumerate(degrees, start=1)
            for j in sorted(rng.sample(range(n), min(k, n)))
        ]
    predicates = {"P1": sorted(rng.sample(domain[1:], (n - 1) // 2), key=domain.index)}
    return {"domain": domain, "relations": relations, "predicates": predicates}


def _write_json(path: str, doc) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True)


@dataclass
class Op:
    """One CLI call and what its check needs to know."""

    argv: list[str]
    key: int  # ops with the same key are the same call
    info: dict = field(default_factory=dict)


def size_ladder(lo: int, hi: int, count: int) -> list[int]:
    return [round(lo * (hi / lo) ** ((i / (count - 1)) ** LADDER_SKEW)) for i in range(count)]


def _write_signatures(workdir: str) -> dict[str, str]:
    paths = {}
    for name, conns in SIGNATURES.items():
        paths[name] = os.path.join(workdir, f"sig_{name}.json")
        _write_json(paths[name], {"connectives": conns})
    return paths


def _write_pair(workdir: str, tag: str, rng: random.Random, n: int, kind: str):
    m1 = os.path.join(workdir, f"{tag}_m1.json")
    doc1 = model_doc(rng, n)
    _write_json(m1, doc1)
    if kind == "self":
        return m1, m1, doc1, doc1
    m2 = os.path.join(workdir, f"{tag}_m2.json")
    doc2 = model_doc(rng, n)
    _write_json(m2, doc2)
    return m1, m2, doc1, doc2


# -- largest ------------------------------------------------------------------------

def setup_largest(seed: int, workdir: str, root: str) -> list[Op]:
    sigs = _write_signatures(workdir)
    ops = []
    for sig, ladder in LARGEST_LADDERS.items():
        for i, n in enumerate(size_ladder(*ladder)):
            index = len(ops)
            rng = random.Random(instance_seed("largest", seed, index))
            kind = ("self", "pair")[i % 2]
            m1, m2, doc1, doc2 = _write_pair(workdir, f"l{index}", rng, n, kind)
            argv = ["largest", "--fragment", sigs[sig], "--m1", m1, "--m2", m2]
            points = None
            if i % 3 == 0:
                p1 = rng.choice(doc1["domain"])
                p2 = p1 if kind == "self" and rng.random() < 0.5 else rng.choice(doc2["domain"])
                points = (p1, p2)
                argv += ["--point1", p1, "--point2", p2]
            ops.append(Op(argv, index, {"sig": sigs[sig], "m1": m1, "m2": m2, "kind": kind, "points": points}))
    random.Random(instance_seed("largest-order", seed, 0)).shuffle(ops)
    return ops


def check_largest(op: Op, code: int, out: str, err: str) -> bool:
    from guardasim import asim, connective, model

    info = op.info
    doc = json.loads(out)
    m1 = model.load_file(info["m1"])
    m2 = model.load_file(info["m2"])
    rel = asim.relation_from_doc(doc, m1, m2)
    sig = connective.FragmentSignature.from_file(info["sig"])
    theta = sorted(set(m1.predicates) | set(m2.predicates))
    if asim.is_asimulation(sig, theta, m1, m2, rel):
        return False
    if info["kind"] == "self":
        diagonal = {(w, w) for w in m1.domain}
        if not (diagonal <= rel.fwd and diagonal <= rel.bwd):
            return False
    if info["points"] is None:
        return code == 0
    related = tuple(info["points"]) in rel.fwd
    return doc.get("verdict") == ("related" if related else "not related") and code == (0 if related else 1)


# -- check --------------------------------------------------------------------------

def renamed(doc: dict, names: dict) -> dict:
    return {
        "domain": sorted(names.values()),
        "relations": {r: sorted([names[a], names[b]] for a, b in pairs) for r, pairs in doc["relations"].items()},
        "predicates": {p: sorted(names[w] for w in ws) for p, ws in doc["predicates"].items()},
    }


def setup_check(seed: int, workdir: str, root: str) -> list[Op]:
    from guardasim import asim, connective, model

    sigs = _write_signatures(workdir)
    ops = []
    for index, (sig, n, kind) in enumerate(CHECK_PAIRS):
        rng = random.Random(instance_seed("check", seed, index))
        doc1 = model_doc(rng, n)
        doc2 = doc1 if kind == "self" else model_doc(rng, n)
        mod1, mod2 = model.load(doc1), model.load(doc2)
        theta = sorted(set(mod1.predicates) | set(mod2.predicates))
        rel = asim.largest_asimulation(connective.FragmentSignature.from_file(sigs[sig]), theta, mod1, mod2)
        for v in range(CHECK_VARIANTS):
            tag = f"c{index}v{v}"
            names1 = dict(zip(doc1["domain"], (f"a{i}" for i in rng.sample(range(n), n))))
            names2 = names1 if kind == "self" else dict(zip(doc2["domain"], (f"b{i}" for i in rng.sample(range(n), n))))
            m1 = os.path.join(workdir, f"{tag}_m1.json")
            _write_json(m1, renamed(doc1, names1))
            m2 = m1
            if kind != "self":
                m2 = os.path.join(workdir, f"{tag}_m2.json")
                _write_json(m2, renamed(doc2, names2))
            fwd = sorted([names1[x], names2[y]] for x, y in rel.fwd)
            bwd = sorted([names2[y], names1[x]] for y, x in rel.bwd)
            while True:
                outside = [names1[rng.choice(doc1["domain"])], names2[rng.choice(doc2["domain"])]]
                if outside not in fwd:
                    break
            for expect, rel_doc in ((0, {"fwd": fwd, "bwd": bwd}), (1, {"fwd": sorted(fwd + [outside]), "bwd": bwd})):
                path = os.path.join(workdir, f"{tag}_rel{expect}.json")
                _write_json(path, rel_doc)
                argv = ["check", "--fragment", sigs[sig], "--m1", m1, "--m2", m2, "--relation", path]
                ops.append(Op(argv, len(ops), {"expect": expect}))
    random.Random(instance_seed("check-order", seed, 0)).shuffle(ops)
    return ops


def check_check(op: Op, code: int, out: str, err: str) -> bool:
    """The largest asimulation passes with no report; one outside pair more
    makes a strict superset of it, which cannot be an asimulation."""
    reports = [json.loads(line) for line in out.splitlines()]
    if op.info["expect"] == 0:
        return code == 0 and not reports
    return code == 1 and len(reports) >= 1


# -- experiment ---------------------------------------------------------------------

def setup_experiment(seed: int, workdir: str, root: str) -> list[Op]:
    sigs = _write_signatures(workdir)
    with open(os.path.join(root, GOLDEN_FILE), "r", encoding="utf-8") as fh:
        golden = [json.loads(line) for line in fh]
    ops = []
    for k, trial_seed in enumerate(GOLDEN_SEEDS):
        argv = ["experiment", "--fragment", sigs[MODAL], "--seed", str(trial_seed), "--trials", "1",
                "--size-min", "1", "--size-max", "4", "--depth", "5"]
        ops.append(Op(argv, k, {"golden": golden[k]}))
    trials = []
    for sig in (MODAL, INT, MI):
        for n, count in EXPERIMENT_TRIALS.items():
            for _ in range(count):
                index = len(ops) + len(trials)
                path = os.path.join(workdir, f"e{index}.json")
                _write_json(path, {
                    "seed": instance_seed("experiment", seed, index) % (1 << 30),
                    "trials": 1, "size_min": n, "size_max": n, "depth": EXPERIMENT_DEPTH,
                    "fragment": sigs[sig], "relations": list(RELATIONS),
                })
                trials.append(Op(["experiment", "--config", path], index))
    random.Random(instance_seed("experiment-order", seed, 0)).shuffle(trials)
    return ops + trials


def check_experiment(op: Op, code: int, out: str, err: str) -> bool:
    """A trial passes unless truth fails to transfer along the fixpoint, the
    fixpoint leaves the preservation preorder, or the budget runs out.  The
    one other way to fail is a preorder still above the fixpoint at the
    largest depth (sandwich_depth null), which a trial may need more depth to
    close; it must then report exit 1."""
    records = [json.loads(line) for line in out.splitlines()]
    if len(records) != 1:
        return False
    rec = records[0]
    if "golden" in op.info:
        want = dict(op.info["golden"])
        got = dict(rec)
        want.pop("trial")
        got.pop("trial")
        return code == 0 and got == want
    if rec.get("invariance_violations") != 0 or "containment_failure" in rec or "budget_exhausted" in rec:
        return False
    closed = rec["sandwich_depth"] is not None
    return rec["pass"] is closed and code == (0 if closed else 1)


WORKLOADS = {
    "largest": (setup_largest, check_largest),
    "check": (setup_check, check_check),
    "experiment": (setup_experiment, check_experiment),
}
