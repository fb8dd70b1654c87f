"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py

1. Stable seeding: each workload's inputs, generated in two processes with
   different PYTHONHASHSEED values, are byte-identical.
2. Derived enumeration candidates: on fixed instances,
   ``semantic_classes(budget=C)`` succeeds and ``budget=C-1`` raises
   ``BudgetExceeded``, where C is what tracer.enumeration_candidates derives
   from the result.

Exits 0 when every test passes.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")
SEED = 7


def inputs_digest(workload: str, seed: int, workdir: str) -> str:
    """Generate a workload's inputs into workdir and digest every file."""
    from workloads import WORKLOADS

    WORKLOADS[workload][0](seed, workdir, ROOT)
    digest = hashlib.sha256()
    for name in sorted(os.listdir(workdir)):
        digest.update(name.encode() + b"\0")
        with open(os.path.join(workdir, name), "rb") as fh:
            digest.update(fh.read() + b"\0")
    return digest.hexdigest()


def test_hash_seed_independence() -> list[str]:
    problems = []
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="selftest-", dir=OUT_DIR)
    try:
        for workload in ("largest", "check", "experiment"):
            digests = []
            for hash_seed in ("1", "4242"):
                target = os.path.join(workdir, workload)
                shutil.rmtree(target, ignore_errors=True)
                os.mkdir(target)
                env = dict(os.environ, PYTHONHASHSEED=hash_seed)
                got = subprocess.run(
                    [sys.executable, os.path.abspath(__file__), "--digest", workload, target],
                    env=env, capture_output=True, text=True, check=True,
                )
                digests.append(got.stdout.strip())
            if digests[0] != digests[1]:
                problems.append(f"{workload}: inputs differ between PYTHONHASHSEED values")
            print(f"{workload}: inputs {digests[0][:16]} under both hash seeds"
                  if digests[0] == digests[1] else f"{workload}: {digests}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return problems


def test_candidates_match_budget() -> list[str]:
    import random

    from guardasim import connective, formula, model

    from tracer import enumeration_candidates
    from workloads import SIGNATURES

    problems = []
    for sig_name, conns in SIGNATURES.items():
        sig = connective.FragmentSignature.from_dict({"connectives": conns})
        for k in range(4):
            rng = random.Random(1000 * k + len(sig_name))
            m1 = model.random_model(rng.randint(1, 5), ["R1", "R2", "R3"], ["P1", "P2"], 0.3, 0.5, rng.randrange(1 << 30))
            m2 = model.random_model(rng.randint(1, 5), ["R1", "R2", "R3"], ["P1", "P2"], 0.3, 0.5, rng.randrange(1 << 30))
            depth = 2 + k % 2
            classes = formula.semantic_classes(sig, ["P1", "P2"], depth, m1, m2, None)
            c = enumeration_candidates(sig, depth, classes)
            formula.semantic_classes(sig, ["P1", "P2"], depth, m1, m2, c)
            try:
                formula.semantic_classes(sig, ["P1", "P2"], depth, m1, m2, c - 1)
                problems.append(f"{sig_name} #{k}: budget {c - 1} did not run out")
            except formula.BudgetExceeded:
                pass
            print(f"{sig_name} #{k}: depth {depth}, {len(classes)} classes, {c} candidates")
    return problems


def main() -> int:
    sys.path.insert(0, SRC)
    if sys.argv[1:2] == ["--digest"]:
        print(inputs_digest(sys.argv[2], SEED, sys.argv[3]))
        return 0
    problems = test_hash_seed_independence() + test_candidates_match_budget()
    for problem in problems:
        print(f"FAIL: {problem}", file=sys.stderr)
    print("self-test", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
