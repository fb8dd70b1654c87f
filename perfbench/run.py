"""guardasim CLI benchmark.

    python3 perfbench/run.py --workload {largest,check,experiment} --seed N --seconds S --trace {0,1}
    python3 perfbench/run.py --workload all ...   (each workload in its own process)

Run from a source checkout: the library is imported from ``src/`` beside this
directory.  One process runs one workload as a closed loop with one client:
``guardasim.cli.main(argv)`` is called in-process, one operation at a time,
with stdout and stderr captured.  Set-up (importing guardasim, generating the
seeded inputs and writing the files) runs at least SETUP_REPEATS times and
SETUP_MIN_S seconds.  The timed phase repeats the workload's pass of at least
MIN_OPS distinct operations until ``--seconds`` have passed.  Only whole
passes run, so every run measures the same mix whatever its speed.  Every
output is checked afterwards.

The speed of a shared machine swings by tens of percent for seconds to
minutes at a time.  So a fixed piece of pure-Python work, the probe, runs
between every two operations and around every set-up, and each wall time is
scaled by PROBE_REFERENCE_S over the median probe time around it: the time
at the speed where the probe takes PROBE_REFERENCE_S.  An operation's time is
the fastest of its scaled times over the passes; ops_per_s is the pass
length over the sum of these times, op_p50_ms and op_p90_ms are their
quantiles, and setup_s is the median scaled set-up time.  The unscaled
figures are printed beside them.

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of perfbench/tracer.py (unscaled), summed over the first pass, so
counts repeat exactly for a seed.  The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")

SETUP_REPEATS = 3
# Set-up repeats until it has also taken this long: writing the files stalls
# now and then for a tenth of a second, which the median of a few more hides.
SETUP_MIN_S = 1.5
MIN_OPS = 100
PROBE_REFERENCE_S = 0.004
# Probes on each side of an operation whose median gauges the speed around it.
PROBE_WINDOW = 3
# Operations run again untraced after a traced run, to compare outputs and time.
REPLAY_OPS = 30

E2E_UNITS = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=["largest", "check", "experiment", "all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return p.parse_args(argv)


def import_guardasim():
    """Import guardasim afresh from this checkout's sources."""
    for name in [n for n in sys.modules if n == "guardasim" or n.startswith("guardasim.")]:
        del sys.modules[name]
    cli = importlib.import_module("guardasim.cli")
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise RuntimeError(f"guardasim was imported from {cli.__file__}, not from {SRC}")
    return cli


def probe() -> float:
    """Seconds one fixed piece of dict, tuple and string work takes now."""
    start = time.perf_counter()
    table = {}
    for i in range(3000):
        key = (f"w{i % 211}", i % 17)
        table[key] = table.get(key, 0) + i
    sorted(table.items())
    return time.perf_counter() - start


def set_up(workload: str, seed: int, workdir: str):
    """Set up at least SETUP_REPEATS times and SETUP_MIN_S seconds; returns
    the CLI module, the pass, and the median set-up time scaled like the
    operations', and unscaled."""
    from workloads import WORKLOADS

    setup_fn = WORKLOADS[workload][0]
    scaled, unscaled = [], []
    target = None
    while len(unscaled) < SETUP_REPEATS or sum(unscaled) < SETUP_MIN_S:
        if target is not None:
            shutil.rmtree(target)
        target = os.path.join(workdir, f"setup{len(unscaled)}")
        os.mkdir(target)
        before = probe()
        start = time.perf_counter()
        cli = import_guardasim()
        ops = setup_fn(seed, target, ROOT)
        seconds = time.perf_counter() - start
        unscaled.append(seconds)
        scaled.append(seconds * PROBE_REFERENCE_S / statistics.median([before, probe()]))
    return cli, ops, statistics.median(scaled), statistics.median(unscaled), len(unscaled)


def call(cli, op):
    """One operation: (exit code or None when main raised, stdout, stderr, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.main(op.argv)
        except (Exception, SystemExit) as e:
            code = None
            print(f"main raised {e!r}", file=err)
        seconds = time.perf_counter() - start
    return code, out.getvalue(), err.getvalue(), seconds


def run_ops(cli, ops, tracer=None, first_id=0):
    """Call each operation once.  Returns tuples (op, exit code, stdout,
    stderr, wall seconds, scaled seconds)."""
    probes = [probe()]
    raw = []
    for j, op in enumerate(ops):
        if tracer is not None:
            tracer.op = first_id + j
        raw.append((op, *call(cli, op)))
        probes.append(probe())
    results = []
    for j, r in enumerate(raw):
        around = statistics.median(probes[max(0, j + 1 - PROBE_WINDOW): j + 1 + PROBE_WINDOW])
        results.append((*r, r[4] * PROBE_REFERENCE_S / around))
    return results


def timed_phase(cli, ops, seconds: float, tracer=None):
    """Run whole passes over ops until the time is reached.  A repeated
    operation keeps its stdout and stderr only when they differ from its
    first run, so memory does not grow with the number of passes."""
    if len(ops) < MIN_OPS:
        raise ValueError(f"a pass holds {len(ops)} operations, fewer than {MIN_OPS}")
    start = time.perf_counter()
    results = run_ops(cli, ops, tracer)
    first = {r[0].key: r[1:3] for r in results}
    while time.perf_counter() - start < seconds:
        for op, code, out, err, *times in run_ops(cli, ops, tracer, len(results)):
            if (code, out) == first[op.key]:
                out = err = None
            results.append((op, code, out, err, *times))
    return results


def count_failures(workload: str, results) -> int:
    """Check every output.  A repeated operation must reproduce the exit code
    and stdout of its first run, which gets the full check; out is None when
    it did."""
    from workloads import WORKLOADS

    check_fn = WORKLOADS[workload][1]
    verdicts = {}
    failed = 0
    for op, code, out, err, *_ in results:
        first = verdicts.get(op.key)
        if first is None:
            try:
                ok = code is not None and check_fn(op, code, out, err)
            except (ValueError, KeyError, TypeError) as e:
                print(f"check of {op.argv} raised {e!r}", file=sys.stderr)
                ok = False
            verdicts[op.key] = first = (ok, code, out)
        ok = first[0] and (out is None or (code, out) == first[1:])
        if not ok:
            print(f"failed: {' '.join(op.argv)} (exit {code}) {err.strip()[-300:]}", file=sys.stderr)
            failed += 1
    return failed


def e2e_metrics(results, setup_s: float, column: int = 5) -> dict[str, float]:
    """End-to-end figures over each operation's fastest time; column 5 holds
    scaled times, column 4 wall times."""
    best: dict[int, float] = {}
    for r in results:
        best[r[0].key] = min(r[column], best.get(r[0].key, r[column]))
    times = list(best.values())
    return {
        "ops_per_s": len(times) / sum(times),
        "op_p50_ms": statistics.median(times) * 1000,
        "op_p90_ms": statistics.quantiles(times, n=10)[8] * 1000,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def trace_run(workload: str, seed: int, cli, ops, seconds: float):
    """Per-layer metrics and the traced run's self-checks.  Returns
    (metrics, results, problems)."""
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        results = timed_phase(cli, ops, seconds, tracer)
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics(range(len(ops)))
    problems = []

    # Tracing must not change any output: replay the first operations untraced.
    replay = run_ops(cli, ops[:REPLAY_OPS])
    for (op, code, out, *_), (_, code2, out2, *_) in zip(results, replay):
        if (code2, out2) != (code, out):
            problems.append(f"tracing changed the output of {' '.join(op.argv)}")
    metrics["trace.ops_per_s_ratio"] = sum(r[5] for r in replay) / sum(r[5] for r in results[:REPLAY_OPS])

    for name, value in metrics.items():
        if not value >= 0:
            problems.append(f"{name} is negative: {value}")
    if workload == "check":
        for name in ("asim.largest_asimulation.calls", "asim.preservation_relation.calls"):
            if metrics[name]:
                problems.append(f"{name} is {metrics[name]} on check")
        passing = [i for i, (op, *_rest) in enumerate(results[:len(ops)]) if op.info["expect"] == 0]
        witness = sum(tracer.witness_calls.get(i, 0) for i in passing)
        if witness:
            problems.append(f"{witness} witness paths built on passing checks")

    os.makedirs(OUT_DIR, exist_ok=True)
    tracer.write_spans(os.path.join(OUT_DIR, f"spans-{workload}-{seed}.jsonl"))
    return metrics, results, problems


def run_workload(args) -> int:
    if not os.path.isfile(os.path.join(SRC, "guardasim", "cli.py")):
        print(f"no guardasim sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR)
    try:
        cli, ops, setup_s, setup_unscaled, setups = set_up(args.workload, args.seed, workdir)
        if args.trace:
            metrics, results, problems = trace_run(args.workload, args.seed, cli, ops, args.seconds)
        else:
            results = timed_phase(cli, ops, args.seconds)
            problems = []
            metrics = e2e_metrics(results, setup_s)
            unscaled = e2e_metrics(results, setup_unscaled, column=4)
        failed = count_failures(args.workload, results)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    from tracer import PER_LAYER_UNITS

    units = PER_LAYER_UNITS if args.trace else E2E_UNITS
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    if {m["name"] for m in declared} != set(metrics):
        print("metrics differ from the ones BENCHMARK.json declares", file=sys.stderr)
        return 1

    n = len(results)
    print(f"workload {args.workload}, seed {args.seed}, {'traced' if args.trace else 'untraced'}: "
          f"{n} operations in {n // len(ops)} passes of {len(ops)}, {failed} failed, "
          f"fail_ratio {failed / n:.4f}")
    for name, value in metrics.items():
        if name == "trace.ops_per_s_ratio":
            samples = f"untraced over traced, first n={REPLAY_OPS} ops"
        elif args.trace:
            samples = f"summed over the first pass, n={len(ops)} ops"
        elif name == "setup_s":
            samples = f"median of n={setups} set-ups; unscaled {setup_unscaled:.4f}"
        elif name == "peak_rss_mb":
            samples = "n=1 process"
        else:
            samples = f"n={len(ops)} ops, each its best of {n // len(ops)} passes; unscaled {unscaled[name]:.4f}"
        print(f"  {name:40s} {value:14.6f} {units[name]:6s} ({samples})")
    for problem in problems:
        print(f"self-check: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": n,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    worst = 0
    for workload in ("largest", "check", "experiment"):
        argv = [sys.executable, os.path.abspath(__file__), "--workload", workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        worst = max(worst, subprocess.run(argv, check=False).returncode)
    return worst


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
