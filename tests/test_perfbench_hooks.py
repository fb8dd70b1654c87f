"""The benchmark's hooks into the package, checked without editing
anything under perfbench/: its tracer installs against the package, traces
one small ``largest``, ``check`` and ``experiment`` command without changing
their output and reads its per-layer metrics back; and its self-test
passes."""

import importlib.util
import os
import subprocess
import sys

from guardasim.cli import main

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")
DATA = os.path.join(ROOT, "tests", "data")


def _tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", os.path.join(PERFBENCH, "tracer.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _commands(tmp_path):
    models = ["--fragment", os.path.join(DATA, "sig_modal.json"),
              "--m1", os.path.join(DATA, "m_chain.json"), "--m2", os.path.join(DATA, "m_chain.json")]
    relation = tmp_path / "rel.json"
    return relation, [
        ["largest", *models],
        ["check", *models, "--relation", str(relation)],
        ["experiment", "--fragment", os.path.join(DATA, "sig_modal.json"),
         "--trials", "1", "--depth", "2", "--seed", "3"],
    ]


def _run(capsys, commands, relation, tracer=None):
    got = []
    for op, argv in enumerate(commands):
        if tracer is not None:
            tracer.op = op
        code = main(argv)
        out = capsys.readouterr().out
        if argv[0] == "largest":
            relation.write_text(out)
        got.append((code, out))
    return got


def test_tracer_traces_the_cli(capsys, tmp_path):
    module = _tracer_module()
    relation, commands = _commands(tmp_path)
    want = _run(capsys, commands, relation)
    tracer = module.Tracer()
    tracer.install()
    try:
        got = _run(capsys, commands, relation, tracer)
    finally:
        tracer.uninstall()
    assert got == want
    assert [code for code, _ in got] == [0, 0, 0]
    metrics = tracer.layer_metrics(range(len(commands)))
    assert set(metrics) == set(module.PER_LAYER_UNITS) - {"trace.ops_per_s_ratio"}
    assert all(value >= 0 for value in metrics.values())
    largest, check, experiment = (tracer.layer_metrics([op]) for op in range(len(commands)))
    assert largest["asim.largest_asimulation.calls"] == 1 and largest["asim.pairs_kept"] > 0
    assert check["asim.is_asimulation.calls"] == 1 and check["asim.largest_asimulation.calls"] == 0
    assert experiment["asim.largest_asimulation.calls"] == 1 and experiment["formula.self_s"] > 0


def test_benchmark_selftest_passes():
    got = subprocess.run([sys.executable, os.path.join(PERFBENCH, "selftest.py")],
                         cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert got.returncode == 0, got.stdout + got.stderr
