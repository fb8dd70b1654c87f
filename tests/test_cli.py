"""Command-line contract: exit codes, machine output, determinism."""

import json
import os
import subprocess
import sys

import pytest

from guardasim import cli
from guardasim.cli import main

DATA = os.path.join(os.path.dirname(__file__), "data")


def data(name):
    return os.path.join(DATA, name)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestClassifyBool:
    def test_implication_report(self, capsys):
        code, out, _ = run(capsys, "--json", "classify-bool", "--expr", "p1 -> p2")
        assert code == 0
        rec = json.loads(out)
        assert rec["is_rest"] and rec["is_tft"] and not rec["is_ftf"]
        assert rec["exists_special"] and not rec["forall_special"]
        assert rec["forms"]["two_sided_dnf"] == "p2 | ~p1"

    def test_constant(self, capsys):
        code, out, _ = run(capsys, "--json", "classify-bool", "--expr", "T")
        assert code == 0
        assert json.loads(out)["is_constant"]

    def test_triple_biconditional(self, capsys):
        code, out, _ = run(capsys, "--json", "classify-bool", "--expr", "(p1 <-> p2) <-> p3")
        assert code == 0
        rec = json.loads(out)
        assert rec["is_rest"] and rec["is_tft"] and rec["is_ftf"]
        assert not rec["forall_special"] and not rec["exists_special"]

    def test_parse_error_exits_2(self, capsys):
        code, _, err = run(capsys, "classify-bool", "--expr", "p1 &")
        assert code == 2 and "input error" in err


class TestClassifyConnective:
    def test_inline_spec(self, capsys):
        code, out, _ = run(
            capsys, "--json", "classify-connective", "--spec", "forall[R1] exists[R3]{ p1 }",
            "--name", "lambda3",
        )
        assert code == 0
        rec = json.loads(out)
        assert rec["degree"] == 2 and rec["is_regular"] and rec["is_standard"]

    def test_lookup_in_signature_file(self, capsys):
        code, out, _ = run(
            capsys, "--json", "classify-connective", "--fragment", data("sig_modal.json"),
            "--name", "box",
        )
        assert code == 0
        assert json.loads(out)["is_modality"]

    def test_neither_spec_nor_fragment_exits_2(self, capsys):
        code, out, err = run(capsys, "classify-connective", "--name", "box")
        assert code == 2 and out == ""
        assert "input error: classify-connective needs --spec or --fragment" in err


class TestTranslate:
    def test_modal_box(self, capsys):
        code, out, _ = run(
            capsys, "--json", "translate", "--fragment", data("sig_modal.json"),
            "--formula", "dia(P1)",
        )
        assert code == 0
        assert json.loads(out)["translation"] == "exists x2 (R1(x,x2) & P1(x2))"


class TestEval:
    def test_fragment_true(self, capsys):
        code, out, _ = run(
            capsys, "--json", "eval", "--model", data("m_chain.json"), "--world", "a",
            "--fragment", data("sig_modal.json"), "--formula", "dia(P1)",
        )
        assert code == 0 and json.loads(out)["value"] is True

    def test_fo_false_exits_1(self, capsys):
        code, out, _ = run(
            capsys, "--json", "eval", "--model", data("m_chain.json"), "--world", "a2",
            "--fo-formula", "exists y (R1(x,y) & P1(y))",
        )
        assert code == 1 and json.loads(out)["value"] is False

    def test_vacuous_box_true(self, capsys):
        code, out, _ = run(
            capsys, "--json", "eval", "--model", data("m_single.json"), "--world", "b",
            "--fo-formula", "forall y (R1(x,y) -> F)",
        )
        assert code == 0 and json.loads(out)["value"] is True

    @pytest.mark.parametrize("flags,missing", [
        (["--formula", "P1"], "eval --formula needs --fragment"),
        ([], "eval needs --formula or --fo-formula"),
    ])
    def test_missing_formula_flag_exits_2(self, capsys, flags, missing):
        code, out, err = run(capsys, "eval", "--model", data("m_chain.json"), "--world", "a", *flags)
        assert code == 2 and out == ""
        assert f"input error: {missing}" in err


class TestCheck:
    def test_empty_relation_reports_violation(self, capsys):
        code, out, _ = run(
            capsys, "--json", "check", "--fragment", data("sig_modal.json"),
            "--m1", data("m_chain.json"), "--m2", data("m_single.json"),
            "--relation", data("rel_empty.json"),
        )
        assert code == 1
        lines = [json.loads(l) for l in out.strip().splitlines()]
        assert lines and lines[0]["condition"] == "empty"

    def test_valid_relation_exits_0(self, capsys, tmp_path):
        relation = tmp_path / "rel.json"
        relation.write_text(json.dumps({"fwd": [["a", "b"]], "bwd": []}))
        code, out, _ = run(
            capsys, "--json", "check", "--fragment", data("sig_intuitionistic.json"),
            "--m1", data("m_chain.json"), "--m2", data("m_single.json"),
            "--relation", str(relation),
        )
        assert code == 0 and out.strip() == ""

    def test_degree3_fragment_exits_3(self, capsys):
        code, _, err = run(
            capsys, "--json", "check", "--fragment", data("sig_degree3.json"),
            "--m1", data("m_chain.json"), "--m2", data("m_single.json"),
            "--relation", data("rel_empty.json"),
        )
        assert code == 3 and "unsupported fragment" in err

    def test_malformed_model_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"domain": ["w"], "relations": {"R1": [["w", "ghost"]]}}')
        code, _, err = run(
            capsys, "--json", "check", "--fragment", data("sig_modal.json"),
            "--m1", str(bad), "--m2", data("m_single.json"),
            "--relation", data("rel_empty.json"),
        )
        assert code == 2 and "ghost" in err

    @pytest.mark.parametrize("fwd", [["ab"], [5], [["a"]], [["a", "b", "a2"]], [["a", 5]], [{"a": "b"}]])
    def test_malformed_relation_pair_exits_2(self, capsys, tmp_path, fwd):
        relation = tmp_path / "rel.json"
        relation.write_text(json.dumps({"fwd": fwd, "bwd": []}))
        code, out, err = run(
            capsys, "check", "--fragment", data("sig_intuitionistic.json"),
            "--m1", data("m_chain.json"), "--m2", data("m_single.json"),
            "--relation", str(relation),
        )
        assert code == 2 and out == ""
        assert "input error: fwd[0]: expected a pair of element names" in err

    @pytest.mark.parametrize("doc,where", [
        ({"relations": {"R1": ["ab"]}}, "relations.R1[0]"),
        ({"relations": {"R1": [5]}}, "relations.R1[0]"),
        ({"relations": {"R1": [["a", "b", "a"]]}}, "relations.R1[0]"),
        ({"relations": {"R1": 5}}, "relations.R1"),
        ({"relations": {"R1": "ab"}}, "relations.R1"),
        ({"predicates": {"P1": "ab"}}, "predicates.P1"),
        ({"predicates": {"P1": [["a"]]}}, "predicates.P1[0]"),
        ({"predicates": {"P1": 5}}, "predicates.P1"),
    ])
    def test_malformed_model_shapes_exit_2(self, capsys, tmp_path, doc, where):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"domain": ["a", "b"], **doc}))
        code, out, err = run(
            capsys, "check", "--fragment", data("sig_modal.json"),
            "--m1", str(bad), "--m2", data("m_single.json"),
            "--relation", data("rel_empty.json"),
        )
        assert code == 2 and out == ""
        assert f"input error: {where}: expected" in err


@pytest.mark.parametrize("doc", [{"connectives": {"box": 5}}, {"connectives": {"box": ["forall[R1]{ p1 }"]}}, [1]])
def test_malformed_signature_exits_2(capsys, tmp_path, doc):
    sig = tmp_path / "sig.json"
    sig.write_text(json.dumps(doc))
    code, out, err = run(capsys, "classify-connective", "--fragment", str(sig), "--name", "box")
    assert code == 2 and out == ""
    assert err.startswith("input error: ")


class TestLargest:
    def test_distinguishable_points_not_related(self, capsys):
        code, out, _ = run(
            capsys, "--json", "largest", "--fragment", data("sig_modal.json"),
            "--m1", data("m_chain.json"), "--m2", data("m_single.json"),
            "--point1", "a", "--point2", "b",
        )
        assert code == 1
        rec = json.loads(out)
        assert rec["verdict"] == "not related"
        assert "status" in rec  # empty here: no asimulation at all

    def test_isomorphic_models_related(self, capsys, tmp_path):
        m = tmp_path / "m.json"
        m.write_text(json.dumps({
            "domain": ["w"], "relations": {"R1": [["w", "w"]]}, "predicates": {"P1": ["w"]},
        }))
        code, out, _ = run(
            capsys, "--json", "largest", "--fragment", data("sig_modal.json"),
            "--m1", str(m), "--m2", str(m), "--point1", "w", "--point2", "w",
        )
        assert code == 0
        rec = json.loads(out)
        assert rec["verdict"] == "related" and rec["fwd"] == [["w", "w"]]

    def test_asymmetric_relation_without_negation(self, capsys, tmp_path):
        m1 = tmp_path / "m1.json"
        m1.write_text(json.dumps({"domain": ["u"], "relations": {}, "predicates": {}}))
        m2 = tmp_path / "m2.json"
        m2.write_text(json.dumps({"domain": ["v"], "relations": {}, "predicates": {"P1": ["v"]}}))
        code, out, _ = run(
            capsys, "--json", "largest", "--fragment", data("sig_intuitionistic.json"),
            "--m1", str(m1), "--m2", str(m2),
        )
        assert code == 0
        rec = json.loads(out)
        assert rec["fwd"] == [["u", "v"]] and rec["bwd"] == []


class TestDistinguish:
    def test_finds_diamond(self, capsys):
        code, out, _ = run(
            capsys, "--json", "distinguish", "--fragment", data("sig_modal.json"),
            "--m1", data("m_chain.json"), "--point1", "a",
            "--m2", data("m_single.json"), "--point2", "b", "--depth", "3",
        )
        assert code == 0 and json.loads(out)["formula"] == "dia(P1)"

    def test_isomorphic_points_give_none(self, capsys, tmp_path):
        m = tmp_path / "m.json"
        m.write_text(json.dumps({
            "domain": ["w"], "relations": {"R1": [["w", "w"]]}, "predicates": {"P1": ["w"]},
        }))
        code, out, _ = run(
            capsys, "--json", "distinguish", "--fragment", data("sig_modal.json"),
            "--m1", str(m), "--point1", "w", "--m2", str(m), "--point2", "w", "--depth", "4",
        )
        assert code == 1 and json.loads(out)["formula"] is None

    def test_atom_difference_depth_zero(self, capsys, tmp_path):
        m1 = tmp_path / "m1.json"
        m1.write_text(json.dumps({"domain": ["a"], "relations": {}, "predicates": {"P1": ["a"]}}))
        m2 = tmp_path / "m2.json"
        m2.write_text(json.dumps({"domain": ["b"], "relations": {}, "predicates": {}}))
        code, out, _ = run(
            capsys, "--json", "distinguish", "--fragment", data("sig_modal.json"),
            "--m1", str(m1), "--point1", "a", "--m2", str(m2), "--point2", "b", "--depth", "0",
        )
        assert code == 0 and json.loads(out)["formula"] == "P1"

    @pytest.mark.parametrize("budget, checked", [("3", 3), ("-1", 0)])
    def test_exhausted_budget_is_input_error(self, capsys, budget, checked):
        code, out, err = run(
            capsys, "distinguish", "--fragment", data("sig_modal.json"),
            "--m1", data("m_chain.json"), "--point1", "a",
            "--m2", data("m_chain.json"), "--point2", "a", "--budget", budget,
        )
        assert code == 2 and out == ""
        assert f"--budget {budget} exhausted after {checked} candidates" in err


class TestExperiment:
    ARGS = (
        "experiment", "--fragment", None, "--seed", "2024", "--trials", "6",
        "--size-min", "1", "--size-max", "4", "--depth", "5",
    )

    def argv(self):
        argv = list(self.ARGS)
        argv[argv.index(None)] = data("sig_modal.json")
        return argv

    def test_trivial_single_world_trial(self, capsys):
        code, out, _ = run(
            capsys, "experiment", "--fragment", data("sig_modal.json"),
            "--seed", "1", "--trials", "1", "--size-min", "1", "--size-max", "1",
        )
        assert code == 0
        rec = json.loads(out.strip().splitlines()[0])
        assert rec["pass"] and rec["invariance_violations"] == 0

    def test_deterministic_repetition(self, capsys):
        code1, out1, _ = run(capsys, *self.argv())
        code2, out2, _ = run(capsys, *self.argv())
        assert code1 == code2 == 0
        assert out1 == out2

    def test_matches_golden_report(self, capsys):
        code, out, _ = run(capsys, *self.argv())
        assert code == 0
        with open(data("experiment_golden.jsonl"), "r", encoding="utf-8") as fh:
            assert out == fh.read()

    def test_budget_exhaustion_recorded_not_fatal(self, capsys):
        code, out, _ = run(
            capsys, "experiment", "--fragment", data("sig_modal.json"),
            "--seed", "2024", "--trials", "2", "--size-min", "4", "--size-max", "4",
            "--depth", "4", "--budget", "5",
        )
        lines = [json.loads(l) for l in out.strip().splitlines()]
        assert len(lines) == 2  # the run continued past the first exhausted trial
        assert all("budget_exhausted" in rec for rec in lines)
        assert code == 1

    @pytest.mark.parametrize("setting,value", [
        ("trials", "3"), ("depth", "3"), ("size_max", 2.5), ("seed", "1"), ("seed", True),
        ("edge_prob", "0.3"), ("budget", "5"), ("relations", "R1"), ("predicates", ["P1", 2]),
        ("fragment", 5),
    ])
    def test_config_value_of_wrong_type_exits_2(self, capsys, tmp_path, setting, value):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"fragment": data("sig_modal.json"), "trials": 1, setting: value}))
        code, out, err = run(capsys, "experiment", "--config", str(config))
        assert code == 2 and out == ""
        assert f"input error: experiment setting {setting!r} must be" in err

    def test_config_not_an_object_exits_2(self, capsys, tmp_path):
        config = tmp_path / "config.json"
        config.write_text("[1, 2]")
        code, _, err = run(capsys, "experiment", "--config", str(config))
        assert code == 2 and "input error: experiment config: expected an object" in err

    def test_allow_nonstandard_runs_degree2_experiments(self, capsys, tmp_path):
        sig = tmp_path / "sig.json"
        sig.write_text(json.dumps({
            "connectives": {"odd": "exists[R2] forall[R1]{ ~p1 | p2 }"}
        }))
        code, out, _ = run(
            capsys, "experiment", "--fragment", str(sig), "--allow-nonstandard",
            "--seed", "3", "--trials", "3", "--size-min", "1", "--size-max", "3",
            "--depth", "3",
        )
        lines = [json.loads(l) for l in out.strip().splitlines()]
        assert len(lines) == 3
        # Without the flag the same signature is refused outright.
        code2, _, err = run(
            capsys, "experiment", "--fragment", str(sig),
            "--seed", "3", "--trials", "1",
        )
        assert code2 == 3 and "unsupported fragment" in err


def test_largest_is_deterministic(capsys):
    argv = [
        "--json", "largest", "--fragment", data("sig_modal_int.json"),
        "--m1", data("m_chain.json"), "--m2", data("m_single.json"),
    ]
    code1 = main(argv)
    out1 = capsys.readouterr().out
    code2 = main(argv)
    out2 = capsys.readouterr().out
    assert code1 == code2 and out1 == out2


def test_reused_parser_carries_no_state(capsys, tmp_path):
    # main parses with one parser per process; each call must behave as on a
    # freshly built parser, whichever flags the previous call set.
    relation = tmp_path / "rel.json"
    relation.write_text(json.dumps({"fwd": [["a", "b"]], "bwd": []}))
    check = ["check", "--fragment", data("sig_intuitionistic.json"),
             "--m1", data("m_chain.json"), "--m2", data("m_single.json")]
    largest = ["largest", "--fragment", data("sig_modal.json"),
               "--m1", data("m_chain.json"), "--m2", data("m_single.json")]
    argvs = [
        ["--json", *check, "--relation", data("rel_empty.json")],
        [*check, "--relation", str(relation)],
        [*largest, "--point1", "a", "--point2", "b"],
        largest,
        ["experiment", "--fragment", data("sig_modal.json"), "--seed", "7", "--trials", "2",
         "--size-min", "2", "--size-max", "3", "--depth", "2", "--budget", "900"],
        ["experiment", "--fragment", data("sig_modal.json")],
    ]
    reused = [run(capsys, *argv)[:2] for argv in argvs]
    assert cli._parser() is cli._parser()
    for argv, got in zip(argvs, reused):
        cli._parser.cache_clear()
        assert run(capsys, *argv)[:2] == got, argv
        assert vars(cli._parser().parse_args(argv)) == vars(cli.build_parser().parse_args(argv))
    assert [code for code, _ in reused] == [1, 0, 1, 1, 0, 0]


def test_runs_as_python_module():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    argv = [sys.executable, "-m", "guardasim", "--json", "classify-bool", "--expr", "p1 & p2"]
    done = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0
    assert json.loads(done.stdout)["is_monotone"]
    bad = subprocess.run(argv[:-1] + ["p1 &"], capture_output=True, text=True, env=env, timeout=60)
    assert bad.returncode == 2 and "input error" in bad.stderr
