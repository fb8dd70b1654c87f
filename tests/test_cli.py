"""Command-line contract: exit codes, machine output, determinism."""

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings, strategies as st

from guardasim import asim, cli, connective, formula, model
from guardasim.cli import main
from guardasim.connective import FragmentSignature
from guardasim.formula import parse_fo, parse_fragment, std_translate
from guardasim.syntax import fragment_text

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

    @pytest.mark.parametrize("expr, kinds, forms", [
        ("p1 -> p16", "rest, TFT, exists-special", {
            "to_implication": ["p1"] + ["F"] * 14 + ["p2"],
            "to_p1": ["T"] + ["F"] * 14 + ["p1"],
            "to_not_p1": ["p1"] + ["F"] * 15,
        }),
        ("p1 & ~p16", "rest, FTF, forall-special", {
            "to_and_not": ["p1"] + ["F"] * 14 + ["p2"],
            "to_p1": ["p1"] + ["F"] * 15,
            "to_not_p1": ["T"] + ["F"] * 14 + ["p1"],
        }),
    ])
    def test_arity_cap_in_bounded_time(self, capsys, expr, kinds, forms):
        """At arity 16 the chain and pair searches read whole-table masks;
        scanning pairs of rows took most of a minute."""
        start = time.perf_counter()
        code, out, err = run(capsys, "--json", "classify-bool", "--expr", expr)
        assert time.perf_counter() - start <= 10
        assert code == 0 and err.startswith(f"arity 16: {kinds}\n")
        got = json.loads(out)["forms"]
        assert {k: got[k] for k in forms} == forms


    @pytest.mark.parametrize("expr,pos", [("p0", 0), ("p0 | ~p1", 0), ("p1 & (p00 | p0)", 6)])
    def test_zero_indexed_variable_exits_2(self, capsys, expr, pos):
        code, out, err = run(capsys, "classify-bool", "--expr", expr)
        assert code == 2 and out == ""
        assert err == f"input error: variables are numbered from p1 (at position {pos})\n"

    @pytest.mark.parametrize("expr,var,pos", [
        ("p1 & p20", "p20", 5), ("p17", "p17", 0), ("(p1 | p18) & p20", "p18", 6),
        ("p0 & p1 | ~p017", "p17", 11),
    ])
    def test_variable_above_the_arity_cap_exits_2(self, capsys, expr, var, pos):
        code, out, err = run(capsys, "classify-bool", "--expr", expr)
        assert code == 2 and out == ""
        assert err == f"input error: variable {var} exceeds the arity cap 16 (at position {pos})\n"


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

    @pytest.mark.parametrize("flags,missing", [
        (["--name", "box"], "classify-connective needs --spec or --fragment"),
        (["--fragment", data("sig_modal.json")], "classify-connective --fragment needs --name"),
    ], ids=["no-spec-or-fragment", "fragment-without-name"])
    def test_missing_flag_exits_2(self, capsys, flags, missing):
        code, out, err = run(capsys, "classify-connective", *flags)
        assert code == 2 and out == ""
        assert err == f"input error: {missing}\n"


class TestTranslate:
    def test_modal_box(self, capsys):
        code, out, _ = run(
            capsys, "--json", "translate", "--fragment", data("sig_modal.json"),
            "--formula", "dia(P1)",
        )
        assert code == 0
        assert json.loads(out)["translation"] == "exists x2 (R1(x,x2) & P1(x2))"

    @pytest.mark.parametrize("var", ["", "forall", "exists", "T", "F", "a b", " x", "x\n", "1x", "x-y"])
    def test_unreadable_var_exits_2(self, capsys, var):
        code, out, err = run(
            capsys, "translate", "--fragment", data("sig_modal.json"), "--formula", "box(P1)",
            f"--var={var}",
        )
        assert code == 2 and out == ""
        assert err == f"input error: --var {var!r} is not a first-order variable name\n"

    @settings(derandomize=True, max_examples=80, deadline=None, database=None)
    @given(var=st.sampled_from(["x", "y7", "x2", "x9", "_", "Tx", "F_", "forallx", "exists1", "P1", "R1"])
           | st.text("xyTFPR1_ (,\n", max_size=5))
    def test_accepted_var_reads_back(self, var):
        """Every name ``translate`` accepts prints a formula that the
        first-order parser reads back as the translation itself."""
        sig = FragmentSignature.from_file(data("sig_modal.json"))
        text = "and(box(dia(P1)), not(dia(P1)))"
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["translate", "--fragment", data("sig_modal.json"), "--formula", text,
                         f"--var={var}"])
        if code == 0:
            assert parse_fo(out.getvalue()) == std_translate(parse_fragment(text, sig), var, sig)
        else:
            assert code == 2 and f"--var {var!r}" in err.getvalue()


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

    @pytest.mark.parametrize("flags", [
        ["--fo-formula", "T"],
        ["--fo-formula", "P1(x)"],
        ["--fragment", data("sig_modal.json"), "--formula", "P1"],
    ])
    def test_unknown_world_exits_2(self, capsys, flags):
        code, out, err = run(capsys, "eval", "--model", data("m_chain.json"), "--world", "nosuch", *flags)
        assert code == 2 and out == ""
        assert err == "input error: --world: unknown element 'nosuch'\n"


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

    def test_one_way_pair_reports_degree0(self, capsys, tmp_path):
        # only the negation fails: the bwd pair has no fwd mirror
        relation = tmp_path / "rel.json"
        relation.write_text(json.dumps({"bwd": [["b", "a2"]]}))
        code, out, _ = run(
            capsys, "--json", "check", "--fragment", data("sig_modal.json"),
            "--m1", data("m_chain.json"), "--m2", data("m_single.json"),
            "--relation", str(relation),
        )
        assert code == 1
        assert out == (
            '{"condition": "degree0", "connective": "not", "detail": "pair lacks its mirror", '
            '"direction": "bwd", "pair": ["b", "a2"], "path": []}\n'
        )

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

    def test_unknown_relation_key_exits_2(self, capsys, tmp_path):
        # A misspelt "bwd" used to be read as an empty bwd list.
        relation = tmp_path / "rel.json"
        relation.write_text(json.dumps({"fwd": [["a", "b"]], "bwdd": [["b", "a"]], "x": 1}))
        code, out, err = run(
            capsys, "check", "--fragment", data("sig_modal.json"),
            "--m1", data("m_chain.json"), "--m2", data("m_single.json"),
            "--relation", str(relation),
        )
        assert (code, out) == (2, "")
        assert err == "input error: document: unknown keys ['bwdd', 'x']\n"

    @pytest.mark.parametrize("m2,points,want", [
        ("m_single.json", ("a", "b"), 1),  # a verdict and a status: no asimulation at all
        ("m_chain.json", ("a", "a"), 0),
    ])
    def test_largest_output_replays(self, capsys, tmp_path, m2, points, want):
        models = ["--m1", data("m_chain.json"), "--m2", data(m2)]
        code, out, _ = run(capsys, "largest", "--fragment", data("sig_modal.json"), *models,
                           "--point1", points[0], "--point2", points[1])
        relation = tmp_path / "rel.json"
        relation.write_text(out)
        assert "verdict" in json.loads(out) and ("status" in json.loads(out)) == (want == 1)
        code, out, _ = run(capsys, "check", "--fragment", data("sig_modal.json"), *models,
                           "--relation", str(relation))
        assert code == want
        assert [json.loads(line)["condition"] for line in out.splitlines()] == ["empty"] * want

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


def test_zero_indexed_variable_in_signature_exits_2(capsys, tmp_path):
    sig = tmp_path / "sig.json"
    sig.write_text(json.dumps({"connectives": {"box": "forall[R1]{ p0 }"}}))
    code, out, err = run(capsys, "classify-connective", "--fragment", str(sig), "--name", "box")
    assert code == 2 and out == ""
    assert err == "input error: variables are numbered from p1 (at position 1)\n"


DEEP = 5000


@pytest.mark.parametrize("argv", [
    ["classify-bool", "--expr", "~" * DEEP + "p1"],
    ["classify-bool", "--expr", "(" * DEEP + "p1" + ")" * DEEP],
    ["eval", "--model", data("m_chain.json"), "--world", "a",
     "--fo-formula", "(" * DEEP + "P1(x)" + ")" * DEEP],
    ["eval", "--model", data("m_chain.json"), "--world", "a", "--fragment", data("sig_modal.json"),
     "--formula", "box(" * DEEP + "P1" + ")" * DEEP],
], ids=["core-negations", "core-brackets", "first-order", "fragment"])
def test_deep_nesting_exits_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("input error: nesting too deep (at position ")


@pytest.mark.parametrize("argv", [
    ["check", "--fragment", data("sig_modal.json"), "--m1", data("m_chain.json"),
     "--m2", data("m_single.json"), "--relation", "DEEP"],
    ["largest", "--fragment", data("sig_modal.json"), "--m1", "DEEP", "--m2", data("m_single.json")],
    ["largest", "--fragment", "DEEP", "--m1", data("m_chain.json"), "--m2", data("m_single.json")],
    ["experiment", "--config", "DEEP"],
], ids=["relation", "model", "fragment", "config"])
def test_deeply_nested_json_exits_2(capsys, tmp_path, argv):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    code, out, err = run(capsys, *(str(deep) if a == "DEEP" else a for a in argv))
    assert code == 2 and out == ""
    assert err.startswith("input error: ") and "Traceback" not in err


# Chains of one operator parse without recursion but make trees as deep as
# they are long; a fragment formula nested 600 deep parses but is too deep to
# translate or evaluate.
@pytest.mark.parametrize("argv", [
    ["classify-bool", "--expr", "p1" + " & p1" * DEEP],
    ["classify-connective", "--spec", "forall[R1]{ p1" + " | ~p1" * DEEP + " }"],
    ["eval", "--model", data("m_chain.json"), "--world", "a", "--fo-formula", "P1(x)" + " & P1(x)" * DEEP],
    ["eval", "--model", data("m_chain.json"), "--world", "a", "--fragment", data("sig_modal.json"),
     "--formula", "box(" * 600 + "P1" + ")" * 600],
    ["translate", "--fragment", data("sig_modal_int.json"), "--formula", "lambda3(" * 600 + "P1" + ")" * 600],
], ids=["core", "connective", "first-order", "fragment-eval", "fragment-translate"])
def test_long_chain_exits_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("input error: nesting too deep (at position ")


@pytest.mark.parametrize("argv", [
    ["classify-bool", "--expr", "p1" + " & p2" * 199],
    ["eval", "--model", data("m_chain.json"), "--world", "a2", "--fo-formula", "P1(x)" + " & P1(x)" * 199],
    ["translate", "--fragment", data("sig_modal_int.json"), "--formula", "lambda3(" * 199 + "P1" + ")" * 199],
], ids=["core", "first-order", "fragment"])
def test_deepest_accepted_tree_is_answered(capsys, argv):
    # 200 levels, the most a parsed tree may have, leaves included.
    assert run(capsys, *argv)[0] == 0


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

    @pytest.mark.parametrize("given,missing", [("--point1", "--point2"), ("--point2", "--point1")])
    def test_one_verdict_point_exits_2(self, capsys, given, missing):
        code, out, err = run(
            capsys, "largest", "--fragment", data("sig_modal.json"),
            "--m1", data("m_chain.json"), "--m2", data("m_chain.json"), given, "zz",
        )
        assert code == 2 and out == ""
        assert err == f"input error: largest {given} needs {missing}\n"

    @pytest.mark.parametrize("point1,point2", [("zz", "a"), ("a", "zz")])
    def test_unknown_verdict_point_exits_2_before_solving(self, capsys, monkeypatch, point1, point2):
        def unreachable(*args, **kwargs):
            raise AssertionError("the solver ran before the verdict points were checked")

        monkeypatch.setattr(asim, "largest_asimulation", unreachable)
        code, out, err = run(
            capsys, "largest", "--fragment", data("sig_modal.json"),
            "--m1", data("m_chain.json"), "--m2", data("m_chain.json"),
            "--point1", point1, "--point2", point2,
        )
        assert code == 2 and out == ""
        assert err == "input error: verdict points must lie in the respective domains\n"

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

    @pytest.mark.parametrize("json_flag", [(), ("--json",)])
    def test_deeper_search_stops_at_the_same_formula(self, capsys, json_flag):
        # --budget 27 is spent by the depth-1 enumeration, which finds
        # dia(P1); deeper searches stop there instead of exhausting it.
        args = ("distinguish", "--fragment", data("sig_modal.json"), "--m1", data("m_chain.json"),
                "--point1", "a", "--m2", data("m_single.json"), "--point2", "b", "--budget", "27")
        want = run(capsys, *json_flag, *args, "--depth", "1")
        assert want[0] == 0 and "dia(P1)" in want[1]
        for depth in ("2", "3"):
            assert run(capsys, *json_flag, *args, "--depth", depth) == want

    @pytest.mark.parametrize("budget, checked", [("3", 3), ("-1", 0)])
    def test_exhausted_budget_is_input_error(self, capsys, budget, checked):
        # (a, a2) is unrelated (dia(P1) separates it), so only the
        # enumeration can answer it and run out of budget
        code, out, err = run(
            capsys, "distinguish", "--fragment", data("sig_modal.json"),
            "--m1", data("m_chain.json"), "--point1", "a",
            "--m2", data("m_chain.json"), "--point2", "a2", "--budget", budget,
        )
        assert code == 2 and out == ""
        assert f"--budget {budget} exhausted after {checked} candidates" in err

    def test_related_pair_is_answered_by_the_solver(self, capsys):
        # (a, a) is related, so the solve answers before the enumeration
        # could spend --budget 3
        code, out, err = run(
            capsys, "distinguish", "--fragment", data("sig_modal.json"),
            "--m1", data("m_chain.json"), "--point1", "a",
            "--m2", data("m_chain.json"), "--point2", "a", "--budget", "3", "--depth", "4",
        )
        assert (code, out, err) == (1, "none within depth 4\n", "")

    @pytest.mark.parametrize("point1, depth, message", [
        ("a", "-1", "depth must be >= 0"), ("b", "3", "point 'b' not in the domain"),
    ])
    def test_input_errors_come_before_the_solve(self, capsys, point1, depth, message):
        # against (a, a), which the solve would answer "none"
        code, out, err = run(
            capsys, "distinguish", "--fragment", data("sig_modal.json"),
            "--m1", data("m_chain.json"), "--point1", point1,
            "--m2", data("m_chain.json"), "--point2", "a", "--depth", depth,
        )
        assert (code, out, err) == (2, "", f"input error: {message}\n")

    @pytest.mark.parametrize("sig_file", ["sig_intuitionistic.json", "sig_modal.json", "sig_modal_int.json"])
    def test_solver_first_matches_enumeration_to_closure(self, capsys, tmp_path, sig_file):
        """Pairs the solver relates get "none" without enumerating; on every
        pair the answer is that of an enumeration run until a layer adds
        nothing, which the joint vector count bounds."""
        sig = FragmentSignature.from_file(data(sig_file))
        answers = set()
        for trial in range(10):
            ms, paths = [], []
            for side in (1, 2):
                # every third pair is a model and a copy of it, so that the
                # modal signature's negation leaves related pairs too
                k = side if trial % 3 else 1
                m = model.random_model(1 + (trial + k) % 4, ["R1", "R2", "R3"], ["P1", "P2"],
                                       0.35, 0.5, 900 + 10 * trial + k)
                path = tmp_path / f"m{side}.json"
                path.write_text(json.dumps(model.save(m)))
                ms.append(m)
                paths.append(str(path))
            depth = 1 << (len(ms[0]) + len(ms[1]))
            for a in ms[0].domain:
                for b in ms[1].domain:
                    want = formula.distinguishing_formula(
                        sig, model.PointedModel(ms[0], a), model.PointedModel(ms[1], b), depth, None)
                    code, out, _ = run(
                        capsys, "--json", "distinguish", "--fragment", data(sig_file),
                        "--m1", paths[0], "--point1", a, "--m2", paths[1], "--point2", b,
                        "--depth", str(depth), "--budget", str(10 ** 9),
                    )
                    text = None if want is None else fragment_text(want)
                    assert (code, json.loads(out)["formula"]) == (int(want is None), text), (trial, a, b)
                    answers.add(code)
        assert answers == {0, 1}

    def test_matches_golden_commands(self, capsys, tmp_path):
        """Each line of distinguish_golden.jsonl: a command over the
        ``random_model`` pairs it names (``[size, seed, edge_prob]`` over
        R1-R3 and P1-P2 at pred_prob 0.5; m2 may name m1's file) and what it
        printed and returned when recorded, byte for byte."""
        with open(data("distinguish_golden.jsonl"), encoding="utf-8") as fh:
            lines = [json.loads(line) for line in fh]
        assert len(lines) > 100 and {rec["code"] for rec in lines} == {0, 1, 2}
        for k, rec in enumerate(lines):
            paths = {}
            for name, (size, seed, edge) in rec["models"].items():
                paths[name] = str(tmp_path / f"{name}.json")
                m = model.random_model(size, ["R1", "R2", "R3"], ["P1", "P2"], edge, 0.5, seed)
                with open(paths[name], "w", encoding="utf-8") as out:
                    json.dump(model.save(m), out)
            argv = [data(arg) if arg.startswith("sig_") else paths.get(arg, arg) for arg in rec["argv"]]
            assert run(capsys, *argv) == (rec["code"], rec["stdout"], rec["stderr"]), (k, rec["argv"])


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

    def test_unknown_config_key_exits_2(self, capsys, tmp_path):
        # A misspelt "trials" used to run the default 10 trials.
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"fragment": data("sig_modal.json"), "trails": 1}))
        code, out, err = run(capsys, "experiment", "--config", str(config))
        assert (code, out) == (2, "")
        assert err == "input error: experiment config: unknown keys ['trails']\n"

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


def test_warm_process_matches_cold_runs(capsys):
    # Signatures compiled by earlier calls serve later ones: the golden
    # experiment, run after and between calls on other signatures, still
    # writes the golden report, and every other call answers as it does
    # with nothing compiled before it.
    models = ["--m1", data("m_chain.json"), "--m2", data("m_single.json")]
    others = [
        ["--json", "largest", "--fragment", data("sig_modal_int.json"), *models, "--point1", "a", "--point2", "b"],
        ["check", "--fragment", data("sig_intuitionistic.json"), *models, "--relation", data("rel_empty.json")],
        ["--json", "distinguish", "--fragment", data("sig_modal_int.json"), *models,
         "--point1", "a", "--point2", "b", "--depth", "2"],
        ["check", "--fragment", data("sig_degree3.json"), *models, "--relation", data("rel_empty.json")],
        ["--json", "largest", "--fragment", data("sig_intuitionistic.json"),
         "--m1", data("m_chain.json"), "--m2", data("m_chain.json")],
        ["--json", "distinguish", "--fragment", data("sig_modal.json"), *models,
         "--point1", "a", "--point2", "b"],
    ]
    cold = []
    for argv in others:
        connective._compiled_signature.cache_clear()
        cold.append(run(capsys, *argv)[:2])
    assert [code for code, _ in cold] == [0, 1, 1, 3, 0, 0]
    golden_argv = TestExperiment().argv()
    with open(data("experiment_golden.jsonl"), "r", encoding="utf-8") as fh:
        golden = fh.read()
    connective._compiled_signature.cache_clear()
    warm = []
    for half in (others[:3], others[3:]):
        warm += [run(capsys, *argv)[:2] for argv in half]
        assert run(capsys, *golden_argv)[:2] == (0, golden)
    assert warm == cold


def test_same_model_path_matches_a_copy(capsys, tmp_path):
    # --m2 naming the --m1 file reuses its model; the answers must be those of
    # a byte-identical copy under another path.
    copy = tmp_path / "copy.json"
    copy.write_bytes(open(data("m_chain.json"), "rb").read())
    identity = tmp_path / "identity.json"
    identity.write_text(json.dumps({"fwd": [["a", "a"], ["a2", "a2"]], "bwd": [["a", "a"], ["a2", "a2"]]}))
    wider = tmp_path / "wider.json"
    wider.write_text(json.dumps({"fwd": [["a", "a"], ["a2", "a2"], ["a2", "a"]], "bwd": []}))
    commands = [
        ["check", "--fragment", data("sig_modal.json"), "--relation", str(identity)],
        ["--json", "check", "--fragment", data("sig_intuitionistic.json"), "--relation", str(wider)],
        ["--json", "largest", "--fragment", data("sig_modal_int.json")],
        ["largest", "--fragment", data("sig_intuitionistic.json"), "--point1", "a2", "--point2", "a"],
        ["--json", "distinguish", "--fragment", data("sig_modal.json"), "--point1", "a", "--point2", "a2"],
    ]
    codes = []
    for command in commands:
        same = run(capsys, *command, "--m1", data("m_chain.json"), "--m2", data("m_chain.json"))
        copied = run(capsys, *command, "--m1", data("m_chain.json"), "--m2", str(copy))
        assert same[:2] == copied[:2], command
        codes.append(same[0])
    assert codes == [0, 1, 0, 1, 0]


def test_same_model_file_under_another_spelling(capsys, monkeypatch, tmp_path):
    # --m2 naming the --m1 file by another path is still one file: the model is
    # read once, and the answers are those of the same spelling.
    shutil.copy(data("m_chain.json"), tmp_path / "m.json")
    (tmp_path / "sub").mkdir()
    relation = tmp_path / "rel.json"
    relation.write_text(json.dumps({"fwd": [["a", "a"], ["a2", "a2"], ["a2", "a"]], "bwd": []}))
    loads = []
    load_file = model.load_file
    monkeypatch.setattr(model, "load_file", lambda path: loads.append(path) or load_file(path))
    monkeypatch.chdir(tmp_path)
    check = ["--json", "check", "--fragment", data("sig_intuitionistic.json"), "--relation", str(relation)]
    want = run(capsys, *check, "--m1", "m.json", "--m2", "m.json")
    os.link("m.json", "hard.json")
    for spelling in ("./m.json", "sub/../m.json", str(tmp_path / "m.json"), "hard.json"):
        loads.clear()
        assert run(capsys, *check, "--m1", "m.json", "--m2", spelling) == want, spelling
        assert loads == ["m.json"], spelling
    assert want[0] == 1
    # a missing --m2 is named as opening it would name it
    assert run(capsys, *check, "--m1", "m.json", "--m2", "gone.json") == (
        2, "", "input error: [Errno 2] No such file or directory: 'gone.json'\n")


# Model pairs for the document writer: generator names, whose index order is
# not their name order (w10 < w2); a domain not in name order; names that
# JSON escapes.  None as the second model means the first one checked
# against itself (one path, one model object).
GENERATED = [model.save(model.random_model(16, ["R1", "R2", "R3"], ["P1"], 0.15, 0.2, seed))
             for seed in (7, 8)]
SHUFFLED = [
    {"domain": ["b", "a", "c"], "relations": {"R1": [["b", "a"], ["a", "c"], ["c", "c"]], "R3": []},
     "predicates": {"P1": ["a"]}},
    {"domain": ["c", "b", "a", "d"], "relations": {"R1": [["a", "b"], ["d", "c"]], "R2": [["c", "a"]]},
     "predicates": {"P1": ["a", "d"], "P2": []}},
]
ESCAPED = [
    {"domain": ['a"b', "\u00e9", "z\\", "a", "\n", "\U0001d4b3", "\x01", "\t", "\x7f"],
     "relations": {"R1": [['a"b', "\u00e9"], ["a", "z\\"], ["\n", "a"], ["\U0001d4b3", "\x01"],
                          ["\t", "\x7f"], ["\x7f", "\t"]]},
     "predicates": {"P1": ["\u00e9", "z\\", "\x01", "\x7f"]}},
    {"domain": ["\u00e9", "e", 'q"'], "relations": {"R1": [["e", "\u00e9"], ['q"', 'q"']]},
     "predicates": {"P1": ["\u00e9"]}},
]
# Models with no asimulation between them: P1 holds only on the left, P2
# only on the right.
UNRELATED = [{"domain": ["p", "p2"], "relations": {"R1": [["p", "p2"]]}, "predicates": {"P1": ["p", "p2"]}},
             {"domain": ["q"], "relations": {}, "predicates": {"P2": ["q"]}}]
MODEL_PAIRS = [(GENERATED[0], None), (GENERATED[0], GENERATED[1]), (SHUFFLED[0], None),
               (SHUFFLED[0], SHUFFLED[1]), (ESCAPED[0], None), (ESCAPED[0], ESCAPED[1]),
               (UNRELATED[0], UNRELATED[1])]


def sorted_pairs_output(sig_path, m1, m2, points):
    """Exit code, stdout and stderr of ``largest``, written from the sorted
    frozensets of the solver's result."""
    theta = sorted(set(m1.predicates) | set(m2.predicates))
    rel = asim.largest_asimulation(FragmentSignature.from_file(sig_path), theta, m1, m2)
    record = {d: [list(p) for p in sorted(rel.pairs(d))] for d in ("fwd", "bwd")}
    human = f"fwd {len(rel.fwd)} pair(s), bwd {len(rel.bwd)} pair(s)"
    code = 0 if rel.fwd or rel.bwd else 1
    if code:
        record["status"] = "no asimulation exists between these models for this fragment"
        human += f"; {record['status']}"
    if points:
        record["verdict"] = "related" if tuple(points) in rel.fwd else "not related"
        human += f"; verdict: {record['verdict']}"
        code = 0 if record["verdict"] == "related" else 1
    return code, json.dumps(record, sort_keys=True) + "\n", human + "\n"


@pytest.mark.parametrize("sig", ["sig_modal.json", "sig_intuitionistic.json", "sig_modal_int.json"])
@pytest.mark.parametrize("doc1,doc2", MODEL_PAIRS)
def test_largest_document_is_the_sorted_pair_sets(capsys, tmp_path, sig, doc1, doc2):
    path1 = tmp_path / "m1.json"
    path1.write_text(json.dumps(doc1))
    path2 = path1
    if doc2 is not None:
        path2 = tmp_path / "m2.json"
        path2.write_text(json.dumps(doc2))
    m1 = model.load_file(str(path1))
    m2 = m1 if doc2 is None else model.load_file(str(path2))
    argv = ["largest", "--fragment", data(sig), "--m1", str(path1), "--m2", str(path2)]
    for points in (None, (m1.domain[-1], m2.domain[0]), (m1.domain[0], m2.domain[-1])):
        flags = ["--point1", points[0], "--point2", points[1]] if points else []
        assert run(capsys, *argv, *flags) == sorted_pairs_output(data(sig), m1, m2, points), points


def reversed_domain(doc):
    return {**doc, "domain": doc["domain"][::-1]}


@pytest.mark.parametrize("sig", ["sig_modal.json", "sig_intuitionistic.json", "sig_modal_int.json"])
@pytest.mark.parametrize("doc1,doc2", MODEL_PAIRS[:4])  # the GENERATED and SHUFFLED pairs
def test_outputs_do_not_depend_on_the_domain_order(capsys, tmp_path, sig, doc1, doc2):
    # The largest asimulation plus one pair outside it fails at that pair
    # alone, since the conditions are monotone in their witnesses.  And
    # every output is in name order, whatever order the domain lists.
    outputs = []
    for given in (lambda doc: doc, reversed_domain):
        path1 = tmp_path / "m1.json"
        path1.write_text(json.dumps(given(doc1)))
        path2 = path1
        if doc2 is not None:
            path2 = tmp_path / "m2.json"
            path2.write_text(json.dumps(given(doc2)))
        models = ["--m1", str(path1), "--m2", str(path2)]
        m1, m2 = model.load_file(str(path1)), model.load_file(str(path2))
        largest = run(capsys, "largest", "--fragment", data(sig), *models)
        doc = json.loads(largest[1])
        outside = next([x, y] for x in m1.domain for y in m2.domain if [x, y] not in doc["fwd"])
        relation = tmp_path / "rel.json"
        relation.write_text(json.dumps({"fwd": doc["fwd"] + [outside], "bwd": doc["bwd"]}))
        check = run(capsys, "check", "--fragment", data(sig), *models, "--relation", str(relation))
        assert check[0] == 1
        reports = [json.loads(line) for line in check[1].splitlines()]
        assert reports and all((r["pair"], r["direction"]) == (outside, "fwd") for r in reports)
        distinguish = [run(capsys, "distinguish", "--fragment", data(sig), *models, "--point1", x,
                           "--point2", y, "--depth", "2")
                       for x, y in ((m1.domain[0], m2.domain[-1]), (m1.domain[-1], m2.domain[0]), outside)]
        outputs.append([largest, check, *distinguish])
    assert outputs[0] == outputs[1]


def test_commands_build_no_frozenset(capsys, monkeypatch, tmp_path):
    # The solver's relations and the models' pair views build frozensets only
    # for callers that read them; largest, check and experiment do not.  Nor
    # does largest build pair lists: it writes its document from the rows.
    paths = []
    for n, doc in enumerate(GENERATED):
        paths.append(tmp_path / f"m{n}.json")
        paths[-1].write_text(json.dumps(doc))
    relation = tmp_path / "rel.json"
    relation.write_text(json.dumps({"fwd": [["a", "a"], ["a2", "a2"]], "bwd": [["a", "a"], ["a2", "a2"]]}))
    argvs = []
    cases = (("sig_modal_int.json", paths[0], paths[1], [("w12", "w10"), ("w0", "w10")]),
             ("sig_modal_int.json", paths[1], paths[1], [("w3", "w3")]),
             ("sig_modal.json", data("m_chain.json"), data("m_single.json"), [("a", "b")]))
    for sig, m1, m2, points in cases:
        largest = ["--json", "largest", "--fragment", data(sig), "--m1", str(m1), "--m2", str(m2)]
        argvs += [largest] + [[*largest, "--point1", p1, "--point2", p2] for p1, p2 in points]
    argvs += [
        ["check", "--fragment", data("sig_modal.json"), "--m1", data("m_chain.json"),
         "--m2", data("m_chain.json"), "--relation", str(relation)],
        ["check", "--fragment", data("sig_intuitionistic.json"), "--m1", data("m_chain.json"),
         "--m2", data("m_single.json"), "--relation", data("rel_empty.json")],
        ["experiment", "--fragment", data("sig_modal.json"), "--seed", "11", "--trials", "1",
         "--size-min", "3", "--size-max", "4", "--depth", "2"],
    ]
    expected = [run(capsys, *argv) for argv in argvs]

    def refuse(*args):
        raise AssertionError("a frozenset form was built")

    monkeypatch.setattr(asim, "pair_set", refuse)
    monkeypatch.setattr(model.Model, "relations", property(refuse))
    monkeypatch.setattr(model.Model, "predicates", property(refuse))
    for owner in (model, asim):
        monkeypatch.setattr(owner, "sorted_pairs", refuse)
    monkeypatch.setattr(asim.CrossRelation, "to_doc", refuse)
    assert [run(capsys, *argv) for argv in argvs] == expected
    assert [code for code, _, _ in expected] == [0, 0, 1, 0, 0, 1, 1, 0, 1, 0]


def test_experiment_builds_no_class_formula(capsys, monkeypatch, tmp_path):
    # An experiment trial reads the classes' joint vectors and per-depth
    # counts, never their witness formulas.
    # the golden argv, one trial per seed
    argvs = [["experiment", "--fragment", data("sig_modal.json"), "--seed", str(seed), "--trials", "1",
              "--size-min", "1", "--size-max", "4", "--depth", "5"] for seed in range(2024, 2030)]
    for sig in ("sig_intuitionistic.json", "sig_modal.json", "sig_modal_int.json"):
        config = tmp_path / sig
        config.write_text(json.dumps({"fragment": data(sig), "seed": 7, "trials": 1, "size_min": 3,
                                      "size_max": 3, "depth": 3, "relations": ["R1", "R2", "R3"]}))
        argvs.append(["experiment", "--config", str(config)])
    m1, m2 = model.load_file(data("m_chain.json")), model.load_file(data("m_single.json"))
    sig = FragmentSignature.from_file(data("sig_modal.json"))
    expected = [run(capsys, *argv) for argv in argvs]
    preorders = [asim.preservation_relation(sig, ["P1", "P2"], m1, m2, d) for d in range(4)]

    def refuse(*args):
        raise AssertionError("a class formula was built")

    monkeypatch.setattr(formula, "Apply", refuse)
    monkeypatch.setattr(formula, "SemanticClass", refuse)
    assert [run(capsys, *argv) for argv in argvs] == expected
    assert [asim.preservation_relation(sig, ["P1", "P2"], m1, m2, d) for d in range(4)] == preorders
    with open(data("experiment_golden.jsonl"), "r", encoding="utf-8") as fh:
        assert [{**json.loads(line), "trial": 0} for line in fh] == [json.loads(out) for _, out, _ in expected[:6]]


def test_runs_as_python_module():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    argv = [sys.executable, "-m", "guardasim", "--json", "classify-bool", "--expr", "p1 & p2"]
    done = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0
    assert json.loads(done.stdout)["is_monotone"]
    bad = subprocess.run(argv[:-1] + ["p1 &"], capture_output=True, text=True, env=env, timeout=60)
    assert bad.returncode == 2 and "input error" in bad.stderr
