import csv
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from proofseq.cli import main
from proofseq.errors import EmptyDomainWarning
from proofseq.flatten import flatten
from proofseq.model import parse_model
from proofseq.pipeline import run_pipeline
from proofseq.proofcore import parse_drcp
from proofseq.sequence import to_json

from test_prover import EMPTY_DOMAIN_MOD

DATA = Path(__file__).parent / "data"
MOD = str(DATA / "jobshop.mod")
PRF = str(DATA / "jobshop.drcp")


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def test_explain_golden_metrics_line():
    code, out, err = run_cli("explain", MOD, PRF, "--variant", "trim+minglob")
    assert code == 0, err
    assert out.strip().endswith("len=3 maxstep=1")
    assert "Step 1:" in out


def test_explain_check_passes():
    code, out, _ = run_cli("explain", MOD, PRF, "--variant", "trim+minloc", "--check")
    assert code == 0
    assert "len=3" in out


def test_explain_structured_roundtrip():
    """The structured payload is `to_json` of the in-process pipeline result."""
    code, out, _ = run_cli("explain", MOD, PRF, "--variant", "trim+minglob",
                           "--format", "structured")
    assert code == 0
    model = parse_model(Path(MOD).read_text())
    solver = flatten(model)
    seq = run_pipeline(model, parse_drcp(Path(PRF).read_text(), solver), "trim+minglob",
                       solver).sequence
    assert seq.sequence_length == json.loads(to_json(seq))["metrics"]["sequence_length"] == 3
    assert out == to_json(seq) + "len=3 maxstep=1\n"


def test_explain_satisfiable_model(tmp_path):
    mod = tmp_path / "sat.mod"
    mod.write_text("var x 0..3\nvar y 0..3\ncon ad: alldifferent(x,y)\n")
    code, out, _ = run_cli("explain", str(mod), "--solve", "--variant", "trim")
    assert code == 0
    assert "model is satisfiable" in out


def test_explain_solve_end_to_end(tmp_path):
    mod = tmp_path / "unsat.mod"
    mod.write_text("var x 0..1\ncon a: clause x >= 1\ncon b: clause x <= 0\n")
    code, out, _ = run_cli("explain", str(mod), "--solve", "--variant", "trim+minloc",
                           "--check")
    assert code == 0
    assert "len=" in out


def test_explain_solve_empty_domain(tmp_path):
    mod = tmp_path / "empty.mod"
    mod.write_text(EMPTY_DOMAIN_MOD)
    with pytest.warns(EmptyDomainWarning):
        code, out, err = run_cli("explain", str(mod), "--solve", "--variant", "trim+minglob",
                                 "--check")
    assert code == 0, err
    assert out.strip().endswith("len=1 maxstep=0")


def test_explain_parse_error_exit_2(tmp_path):
    mod = tmp_path / "bad.mod"
    mod.write_text("var x 0..3\nfrobnicate\n")
    code, _, err = run_cli("explain", str(mod), "--solve")
    assert code == 2
    assert "parse error" in err


def test_explain_not_a_refutation_exit_3(tmp_path):
    prf = tmp_path / "open.drcp"
    prf.write_text("i a<=3|b>=7 c:p1\n")
    code, _, err = run_cli("explain", MOD, str(prf))
    assert code == 3


def test_explain_budget_exit_4(tmp_path):
    mod = tmp_path / "hard.mod"
    lines = [f"var v{i} 0..6" for i in range(8)]
    lines.append("con ad: alldifferent(" + ",".join(f"v{i}" for i in range(8)) + ")")
    mod.write_text("\n".join(lines) + "\n")
    code, _, err = run_cli("explain", str(mod), "--solve", "--budget", "1")
    assert code == 4
    assert "budget" in err


def test_explain_check_uses_budget():
    # trim makes no pipeline oracle calls, so only --check can exhaust the budget
    code, _, err = run_cli("explain", MOD, PRF, "--variant", "trim", "--check", "--budget", "0")
    assert code == 4
    assert "budget" in err


def test_proof_check_golden():
    code, out, _ = run_cli("proof", "check", PRF, MOD)
    assert code == 0
    assert "14/14 steps valid" in out


def test_proof_trim_is_byte_identical_on_trimmed_input():
    code, out, _ = run_cli("proof", "trim", PRF, MOD)
    assert code == 0
    assert out == Path(PRF).read_text()


def test_proof_stats_ends_at_three():
    code, out, _ = run_cli("proof", "stats", PRF, MOD, "--variant", "trim+minglob")
    assert code == 0
    header, row = out.strip().splitlines()
    assert header == "variant,proof,no_aux,user_cons,min1,domain_red,min2,merged"
    assert row == "trim+minglob,14,8,8,8,5,3,3"


def test_bench_rows_and_aggregates(tmp_path):
    out_file = tmp_path / "rows.csv"
    code, out, _ = run_cli("bench", "--suite", "jobshop", "-n", "3",
                           "--variants", "trim,trim+minloc", "--out", str(out_file))
    assert code == 0
    rows = list(csv.DictReader(out_file.open()))
    assert len(rows) == 6
    assert set(r["variant"] for r in rows) == {"trim", "trim+minloc"}
    for r in rows:
        assert int(r["len"]) >= 1
        assert "solve=" in r["stage_times_ms"]
        assert int(r["oracle_calls"]) == 0 or r["variant"] != "trim"
    assert "# jobshop" in out


def test_bench_empty_report():
    code, out, _ = run_cli("bench", "--suite", "jobshop", "-n", "0")
    assert code == 0
    assert out.strip().splitlines() == [
        "suite,seed,variant,len,maxstep,stage_times_ms,oracle_calls"]


def test_bench_deterministic_metrics(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for f in (a, b):
        code, _, _ = run_cli("bench", "--suite", "mutated", "-n", "2",
                             "--variants", "trim+minglob", "--out", str(f))
        assert code == 0
    strip = lambda p: [(r["suite"], r["seed"], r["variant"], r["len"], r["maxstep"],
                        r["oracle_calls"]) for r in csv.DictReader(p.open())]
    assert strip(a) == strip(b)


def test_bench_trim_zero_oracle_calls(tmp_path):
    out_file = tmp_path / "rows.csv"
    code, _, _ = run_cli("bench", "--suite", "sudoku4", "-n", "2",
                         "--variants", "trim", "--out", str(out_file))
    assert code == 0
    rows = list(csv.DictReader(out_file.open()))
    assert rows and all(r["oracle_calls"] == "0" for r in rows)


def test_generate_emits_parseable_model():
    code, out, _ = run_cli("generate", "sudoku4", "--seed", "1")
    assert code == 0
    m = parse_model(out)
    assert len(m.vars) == 16


def test_env_budget_override(monkeypatch, tmp_path):
    mod = tmp_path / "hard.mod"
    lines = [f"var v{i} 0..6" for i in range(8)]
    lines.append("con ad: alldifferent(" + ",".join(f"v{i}" for i in range(8)) + ")")
    mod.write_text("\n".join(lines) + "\n")
    monkeypatch.setenv("P2S_BUDGET", "1")
    code, _, _ = run_cli("explain", str(mod), "--solve")
    assert code == 4


def test_proof_check_reports_invalid_steps(tmp_path):
    prf = tmp_path / "bad.drcp"
    prf.write_text("i a<=3|b>=7 c:p1\nn d<=0 s:1\nc UNSAT s:2\n")
    code, out, err = run_cli("proof", "check", str(prf), MOD)
    assert code == 3
    assert "1/3 steps valid" in out
    assert "invalid steps: 2, 3" in err


def test_explain_structured_with_check():
    code, out, _ = run_cli("explain", MOD, PRF, "--format", "structured", "--check")
    assert code == 0
    assert '"sequence_length": 3' in out


def test_generate_then_explain_sudoku_flow(tmp_path):
    code, out, _ = run_cli("generate", "sudoku4", "--seed", "2")
    assert code == 0
    mod = tmp_path / "sudoku4.mod"
    mod.write_text(out)
    code, out, err = run_cli("explain", str(mod), "--solve",
                             "--variant", "trim+minloc", "--check")
    assert code == 0, err
    assert "len=" in out


def test_env_budget_malformed(monkeypatch):
    monkeypatch.setenv("P2S_BUDGET", "not-a-number")
    code, _, err = run_cli("proof", "check", PRF, MOD)
    assert code == 2
    assert "P2S_BUDGET" in err


@pytest.mark.parametrize("command", [("explain", MOD, PRF), ("bench", "--suite", "mutated"),
                                     ("proof", "check", PRF, MOD)])
@pytest.mark.parametrize("value", ["-1", "x"])
def test_budget_option_must_be_a_non_negative_integer(command, value):
    with pytest.raises(SystemExit) as info:
        run_cli(*command, "--budget", value)
    assert info.value.code == 2


def test_env_budget_negative(monkeypatch):
    monkeypatch.setenv("P2S_BUDGET", "-3")
    code, _, err = run_cli("proof", "check", PRF, MOD)
    assert code == 2
    assert "P2S_BUDGET" in err and ">= 0" in err


def test_env_budget_zero_is_a_budget(monkeypatch):
    # trim makes no pipeline oracle calls, so only --check can exhaust the budget
    monkeypatch.setenv("P2S_BUDGET", "0")
    code, _, err = run_cli("explain", MOD, PRF, "--variant", "trim", "--check")
    assert code == 4
    assert "budget" in err


def test_bench_explicit_seed_list(tmp_path):
    out_file = tmp_path / "rows.csv"
    code, _, _ = run_cli("bench", "--suite", "mutated", "--seeds", "4,9",
                         "--variants", "trim", "--out", str(out_file))
    assert code == 0
    rows = list(csv.DictReader(out_file.open()))
    assert [r["seed"] for r in rows] == ["4", "9"]


@pytest.mark.parametrize("option, value", [("--variants", "trim,foo"), ("--seeds", "1,x")])
def test_bench_bad_list_option_is_a_usage_error(option, value):
    with pytest.raises(SystemExit) as info:
        run_cli("bench", "--suite", "mutated", option, value)
    assert info.value.code == 2


@pytest.mark.parametrize("option, value", [("--variants", "trim,trim"), ("--seeds", "1,1")])
def test_bench_repeated_list_item_runs_once(option, value):
    code, out, _ = run_cli("bench", "--suite", "jobshop", "-n", "1", "--variants", "trim",
                           option, value)
    assert code == 0
    assert len([ln for ln in out.splitlines() if ln.startswith("jobshop,")]) == 1
    assert "# jobshop  trim           n=  1 " in out


def test_explain_solve_log_all(tmp_path):
    mod = tmp_path / "unsat.mod"
    mod.write_text("var x 0..1\ncon a: clause x >= 1\ncon b: clause x <= 0\n")
    code, out, _ = run_cli("explain", str(mod), "--solve", "--log-all",
                           "--variant", "trim", "--check")
    assert code == 0
    assert "len=" in out


@pytest.mark.parametrize("inputs", [(PRF, "--solve"), ()], ids=["both", "neither"])
def test_explain_needs_a_proof_file_or_solve(inputs):
    code, out, err = run_cli("explain", MOD, *inputs)
    assert code == 2 and out == ""
    assert "give a proof file or --solve" in err


def test_explain_log_all_needs_solve(tmp_path):
    # checked before the model is read, so a missing model file is not the error
    for model in (MOD, str(tmp_path / "missing.mod")):
        code, out, err = run_cli("explain", model, PRF, "--log-all")
        assert code == 2 and out == ""
        assert "--log-all needs --solve" in err


def test_bench_negative_n_is_a_usage_error():
    with pytest.raises(SystemExit) as info:
        run_cli("bench", "--suite", "jobshop", "-n", "-2")
    assert info.value.code == 2


def test_bench_reports_a_failed_proof_and_goes_on():
    code, out, _ = run_cli("bench", "--suite", "sudoku4", "-n", "1", "--budget", "0",
                           "--variants", "trim")
    assert code == 0
    assert out.splitlines() == [
        "suite,seed,variant,len,maxstep,stage_times_ms,oracle_calls",
        "# FAILED sudoku4 seed=1 variant=-: prover budget exhausted after 1 conflicts"]


def test_bench_reports_a_failed_variant_and_keeps_the_others():
    code, out, _ = run_cli("bench", "--suite", "sudoku4", "--seeds", "3",
                           "--variants", "trim,trim+minloc", "--budget", "1")
    assert code == 0
    lines = out.splitlines()
    assert [ln.split(",")[:3] for ln in lines if ln.startswith("sudoku4,")] == \
        [["sudoku4", "3", "trim"]]
    assert lines[-1] == ("# FAILED sudoku4 seed=3 variant=trim+minloc: "
                         "oracle budget exhausted after 2 conflicts")


def test_explain_missing_model_file_exit_2(tmp_path):
    code, _, err = run_cli("explain", str(tmp_path / "missing.mod"), "--solve")
    assert code == 2
    assert "missing.mod" in err


def test_explain_solver_id_collision_exit_3(tmp_path):
    mod = tmp_path / "clash.mod"
    mod.write_text("var x 0..3\ncon a/1: x >= 0\ncon a: or(x <= 1; x >= 3)\n")
    code, _, err = run_cli("explain", str(mod), "--solve")
    assert code == 3
    assert "solver constraint id collision" in err
