"""Smoke runs of the command-line scripts under scripts/."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cascade_synth

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_passive_batch_certifies_every_case(capsys):
    code = load_script("passive_batch").main(["--count", "20"])
    summary = json.loads(capsys.readouterr().out)
    assert code == 0
    assert summary["ok"] is True
    assert summary["count"] == 20 and summary["failures"] == []
    assert summary["uncertified"] == 0
    assert summary["cases_per_s"] > 0
    by_modes = summary["by_modes"]
    assert set(by_modes) <= {str(n) for n in range(1, 6)}
    assert sum(entry["cases"] for entry in by_modes.values()) == 20
    keys = ("max_rel_mismatch", "max_upper_residual")
    for entry in by_modes.values():
        assert set(entry) == {"cases", *keys, "realize_s", "certify_s"}
        for key in (*keys, "realize_s", "certify_s"):
            dist = entry[key]
            assert set(dist) == {"p50", "p95", "max"}
            assert 0.0 <= dist["p50"] <= dist["p95"] <= dist["max"]
        assert entry["realize_s"]["p50"] > 0.0 and entry["certify_s"]["p50"] > 0.0
    worst = {key: max(e[key]["max"] for e in by_modes.values()) for key in keys}
    assert worst["max_rel_mismatch"] == summary["worst_transfer_mismatch"]
    assert worst["max_upper_residual"] == summary["worst_upper_residual"]


def test_passive_batch_names_a_failed_chain(capsys, monkeypatch):
    # stages that no longer cascade to the realized system fail the
    # certificate's chain_residual, and the summary names that field
    script = load_script("passive_batch")
    realize = script.passive_realize

    def bent(system, tol):
        realization = realize(system, tol)
        first, *rest = realization.chain.stages
        stage = cascade_synth.SlhSystem(s=first.s, k=1.01 * first.k, r=first.r)
        return realization._replace(chain=cascade_synth.CascadeChain(stages=(stage, *rest)))

    monkeypatch.setattr(script, "passive_realize", bent)
    code = script.main(["--count", "3"])
    summary = json.loads(capsys.readouterr().out)
    assert code == 1 and summary["ok"] is False
    assert summary["failures"] == [{"case": case, "check": "chain_residual"} for case in range(3)]


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["--count", "0"], "--count"),
        (["--count", "-2"], "--count"),
        (["--max-modes", "0"], "--max-modes"),
        (["--fields", "0"], "--fields"),
        (["--degenerate-fraction", "1.5"], "--degenerate-fraction"),
        (["--degenerate-fraction", "-0.1"], "--degenerate-fraction"),
        (["--degenerate-fraction", "nan"], "--degenerate-fraction"),
        (["--tol", "-1"], "--tol"),
        (["--tol", "nan"], "--tol"),
        (["--tol", "inf"], "--tol"),
        (["--seed", "-1"], "--seed"),
    ],
)
def test_passive_batch_refuses_meaningless_arguments(capsys, argv, flag):
    # no summary, so no verdict, for a batch that cannot certify anything
    with pytest.raises(SystemExit) as exc:
        load_script("passive_batch").main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert f"error: {flag} must" in captured.err


def test_passive_batch_accepts_the_edges(capsys):
    argv = ["--count", "1", "--max-modes", "1", "--fields", "1", "--degenerate-fraction", "1"]
    code = load_script("passive_batch").main(argv)
    summary = json.loads(capsys.readouterr().out)
    assert code == 0 and summary["ok"] is True
    assert summary["count"] == 1 and summary["by_modes"]["1"]["cases"] == 1


def test_passive_batch_warm_up_does_not_decide_the_run(capsys):
    # at --tol 0 the untimed warm-up case may miss triangularity by rounding;
    # only the drawn one-mode case, triangular exactly, is judged
    argv = ["--count", "1", "--max-modes", "1", "--fields", "1", "--tol", "0"]
    code = load_script("passive_batch").main(argv)
    summary = json.loads(capsys.readouterr().out)
    assert code == 0 and summary["ok"] is True and summary["failures"] == []
    assert summary["by_modes"]["1"]["cases"] == 1


def finite_json(text):
    def refuse(constant):
        raise ValueError(f"{constant} is not finite JSON")

    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize("tol", ["0", "1e-17"])
def test_passive_batch_counts_a_raising_case_as_failed_triangularity(capsys, tol):
    # passive_realize raises NotCascadeRealizable when the transformed drift
    # misses a tolerance below rounding: that case fails triangularity, and
    # the summary of the rest stays finite
    code = load_script("passive_batch").main(["--count", "5", "--tol", tol])
    summary = finite_json(capsys.readouterr().out)
    assert code == 1 and summary["ok"] is False
    failures = summary["failures"]
    assert failures and {f["check"] for f in failures} == {"triangularity"}
    raised = len({f["case"] for f in failures})
    assert summary["uncertified"] == raised
    assert sum(entry["cases"] for entry in summary["by_modes"].values()) == 5 - raised
    assert summary["cases_per_s"] > 0
    # the refused cases' residuals count towards the worst one
    certified = max(entry["max_upper_residual"]["max"] for entry in summary["by_modes"].values())
    assert summary["worst_upper_residual"] > certified


def test_passive_batch_with_no_certified_case_reports_no_worst_mismatch(capsys):
    # the one drawn case (3 modes) misses triangularity by rounding at
    # --tol 0: no transfer mismatch was measured, so none stands as 0.0
    argv = ["--count", "1", "--max-modes", "3", "--fields", "1", "--tol", "0"]
    code = load_script("passive_batch").main(argv)
    summary = finite_json(capsys.readouterr().out)
    assert code == 1 and summary["ok"] is False and summary["uncertified"] == 1
    assert summary["by_modes"] == {} and summary["worst_transfer_mismatch"] is None
    assert summary["worst_upper_residual"] > 0.0


def test_reference_example_runs_clean():
    env = dict(os.environ, PYTHONPATH=str(Path(cascade_synth.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "reference_example.py")],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert "G(1+1j) =" in proc.stdout
    assert proc.stderr == ""
