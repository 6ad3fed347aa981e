"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench/tests

The smoke runs start the benchmark at its minimal length on every workload
and mode; the rest check the output gates, the tracer and the inputs in
this process.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import cascade_synth as cs  # noqa: E402
import cascade_synth.cli  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_benchmark(cwd, workload, trace, seconds=1):
    return subprocess.run(
        [*SPEC["command"], "--workload", workload, "--seed", "7", "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=600,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_reports_every_metric_with_its_unit(workload, trace):
    done = run_benchmark(ROOT, workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    done = run_benchmark(tmp_path, "batch-small", 0)
    assert done.returncode != 0
    assert done.stdout.strip() == ""


def _perturbed_system(realization):
    """Same shapes, passive, but R shifted: not equivalent to the input."""
    system = realization.system
    return realization._replace(system=cs.SlhSystem(s=system.s, k=system.k, r=system.r + 1e-3 * np.eye(system.r.shape[0])))


def _perturbed_chain(realization):
    """Certified system, but the last stage's Hamiltonian is off, so
    cascading the chain no longer reproduces the system."""
    stages = list(realization.chain.stages)
    last = stages[-1]
    stages[-1] = cs.SlhSystem(s=last.s, k=last.k, r=last.r + 1e-3 * np.eye(2))
    return realization._replace(chain=cs.CascadeChain(stages=tuple(stages)))


def _wrong(realize, corrupt):
    def wrong(*args, **kwargs):
        return corrupt(realize(*args, **kwargs))

    return wrong


@pytest.mark.parametrize(
    "workload, corrupt",
    [("batch-small", _perturbed_system), ("large-n", _perturbed_system), ("large-n", _perturbed_chain)],
)
def test_wrong_realization_counts_as_failed(monkeypatch, workload, corrupt):
    monkeypatch.setattr(cs, "passive_realize", _wrong(cs.passive_realize, corrupt))
    result = workloads.Runner(workload, 3).loop(seconds=0.2)
    assert result["latencies"]
    assert len(result["failures"]) == len(result["latencies"])


@pytest.mark.parametrize("corrupt", [_perturbed_system, _perturbed_chain])
def test_wrong_cli_realization_counts_as_failed(monkeypatch, tmp_path, corrupt):
    monkeypatch.setattr(cascade_synth.cli, "passive_realize", _wrong(cascade_synth.cli.passive_realize, corrupt))
    runner = workloads.Runner("cli-cold", 3, tmp_path, in_process=True)
    index = workloads.CLI_COMMANDS.index("passive-realize")
    _, failure, _ = runner.run_one(runner.case(workloads.STREAM_TIMED, index))
    assert failure is not None


def test_correct_cli_ops_pass_in_process(tmp_path):
    runner = workloads.Runner("cli-cold", 3, tmp_path, in_process=True)
    for index in range(len(workloads.CLI_COMMANDS)):
        _, failure, _ = runner.run_one(runner.case(workloads.STREAM_TIMED, index))
        assert failure is None
    assert list(tmp_path.iterdir()) == []


def test_spans_nest_and_uninstall_restores_the_package():
    original = cs.passive_realize
    tracer = Tracer()
    tracer.install()
    try:
        case = workloads.make_case("batch-small", 1, workloads.STREAM_TIMED, 0, None)
        tracer.op = 5
        cs.passive_realize(case.data["system"])
    finally:
        tracer.uninstall()
    assert cs.passive_realize is original
    assert cascade_synth.cli.passive_realize is original
    by_id = {span[0]: span for span in tracer.spans}
    by_name = {span[1]: span for span in tracer.spans}
    assert by_id[by_name["realizability.decompose_cascade"][4]][1] == "passive.passive_realize"
    assert by_id[by_name["realizability.is_cascade_realizable"][4]][1] == "realizability.decompose_cascade"
    assert by_name["passive.passive_realize"][4] == -1
    assert {span[5] for span in tracer.spans} == {5}
    summary = tracer.summary(1)
    for name in ("passive.passive_realize", "realizability.decompose_cascade"):
        assert summary[name]["calls"] == 1
        assert 0 <= summary[name]["self_s"] <= summary[name]["total_s"]


def test_inputs_follow_the_seed_and_match_the_package_formulas():
    a = workloads.make_case("large-n", 4, workloads.STREAM_TIMED, 2, None)
    b = workloads.make_case("large-n", 4, workloads.STREAM_TIMED, 2, None)
    c = workloads.make_case("large-n", 5, workloads.STREAM_TIMED, 2, None)
    assert np.array_equal(a.passive.k, b.passive.k) and np.array_equal(a.passive.r, b.passive.r)
    assert not np.array_equal(a.passive.k, c.passive.k)
    form = cs.to_passive_form(a.data["system"])
    assert cs.max_abs(form.k_tilde - a.passive.k_tilde) == 0.0
    assert cs.max_abs(cs.mode_matrix(form) - a.passive.mode_matrix()) <= 1e-12
