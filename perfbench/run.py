"""cascade-synth benchmark: one command, three workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload {batch-small,large-n,cli-cold} \\
        --seed N --seconds T --trace {0,1}

Run it from the root of a source checkout; it measures the package in
``src/`` of that checkout and exits non-zero without a result when there is
none.  Every op is one closed-loop request from a single client, one op at a
time, with one BLAS thread.  Inputs come from ``--seed`` (see
``workloads.py``); every op's output is checked and a failed op is counted,
never dropped or retried.

``--trace 0`` reports the end-to-end metrics:

- ``setup_s``: a fresh interpreter through ``import cascade_synth`` to the
  end of one warm-up op, input generation left out; median of
  ``SETUP_REPEATS`` fresh interpreters.
- ``latency_p50_s``: per-op wall time, median, in the best block (below).
- ``ops_per_s``: ops completed over the op wall time of the best block (the
  benchmark's own output checks run between ops, outside it).
- ``latency_tail_s``: per-op wall time at the highest percentile with at
  least 10 samples above it, over the best block when it holds at least
  ``TAIL_MIN_SAMPLES`` ops, else over all timed ops.  Which percentile that
  is, and the sample count, are in the details line.
- ``peak_rss_mb``: peak resident memory of the worker process; for cli-cold,
  of the largest CLI process.
- ``ok_rate``: ops that passed their check over ops attempted, i.e.
  1 - error_rate.  error_rate itself is 0 when all is well, and a metric
  that reads 0 has no median to bound, so the details line carries it with
  both counts.

``--trace 1`` reports the per-layer metrics: for each span in ``spans.py``,
calls, total_s and self_s per traced op; the tracing overhead, from traced
and untraced ops alternating in one process (cli-cold runs ``cli.main`` in
that process); the Schur and import floors and the ratios against them.

Best block: the timed loop moves to the currently fastest CPU every half
second (``cpus.py``), its latencies are cut into consecutive blocks of
``workloads.BLOCK_OPS[workload]`` ops (a quarter second to two seconds), and the
block with the lowest median latency is reported, the best-of-repeats rule
of ``timeit``.
On the shared 2-vCPU host this benchmark was written on, each vCPU's speed
moves between levels up to 2x apart, both from second to second and in
phases of 10 to 30 seconds, and small and large ops slow alike, so a whole
run can sit in the slow phase: medians over all ops of 35 s runs spread by
10-35% (quartile distance over median) between runs, the best block on the
fastest CPU by 5-15%.  A slower program slows every block, so it still
shows.  The same statistics over all timed ops are in the details line.

The last line of stdout is the result object; the line before it carries
provenance and details.  Spans and a copy of the result go to
``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import importlib.metadata
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from cpus import pin_fastest_cpu
from spans import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKER = HERE / "worker.py"

WORKLOADS = ("batch-small", "large-n", "cli-cold")
SETUP_REPEATS = 5
TAIL_MIN_SAMPLES = 50
PROBE_REPEATS = 5
# One BLAS thread: at n = 128 it measured faster than two on a 2-vCPU host.
BLAS_THREADS = 1
CHILD_TIMEOUT_S = 170
CPUS = sorted(os.sched_getaffinity(0))


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env.pop("CASCADE_SYNTH_TOL", None)
    return env


def run_child(argv, pin=True) -> tuple[dict, float]:
    """Run a Python child; return the JSON object it printed last (empty if
    none) and the ``time.monotonic()`` at which it was started.

    With ``pin`` the child runs on the CPU that is fastest when it starts;
    the timed loops pin themselves block by block instead.
    """
    if pin:
        pin_fastest_cpu(CPUS)
    try:
        started = time.monotonic()
        done = subprocess.run(
            [sys.executable, *map(str, argv)],
            cwd=ROOT,
            env=child_env(),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    finally:
        os.sched_setaffinity(0, CPUS)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(map(str, argv[:2]))} exited {done.returncode}:\n{done.stderr[-2000:]}")
    lines = done.stdout.strip().splitlines()
    return (json.loads(lines[-1]) if lines else {}), started


def median(values) -> float:
    return statistics.median(values)


def tail(latencies) -> tuple[float, float, int]:
    """Value, percentile and sample count of the highest percentile that
    still has at least 10 samples above it."""
    ordered = sorted(latencies)
    index = max(0, len(ordered) - 11)
    return ordered[index], 100.0 * (index + 1) / len(ordered), len(ordered) - 1 - index


def metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


# ------------------------------------------------------------ end to end


def setup_times(workload, seed) -> tuple[list[float], list[str]]:
    times, failures = [], []
    for index in range(SETUP_REPEATS):
        out, started = run_child([WORKER, "setup", "--workload", workload, "--seed", seed, "--index", index])
        times.append(out["t_end"] - started - out["gen_s"])
        if out["failure"]:
            failures.append(f"setup {index}: {out['failure']}")
    return times, failures


def best_block(latencies, size) -> list[float]:
    blocks = [latencies[i : i + size] for i in range(0, len(latencies) - size + 1, size)]
    return min(blocks, key=median) if blocks else latencies


def latency_stats(latencies) -> dict:
    tail_value, tail_percentile, above = tail(latencies)
    return {
        "ops": len(latencies),
        "latency_p50_s": median(latencies),
        "latency_tail_s": tail_value,
        "tail_percentile": tail_percentile,
        "tail_samples_above": above,
        "ops_per_s": len(latencies) / sum(latencies),
    }


def end_to_end(workload, seed, seconds) -> tuple[dict, int, list[str], dict]:
    setups, failures = setup_times(workload, seed)
    loop, _ = run_child([WORKER, "loop", "--workload", workload, "--seed", seed, "--seconds", seconds], pin=False)
    failures += loop["warmup_failures"] + loop["failures"]
    latencies = loop["latencies"]
    attempted = SETUP_REPEATS + loop["warmup_ops"] + len(latencies)
    block = latency_stats(best_block(latencies, loop["block_ops"]))
    every = latency_stats(latencies)
    tail_from = block if block["ops"] >= TAIL_MIN_SAMPLES else every
    metrics = {
        "setup_s": metric(median(setups), "s"),
        "ops_per_s": metric(block["ops_per_s"], "1/s"),
        "latency_p50_s": metric(block["latency_p50_s"], "s"),
        "latency_tail_s": metric(tail_from["latency_tail_s"], "s"),
        "peak_rss_mb": metric(loop["peak_rss_mb"], "MB"),
        "ok_rate": metric(1.0 - len(failures) / attempted, "ratio"),
    }
    details = {
        "setup_s_samples": setups,
        "timed_ops": len(latencies),
        "best_block": block,
        "all_ops": every,
        "tail_over": "best_block" if tail_from is block else "all_ops",
        "ops_attempted": attempted,
        "ops_failed": len(failures),
        "error_rate": len(failures) / attempted,
    }
    return metrics, attempted, failures, details


# ------------------------------------------------------------- per layer


def probe_floors(seed) -> dict:
    startup, numpy_s, scipy_s, cli_import, cli_total, failures = [], [], [], [], [], []
    for index in range(PROBE_REPEATS):
        _, started = run_child(["-c", "pass"])
        startup.append(time.monotonic() - started)
        out, _ = run_child([WORKER, "imports"])
        numpy_s.append(out["numpy_s"])
        scipy_s.append(out["scipy_linalg_s"])
        out, started = run_child([WORKER, "coldcli", "--seed", seed, "--index", index])
        cli_import.append(out["import_s"])
        cli_total.append(out["t_end"] - started - out["gen_s"])
        if out["failure"]:
            failures.append(f"cold cli {index}: {out['failure']}")
    return {
        "floor.python_startup_s": metric(median(startup), "s"),
        "floor.import_numpy_s": metric(median(numpy_s), "s"),
        "floor.import_scipy_linalg_s": metric(median(scipy_s), "s"),
        "cli.import_s": metric(median(cli_import), "s"),
        "cli.import_share": metric(median(cli_import) / median(cli_total), "ratio"),
    }, failures


def per_layer(workload, seed, seconds) -> tuple[dict, int, list[str], dict]:
    metrics, failures = probe_floors(seed)
    spans_path = OUT / f"spans-{workload}-seed{seed}.json"
    run, _ = run_child(
        [WORKER, "layers", "--workload", workload, "--seed", seed, "--seconds", seconds, "--spans-out", spans_path],
        pin=False,
    )
    failures += run["warmup_failures"] + run["failures"]
    for name, values in run["spans"].items():
        metrics[f"{name}.calls"] = metric(values["calls"], "calls/op")
        metrics[f"{name}.total_s"] = metric(values["total_s"], "s/op")
        metrics[f"{name}.self_s"] = metric(values["self_s"], "s/op")
    for name, value in run["counters"].items():
        metrics[name] = metric(value, "bytes/op")
    schur = median(run["schur_s"])
    metrics["floor.scipy_schur_s"] = metric(schur, "s")
    metrics["passive.realize_over_schur"] = metric(median(run["realize_s"]) / schur, "ratio")
    untraced, traced = sum(run["untraced"]), sum(run["traced"])
    metrics["trace.overhead_share"] = metric(traced / untraced - 1.0, "ratio")
    ops = len(run["traced"])
    attempted = PROBE_REPEATS + run["warmup_ops"] + 2 * ops
    details = {
        "traced_ops": ops,
        "spans_file": str(spans_path.relative_to(ROOT)),
        "untraced_op_s": untraced / ops,
        "traced_op_s": traced / ops,
        "ops_attempted": attempted,
        "ops_failed": len(failures),
    }
    return metrics, attempted, failures, details


# ------------------------------------------------------------ provenance


def provenance(args) -> dict:
    sources = sorted(SRC.rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in sources:
        data = path.read_bytes()
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    sha = None
    if (ROOT / ".git").exists():  # a plain source checkout has no SHA to report
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except OSError:
            pass
    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
        "nproc": len(CPUS),
        "cpu_model": cpu,
        "blas_threads": BLAS_THREADS,
        "python": sys.version.split()[0],
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="cascade-synth benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "cascade_synth" / "__init__.py").is_file():
        print(f"no cascade_synth package under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    # Bytecode for the package, as an installed copy would have, so the
    # first run in a checkout does not pay for compiling it.
    for path in (SRC, HERE):
        compileall.compile_dir(path, quiet=1)
    OUT.mkdir(exist_ok=True)

    measure = per_layer if args.trace else end_to_end
    metrics, attempted, failures, details = measure(args.workload, args.seed, args.seconds)
    details["failures"] = failures[:20]
    details["layers"] = {
        layer: {"spans": list(names), "should_move": moves} for layer, (names, moves) in LAYERS.items()
    }
    result = {"correct": not failures, "attempted": attempted, "failed": len(failures), "metrics": metrics}
    record = {"provenance": provenance(args), "details": details, "result": result}
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps({"provenance": record["provenance"], "details": details}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
