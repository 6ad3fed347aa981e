"""Child-process entry points of the benchmark; ``run.py`` starts them.

    worker.py setup   --workload W --seed S --index I
    worker.py loop    --workload W --seed S --seconds T
    worker.py layers  --workload W --seed S --seconds T --spans-out PATH
    worker.py coldcli --seed S --index I
    worker.py imports

Each prints one JSON object on stdout.  Only the standard library is
imported at the top, so that what a probe times is the import it names.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK_PARENT = ROOT / ".perfbench_out"


def _workdir() -> Path:
    WORK_PARENT.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(prefix="work-", dir=WORK_PARENT))


def cmd_setup(args) -> dict:
    """One fresh interpreter: import, then one warm-up op.  Input
    generation is timed and reported so the caller can leave it out."""
    import cascade_synth  # noqa: F401

    if args.workload == "cli-cold":
        import cascade_synth.cli  # noqa: F401
    import workloads

    workdir = _workdir()
    try:
        runner = workloads.Runner(args.workload, args.seed, workdir, in_process=True)
        t0 = time.perf_counter()
        case = runner.case(workloads.STREAM_SETUP, args.index)
        gen_s = time.perf_counter() - t0
        _, failure, t_end = runner.run_one(case)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {"t_end": t_end, "gen_s": gen_s, "failure": failure}


def cmd_loop(args) -> dict:
    import workloads

    workdir = _workdir()
    try:
        runner = workloads.Runner(args.workload, args.seed, workdir, cwd=ROOT)
        warmup_failures = runner.warm_up()
        result = runner.loop(args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result["warmup_ops"] = runner.WARMUP_OPS
    result["warmup_failures"] = warmup_failures
    return result


def cmd_layers(args) -> dict:
    import workloads
    from spans import Tracer

    tracer = Tracer()
    workdir = _workdir()
    try:
        runner = workloads.Runner(args.workload, args.seed, workdir, in_process=True, tracer=tracer)
        warmup_failures = runner.warm_up()
        result = runner.traced_loop(args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    ops = len(result["traced"])
    result["spans"] = tracer.summary(ops)
    result["counters"] = {key: value / ops for key, value in tracer.counters.items()}
    result["warmup_ops"] = runner.WARMUP_OPS
    result["warmup_failures"] = warmup_failures
    tracer.write(Path(args.spans_out))
    return result


def cmd_coldcli(args) -> dict:
    """A cold CLI call split in two: the import of ``cascade_synth.cli``,
    timed here, and one command run in this interpreter."""
    t0 = time.perf_counter()
    import cascade_synth.cli  # noqa: F401

    import_s = time.perf_counter() - t0
    result = cmd_setup(argparse.Namespace(workload="cli-cold", seed=args.seed, index=args.index))
    result["import_s"] = import_s
    return result


def cmd_imports(args) -> dict:
    t0 = time.perf_counter()
    import numpy  # noqa: F401

    t1 = time.perf_counter()
    import scipy.linalg  # noqa: F401

    t2 = time.perf_counter()
    return {"numpy_s": t1 - t0, "scipy_linalg_s": t2 - t1}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    sub = parser.add_subparsers(dest="command", required=True)
    setup = sub.add_parser("setup")
    setup.add_argument("--workload", required=True)
    setup.add_argument("--seed", type=int, required=True)
    setup.add_argument("--index", type=int, required=True)
    setup.set_defaults(func=cmd_setup)
    loop = sub.add_parser("loop")
    loop.add_argument("--workload", required=True)
    loop.add_argument("--seed", type=int, required=True)
    loop.add_argument("--seconds", type=float, required=True)
    loop.set_defaults(func=cmd_loop)
    layers = sub.add_parser("layers")
    layers.add_argument("--workload", required=True)
    layers.add_argument("--seed", type=int, required=True)
    layers.add_argument("--seconds", type=float, required=True)
    layers.add_argument("--spans-out", required=True)
    layers.set_defaults(func=cmd_layers)
    cold = sub.add_parser("coldcli")
    cold.add_argument("--seed", type=int, required=True)
    cold.add_argument("--index", type=int, required=True)
    cold.set_defaults(func=cmd_coldcli)
    imports = sub.add_parser("imports")
    imports.set_defaults(func=cmd_imports)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    print(json.dumps(args.func(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
