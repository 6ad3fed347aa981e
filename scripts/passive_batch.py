"""
passive_batch.py

Batch certification harness for the passive synthesis pipeline.  Draws random
passive systems (optionally forcing a fraction to have exactly repeated mode
frequencies), runs passive_realize on each, and certifies the result with
certify_realization, the checks passive-realize runs: triangularity of the
transformed drift, symplecticity of the transform, transfer-function
equivalence, per-stage passivity, and that the emitted chain rebuilds the
transformed system.  A failed check is named by its certificate field; a
case whose transformed drift misses triangularity so far that
passive_realize raises NotCascadeRealizable fails the triangularity check
and has no certificate; the summary counts such cases as uncertified.
Prints one JSON summary to stdout and exits 0 only when every case
certifies, so the script can gate CI runs or larger parameter sweeps.  The
summary gives the worst upper-block residual over every case, the worst
transfer mismatch over the certified cases (null when none certified), the
throughput (cases_per_s) and, for each mode count n, the p50, p95 and max
over the certified cases of the transfer mismatch, of the upper-block
residual, and of the seconds each case spent in passive_realize
(realize_s) and in its certification (certify_s), in by_modes.  The
transfer mismatch is the certificate's max_rel_mismatch: every case is a
passive pair, so for a case that certifies it is the bound
|F1 - F2|_F + |S1 - S2|_F on |G1 - G2|_max at the samples, and otherwise
the measured |G1 - G2|_max / max(1, |G1|_max) (see certify_equivalence).

    python scripts/passive_batch.py --count 500 --max-modes 6 --seed 7
"""

import argparse
import json
import math
import sys
import time

import numpy as np

from cascade_synth import (
    DEFAULT_TOL,
    NotCascadeRealizable,
    certify_realization,
    from_passive_form,
    passive_realize,
)
from cascade_synth.sampling import random_passive_form, random_unitary


def distribution(values):
    return {
        "p50": float(np.percentile(values, 50)),
        "p95": float(np.percentile(values, 95)),
        "max": float(np.max(values)),
    }


def certify_case(sys_, tol, seed):
    """Realize one system and certify the result; return the certificate
    and the seconds spent in passive_realize and in the certification.
    Raises NotCascadeRealizable when passive_realize finds the transformed
    drift not triangular."""
    t_realize = time.perf_counter()
    realization = passive_realize(sys_, tol=tol)
    t_certify = time.perf_counter()
    certificate = certify_realization(sys_, realization, tol, seed)
    t_done = time.perf_counter()
    return certificate, t_certify - t_realize, t_done - t_certify


def run_batch(args):
    rng = np.random.default_rng(args.seed)
    failures = []
    degenerate_count = 0
    # per mode count: (max_rel_mismatch, max_upper_residual, realize_s,
    # certify_s) of each case
    by_modes = {}
    # max_upper_residual of each case that passive_realize refused
    raised = []
    # one untimed case first, at the default tolerance, where it certifies,
    # so that no case's timings carry one-time set-up such as loading LAPACK
    certify_case(from_passive_form(random_passive_form(2, 1, 0), s=np.eye(1)), DEFAULT_TOL, 0)
    t0 = time.perf_counter()
    for case in range(args.count):
        n = int(rng.integers(1, args.max_modes + 1))
        m = int(rng.integers(1, args.fields + 1))
        degenerate = rng.random() < args.degenerate_fraction and n > 1
        degenerate_count += degenerate
        pf = random_passive_form(n, m, rng, degenerate=degenerate)
        sys_ = from_passive_form(pf, s=random_unitary(m, rng))
        try:
            certificate, realize_s, certify_s = certify_case(sys_, args.tol, args.seed)
        except NotCascadeRealizable as exc:
            failures.append({"case": case, "check": "triangularity"})
            raised.append(exc.report.max_upper_residual)
            continue
        failures += [{"case": case, "check": check} for check in certificate.failed]
        by_modes.setdefault(n, []).append(
            (
                certificate.equivalence.max_rel_mismatch,
                certificate.triangularity.max_upper_residual,
                realize_s,
                certify_s,
            )
        )
    seconds = time.perf_counter() - t0
    cases = [c for n in by_modes for c in by_modes[n]]
    return {
        "count": args.count,
        "degenerate_cases": degenerate_count,
        "failures": failures,
        "uncertified": len(raised),
        "worst_transfer_mismatch": max((c[0] for c in cases), default=None),
        "worst_upper_residual": max([c[1] for c in cases] + raised),
        "by_modes": {
            str(n): {
                "cases": len(by_modes[n]),
                "max_rel_mismatch": distribution([c[0] for c in by_modes[n]]),
                "max_upper_residual": distribution([c[1] for c in by_modes[n]]),
                "realize_s": distribution([c[2] for c in by_modes[n]]),
                "certify_s": distribution([c[3] for c in by_modes[n]]),
            }
            for n in sorted(by_modes)
        },
        "cases_per_s": args.count / seconds,
        "tolerance": args.tol,
        "seed": args.seed,
        "seconds": round(seconds, 3),
        "ok": not failures,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[2])
    parser.add_argument("--count", type=int, default=200, help="number of random cases")
    parser.add_argument("--max-modes", type=int, default=5, help="mode count upper bound")
    parser.add_argument("--fields", type=int, default=4, help="field count upper bound")
    parser.add_argument("--seed", type=int, default=0, help="RNG seed")
    parser.add_argument(
        "--degenerate-fraction",
        type=float,
        default=0.2,
        help="fraction of cases with repeated mode frequencies",
    )
    parser.add_argument("--tol", type=float, default=DEFAULT_TOL, help="certification tolerance")
    args = parser.parse_args(argv)
    # a batch of no cases, or of cases no draw can make, certifies nothing
    counts = {"--count": args.count, "--max-modes": args.max_modes, "--fields": args.fields}
    for flag, value in counts.items():
        if value < 1:
            parser.error(f"{flag} must be at least 1, got {value}")
    if not 0.0 <= args.degenerate_fraction <= 1.0:
        parser.error(f"--degenerate-fraction must lie in [0, 1], got {args.degenerate_fraction}")
    if not (math.isfinite(args.tol) and args.tol >= 0.0):
        parser.error(f"--tol must be a finite number at least 0, got {args.tol}")
    if args.seed < 0:
        parser.error(f"--seed must be an integer at least 0, got {args.seed}")

    summary = run_batch(args)
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 0 if summary["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
