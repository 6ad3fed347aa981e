"""Command-line surface: check, decompose, passive-realize, tf, verify.

Every invocation writes exactly one JSON object to stdout and exits with
0 (ok), 1 (input error), 2 (negative verdict), 3 (precondition violated), or
4 (numeric failure), so shell pipelines can branch on the result.  The
default tolerance is 1e-9, overridable per call with --tol and globally with
the CASCADE_SYNTH_TOL environment variable.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict
from pathlib import Path

from .composition import cascade
from .documents import RealizationDocument, SystemDocument, _encode
from .errors import (
    CascadeSynthError,
    ConvergenceFailure,
    NotCascadeRealizable,
    NotPassive,
    ParseError,
    ResolventSingular,
    ScatteringMismatch,
)
from .model import DEFAULT_TOL, SlhSystem, build_state_space, is_passive, max_abs
from .passive import passive_realize
from .realizability import decompose_cascade, is_cascade_realizable
from .verification import certify_equivalence, ccr_preservation, transfer_function

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_VERDICT = 2
EXIT_PRECONDITION = 3
EXIT_NUMERIC = 4

EQUIVALENCE_TOL = 1e-8
EQUIVALENCE_SAMPLES = 20


def _emit(obj) -> None:
    print(json.dumps(obj, indent=2, sort_keys=True))


def _resolve_tol(args, fallback=DEFAULT_TOL) -> float:
    tol = getattr(args, "tol", None)
    if tol is not None:
        return tol
    env = os.environ.get("CASCADE_SYNTH_TOL")
    if env is None:
        return fallback
    try:
        return float(env)
    except ValueError as exc:
        raise ParseError(f"CASCADE_SYNTH_TOL is not a number: {env!r}") from exc


def _load_document(path) -> SystemDocument:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    return SystemDocument.loads(text)


def _write_out(args, document: RealizationDocument) -> None:
    if args.out is not None:
        Path(args.out).write_text(document.dumps() + "\n")


def cmd_check(args) -> int:
    """Report whether the system's drift matrix is lower block triangular."""
    tol = _resolve_tol(args)
    system = _load_document(args.path).to_system()
    report = is_cascade_realizable(system, tol)
    _emit(asdict(report))
    return EXIT_OK if report.is_triangular else EXIT_VERDICT


def cmd_decompose(args) -> int:
    """Split a cascade-realizable system into its one-mode stages."""
    tol = _resolve_tol(args)
    doc = _load_document(args.path)
    system = doc.to_system()
    report = is_cascade_realizable(system, tol)
    if not report.is_triangular:
        payload = {
            "error": "system is not cascade realizable",
            "triangularity": asdict(report),
        }
        if is_passive(system, tol):
            payload["suggestion"] = "passive-realize"
        _emit(payload)
        return EXIT_VERDICT
    chain = decompose_cascade(system, tol)
    document = RealizationDocument(
        input_digest=doc.digest(),
        stages=chain.stages,
        reports={"triangularity": asdict(report)},
    )
    _write_out(args, document)
    _emit(document.to_dict())
    return EXIT_OK


def _relative_mismatch(g: SlhSystem, ref: SlhSystem) -> float:
    """Largest entrywise mismatch of S, K and R, each relative to the
    max-norm of the reference matrix (absolute where that is zero)."""
    return max(
        max_abs(x - y) / (max_abs(y) or 1.0)
        for x, y in ((g.s, ref.s), (g.k, ref.k), (g.r, ref.r))
    )


def cmd_passive_realize(args) -> int:
    """Run the passive synthesis pipeline and certify every result."""
    tol = _resolve_tol(args)
    doc = _load_document(args.path)
    system = doc.to_system()
    try:
        realization = passive_realize(system, tol)
    except NotCascadeRealizable as exc:
        # the rotated drift misses a tolerance near rounding: a verdict, not an input error
        _emit({"error": str(exc), "triangularity": asdict(exc.report)})
        return EXIT_VERDICT
    triangularity = is_cascade_realizable(realization.system, tol)
    symplectic_residual = ccr_preservation(realization.transform)
    equivalence = certify_equivalence(
        system,
        realization.system,
        n_samples=EQUIVALENCE_SAMPLES,
        tol=EQUIVALENCE_TOL,
        seed=args.seed,
    )
    stages_passive = all(
        is_passive(stage, tol) for stage in realization.chain.stages
    )
    # the document carries the stages, so they must rebuild the certified system
    chain_residual = _relative_mismatch(cascade(realization.chain), realization.system)
    document = RealizationDocument(
        input_digest=doc.digest(),
        stages=realization.chain.stages,
        v=realization.transform.v,
        reports={
            "triangularity": asdict(triangularity),
            "symplectic_residual": symplectic_residual,
            "equivalence": asdict(equivalence),
            "stages_passive": stages_passive,
            "chain_residual": chain_residual,
        },
    )
    _write_out(args, document)
    _emit(document.to_dict())
    certified = (
        triangularity.is_triangular
        and symplectic_residual <= tol
        and equivalence.verdict
        and stages_passive
        and chain_residual <= tol
    )
    return EXIT_OK if certified else EXIT_VERDICT


def _parse_points(text) -> list[complex]:
    points = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        try:
            points.append(complex(token))
        except ValueError as exc:
            raise ParseError(f"cannot parse frequency {token!r}") from exc
    if not points:
        raise ParseError("--points must list at least one complex frequency")
    return points


def cmd_tf(args) -> int:
    """Evaluate the doubled-up transfer function at the given frequencies."""
    system = _load_document(args.path).to_system()
    points = _parse_points(args.points)
    values = _encode(transfer_function(build_state_space(system), points))
    samples = [{"s": [s.real, s.imag], "value": v} for s, v in zip(points, values)]
    _emit({"samples": samples})
    return EXIT_OK


def cmd_verify(args) -> int:
    """Certify transfer-function equivalence of two system documents."""
    tol = _resolve_tol(args, fallback=EQUIVALENCE_TOL)
    g1 = _load_document(args.path_a).to_system()
    g2 = _load_document(args.path_b).to_system()
    report = certify_equivalence(
        g1, g2, n_samples=args.samples, tol=tol, seed=args.seed
    )
    _emit(asdict(report))
    return EXIT_OK if report.verdict else EXIT_VERDICT


class _Parser(argparse.ArgumentParser):
    # bad flags are input errors (exit 1); exit 2 is reserved for verdicts
    def error(self, message):
        self.print_usage(sys.stderr)
        print(json.dumps({"error": message}), file=sys.stdout)
        raise SystemExit(EXIT_INPUT)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="cascade-synth",
        description="Cascade synthesis and certification for linear quantum "
        "stochastic systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="test pure-cascade realizability")
    check.add_argument("path", help="system document (JSON)")
    check.add_argument("--tol", type=float, default=None, help="triangularity tolerance")
    check.set_defaults(func=cmd_check)

    decompose = sub.add_parser("decompose", help="split into one-mode stages")
    decompose.add_argument("path", help="system document (JSON)")
    decompose.add_argument("--tol", type=float, default=None, help="triangularity tolerance")
    decompose.add_argument("--out", default=None, help="write the realization document here")
    decompose.set_defaults(func=cmd_decompose)

    realize = sub.add_parser(
        "passive-realize",
        help="construct and certify a cascade realization of a passive system",
    )
    realize.add_argument("path", help="system document (JSON)")
    realize.add_argument("--out", default=None, help="write the realization document here")
    realize.add_argument("--seed", type=int, default=0, help="equivalence sampling seed")
    realize.set_defaults(func=cmd_passive_realize)

    tf = sub.add_parser("tf", help="evaluate the doubled-up transfer function")
    tf.add_argument("path", help="system document (JSON)")
    tf.add_argument(
        "--points",
        required=True,
        help="comma-separated complex frequencies, e.g. 1+2j,0.5,-0.25-1j",
    )
    tf.set_defaults(func=cmd_tf)

    verify = sub.add_parser("verify", help="certify transfer-function equivalence")
    verify.add_argument("path_a", help="first system document (JSON)")
    verify.add_argument("path_b", help="second system document (JSON)")
    verify.add_argument("--samples", type=int, default=EQUIVALENCE_SAMPLES)
    verify.add_argument("--tol", type=float, default=None, help="equivalence tolerance")
    verify.add_argument("--seed", type=int, default=0, help="sampling seed")
    verify.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        _emit({"error": str(exc), "kind": "parse"})
        return EXIT_INPUT
    except (NotPassive, ScatteringMismatch) as exc:
        _emit({"error": str(exc), "kind": "precondition"})
        return EXIT_PRECONDITION
    except (ConvergenceFailure, ResolventSingular, OverflowError) as exc:
        _emit({"error": str(exc), "kind": "numeric"})
        return EXIT_NUMERIC
    except (ValueError, CascadeSynthError) as exc:
        _emit({"error": str(exc), "kind": "input"})
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
