"""Command-line surface: check, decompose, passive-realize, tf, verify.

Every invocation writes exactly one canonical JSON object to stdout (for
decompose and passive-realize, the bytes --out writes) and exits with
0 (ok), 1 (input error), 2 (negative verdict), 3 (precondition violated), or
4 (numeric failure), so shell pipelines can branch on the result.  The
result depends only on the arguments and the files they name.  The
structural tolerance defaults to 1e-9 and verify's equivalence tolerance to
1e-8, each overridable per call with --tol.
"""

from __future__ import annotations

import argparse
import cmath
import math
import sys
from dataclasses import asdict
from pathlib import Path

from .documents import RealizationDocument, SystemDocument, _encode, canonical_json
from .errors import (
    CascadeSynthError,
    ConvergenceFailure,
    NotCascadeRealizable,
    NotPassive,
    ParseError,
    ResolventSingular,
    ScatteringMismatch,
)
from .model import DEFAULT_TOL, build_state_space, is_passive
from .passive import passive_realize
from .realizability import decompose_cascade, is_cascade_realizable
from .verification import EQUIVALENCE_SAMPLES, EQUIVALENCE_TOL
from .verification import certify_equivalence, certify_realization, transfer_function

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_VERDICT = 2
EXIT_PRECONDITION = 3
EXIT_NUMERIC = 4


def _emit(obj) -> None:
    print(canonical_json(obj))


def _resolve_tol(args) -> float:
    """The tolerance of --tol.  A tolerance that is not a finite number at
    least 0 bounds nothing, so it is an input error."""
    if not (math.isfinite(args.tol) and args.tol >= 0.0):
        raise ValueError(f"--tol must be a finite number at least 0, got {args.tol!r}")
    return args.tol


def _resolve_seed(args) -> int:
    """The sampling seed of --seed, which the generator takes only at least 0."""
    if args.seed < 0:
        raise ValueError(f"--seed must be an integer at least 0, got {args.seed}")
    return args.seed


def _load_document(path) -> SystemDocument:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    return SystemDocument.loads(text)


def _emit_document(args, document: RealizationDocument) -> None:
    """Print dumps(), and write the same bytes to --out when it is given; an
    --out that cannot be written is an input error, and nothing is printed."""
    text = document.dumps() + "\n"
    if args.out is not None:
        try:
            Path(args.out).write_text(text)
        except OSError as exc:
            raise ValueError(f"cannot write {args.out}: {exc}") from exc
    print(text, end="")


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
    _emit_document(args, document)
    return EXIT_OK


def cmd_passive_realize(args) -> int:
    """Run the passive synthesis pipeline and certify every result."""
    tol = _resolve_tol(args)
    seed = _resolve_seed(args)
    doc = _load_document(args.path)
    system = doc.to_system()
    try:
        realization = passive_realize(system, tol)
    except NotCascadeRealizable as exc:
        # the rotated drift misses a tolerance near rounding: a verdict, not an input error
        _emit({"error": str(exc), "triangularity": asdict(exc.report)})
        return EXIT_VERDICT
    certificate = certify_realization(system, realization, tol, seed)
    document = RealizationDocument(
        input_digest=doc.digest(),
        stages=realization.chain.stages,
        v=realization.transform.v,
        reports=asdict(certificate),
    )
    _emit_document(args, document)
    return EXIT_VERDICT if certificate.failed else EXIT_OK


def _parse_points(text) -> list[complex]:
    points = []
    for token in filter(None, map(str.strip, text.split(","))):
        try:
            point = complex(token)
        except ValueError as exc:
            raise ParseError(f"cannot parse frequency {token!r}") from exc
        if not cmath.isfinite(point):
            raise ParseError(f"frequency {token!r} is not finite")
        points.append(point)
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
    tol = _resolve_tol(args)
    seed = _resolve_seed(args)
    g1 = _load_document(args.path_a).to_system()
    g2 = _load_document(args.path_b).to_system()
    report = certify_equivalence(g1, g2, n_samples=args.samples, tol=tol, seed=seed)
    _emit(asdict(report))
    return EXIT_OK if report.verdict else EXIT_VERDICT


class _Parser(argparse.ArgumentParser):
    # bad flags are input errors (exit 1); exit 2 is reserved for verdicts
    def error(self, message):
        self.print_usage(sys.stderr)
        _emit({"error": message})
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
    check.add_argument("--tol", type=float, default=DEFAULT_TOL, help="triangularity tolerance")
    check.set_defaults(func=cmd_check)

    decompose = sub.add_parser("decompose", help="split into one-mode stages")
    decompose.add_argument("path", help="system document (JSON)")
    decompose.add_argument("--tol", type=float, default=DEFAULT_TOL, help="structural tolerance")
    decompose.add_argument("--out", default=None, help="write the realization document here")
    decompose.set_defaults(func=cmd_decompose)

    realize = sub.add_parser(
        "passive-realize",
        help="construct and certify a cascade realization of a passive system",
    )
    realize.add_argument("path", help="system document (JSON)")
    realize.add_argument("--tol", type=float, default=DEFAULT_TOL, help="structural tolerance")
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
    verify.add_argument(
        "--tol", type=float, default=EQUIVALENCE_TOL, help="equivalence tolerance"
    )
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
    except (ValueError, MemoryError, CascadeSynthError) as exc:  # MemoryError: a huge --samples
        _emit({"error": str(exc), "kind": "input"})
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
