"""Numerical certification of synthesis results.

Evaluates the doubled-up transfer function, certifies transfer-function
equivalence of two systems by randomized frequency sampling, and measures
how well a candidate transform preserves the symplectic form (equivalently,
the canonical commutation relations).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import OddDimension, ResolventSingular, ScatteringMismatch
from .model import (
    ComplexMatrix,
    DoubledStateSpace,
    SlhSystem,
    build_state_space,
    max_abs,
    symplectic_form,
)
from .passive import SymplecticTransform

RESOLVENT_MARGIN = 1e-8
SPECTRUM_REJECT = 1e-6


@dataclass(frozen=True, eq=False)
class TransferSample:
    """One evaluation of the doubled-up transfer function: the complex
    frequency s and the 2m x 2m value G(s)."""

    s: complex
    value: ComplexMatrix


@dataclass(frozen=True)
class EquivalenceReport:
    """Result of randomized transfer-function comparison.

    max_rel_mismatch is the worst per-sample mismatch, each normalized by
    max(1, |G(s)|_max); verdict iff max_rel_mismatch <= tolerance.  The seed
    makes the sample set, and hence the report, reproducible.
    """

    max_rel_mismatch: float
    samples_used: int
    verdict: bool
    tolerance: float
    seed: int


def _resolvent_value(ss: DoubledStateSpace, s: complex) -> ComplexMatrix:
    nn = ss.a.shape[0]
    if nn == 0:
        return ss.d.copy()
    return ss.c @ np.linalg.solve(s * np.eye(nn) - ss.a, ss.b) + ss.d


def transfer_function(ss: DoubledStateSpace, s: complex) -> TransferSample:
    """Evaluate G(s) = Cd (sI - A)^{-1} B + Dd at one complex frequency.

    The resolvent is computed by a pivoted linear solve, never an explicit
    inverse.  Frequencies within 1e-8 of the spectrum of A are rejected.
    """
    s = complex(s)
    if ss.a.shape[0]:
        gap = np.min(np.abs(np.linalg.eigvals(ss.a) - s))
        if gap <= RESOLVENT_MARGIN:
            raise ResolventSingular(
                f"s = {s} is within {gap:.3e} of the drift spectrum"
            )
    try:
        value = _resolvent_value(ss, s)
    except np.linalg.LinAlgError as exc:
        raise ResolventSingular(f"resolvent solve failed at s = {s}") from exc
    return TransferSample(s=s, value=value)


def certify_equivalence(
    g: SlhSystem, g2: SlhSystem, n_samples: int = 20, tol: float = 1e-8, seed: int = 0
) -> EquivalenceReport:
    """Certify that two systems share the same doubled-up transfer function.

    Draws s = sigma + i*omega with sigma uniform in [0.5, 2]*scale and omega
    uniform in [-2, 2]*scale, scale = max(1, |A1|_max, |A2|_max), rejecting
    points within 1e-6*scale of either spectrum.  The check is probabilistic:
    G has McMillan degree up to 2n, and agreement at the sampled points (and
    at infinity, through the D term) bounds the mismatch only at those
    points.  Raises ValueError when n_samples < 1, since no samples would
    certify anything.
    """
    if n_samples < 1:
        raise ValueError(f"n_samples must be at least 1, got {n_samples}")
    if g.n != g2.n or g.m != g2.m:
        raise ValueError(
            f"systems must share mode and field counts, got "
            f"(n={g.n}, m={g.m}) vs (n={g2.n}, m={g2.m})"
        )
    if max_abs(g.s - g2.s) > tol:
        raise ScatteringMismatch("scattering matrices differ beyond tolerance")
    ss1 = build_state_space(g)
    ss2 = build_state_space(g2)
    scale = max(1.0, max_abs(ss1.a), max_abs(ss2.a))
    spectrum = np.concatenate(
        [
            np.linalg.eigvals(ss1.a) if ss1.a.size else np.zeros(0, complex),
            np.linalg.eigvals(ss2.a) if ss2.a.size else np.zeros(0, complex),
        ]
    )
    rng = np.random.default_rng(seed)
    worst = 0.0
    accepted = 0
    attempts = 0
    while accepted < n_samples:
        attempts += 1
        if attempts > 1000 * n_samples:
            raise RuntimeError("frequency sampling stalled near the spectra")
        s = complex(rng.uniform(0.5, 2.0), rng.uniform(-2.0, 2.0)) * scale
        if spectrum.size and np.min(np.abs(spectrum - s)) < SPECTRUM_REJECT * scale:
            continue
        v1 = _resolvent_value(ss1, s)
        v2 = _resolvent_value(ss2, s)
        worst = max(worst, max_abs(v1 - v2) / max(1.0, max_abs(v1)))
        accepted += 1
    return EquivalenceReport(
        max_rel_mismatch=worst,
        samples_used=accepted,
        verdict=worst <= tol,
        tolerance=tol,
        seed=seed,
    )


def certify_symplectic(v, tol: float = 1e-9) -> bool:
    """True when the real matrix V preserves the symplectic form within
    tolerance: its ccr_preservation residual |V Theta V^T - Theta|_max is at
    most tol.  A non-finite V is an input error (ValueError)."""
    if np.iscomplexobj(np.asarray(v)):
        raise ValueError("V must be real")
    v = np.asarray(v, dtype=float)
    if v.ndim != 2 or v.shape[0] != v.shape[1]:
        raise ValueError(f"V must be square, got {v.shape}")
    if v.shape[0] % 2:
        raise OddDimension(f"V must have even dimension, got {v.shape[0]}")
    return ccr_preservation(SymplecticTransform(v=v)) <= tol


def ccr_preservation(transform: SymplecticTransform) -> float:
    """Residual |V Theta V^T - Theta|_max of the transform x' = V x: zero
    exactly when the canonical commutation relations are preserved."""
    v = transform.v
    th = symplectic_form(v.shape[0] // 2)
    return max_abs(v @ th @ v.T - th)
