"""Numerical certification of synthesis results.

Evaluates the doubled-up transfer function, certifies transfer-function
equivalence of two systems by randomized frequency sampling, measures how
well a candidate transform preserves the symplectic form (equivalently, the
canonical commutation relations), and certifies a passive realization, down
to the chain of one-mode stages it emits, in one call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .composition import cascade
from .errors import ResolventSingular, ScatteringMismatch
from .model import (
    DEFAULT_TOL,
    DoubledStateSpace,
    SlhSystem,
    build_state_space,
    is_passive,
    max_abs,
    stack_max,
)
from .passive import PassiveRealization, SymplecticTransform
from .realizability import TriangularityReport, is_cascade_realizable

EQUIVALENCE_SAMPLES = 20
EQUIVALENCE_TOL = 1e-8
RESOLVENT_MARGIN = 1e-8
SPECTRUM_REJECT = 1e-6
STACK_ENTRIES = 2**16


@dataclass(frozen=True)
class EquivalenceReport:
    """Result of randomized transfer-function comparison.

    max_rel_mismatch is the worst per-sample mismatch of the doubled-up
    transfer functions, and verdict iff max_rel_mismatch <= tolerance.  It
    is the measured |G1 - G2|_max / max(1, |G1|_max), except on the passive
    route when the bound, max over s and conj(s) of
    |F1 - F2|_F + |S1 - S2|_F, is at most the tolerance: it is then that
    bound, at least the mismatch of the reduced forms' G (see
    certify_equivalence), so the verdict is true either way.  The seed
    makes the sample set, and hence the report, reproducible.  vacuous is
    true when the systems have no fields (m = 0): their transfer functions
    are then 0 x 0, so the verdict holds for any two systems with the same
    mode count and says nothing about them.
    """

    max_rel_mismatch: float
    samples_used: int
    verdict: bool
    tolerance: float
    seed: int
    vacuous: bool


def _evaluate(a, b, c, d, points) -> np.ndarray:
    """Return the (..., k, p, q) stack of c (sI - a)^{-1} b + d at the k
    points, for state spaces a (..., nn, nn), b, c and d stacked along the
    same leading axes (none for a single system).

    Each resolvent is a pivoted LU solve on a stack of sI - a, never an
    explicit inverse; a stack holds at most STACK_ENTRIES matrix entries,
    counted over the leading axes too, so that memory stays flat at large
    n.  c multiplies the solutions of one system at all points of a stack
    in one product, with the solutions side by side, not in one small
    product per point.  b is given as many dimensions as the stack of
    sI - a, which NumPy before 2.0 needs to read it as matrices and not as a
    stack of vectors.  Raises LinAlgError when some sI - a is exactly
    singular.
    """
    values = np.repeat(d[..., None, :, :], len(points), axis=-3)
    lead, (p, nn), q = a.shape[:-2], c.shape[-2:], d.shape[-1]
    if nn == 0 or values.size == 0:
        return values
    eye = np.eye(nn)
    step = max(1, STACK_ENTRIES // (math.prod(lead) * nn * nn))
    a, b = a[..., None, :, :], b[..., None, :, :]
    for lo in range(0, len(points), step):
        s = points[lo : lo + step, None, None]
        x = np.linalg.solve(s * eye - a, b)
        k = x.shape[-3]
        side_by_side = np.swapaxes(x, -3, -2).reshape(lead + (nn, k * q))
        product = (c @ side_by_side).reshape(lead + (p, k, q))
        values[..., lo : lo + k, :, :] += np.swapaxes(product, -3, -2)
    return values


def transfer_function(ss: DoubledStateSpace, points) -> np.ndarray:
    """Evaluate G(s) = Cd (sI - A)^{-1} B + Dd at a 1-d sequence of k complex
    frequencies and return the (k, 2m, 2m) stack of values.

    ss is the record (A, B, Cd, Dd) that build_state_space returns, read as
    it is: its arrays were made from a checked system and are not checked
    again.  A point that is not finite is a ValueError.  The resolvents are
    pivoted linear solves, never explicit inverses.  The spectrum of A is
    computed once; frequencies within 1e-8 |A|_max of it are rejected, the
    first such point naming the error.  The margin is relative, so a point
    is refused or evaluated alike at every scale of the system; with a zero
    drift only the spectrum itself is refused.
    """
    points = np.asarray(points, dtype=complex)
    if points.ndim != 1:
        raise ValueError(f"points must be a 1-d sequence, got shape {points.shape}")
    if not np.isfinite(points).all():
        raise ValueError("points must be finite")
    gaps = np.abs(points[:, None] - np.linalg.eigvals(ss.a)).min(axis=1, initial=np.inf)
    near = np.flatnonzero(gaps <= RESOLVENT_MARGIN * max_abs(ss.a))
    if near.size:
        s, gap = complex(points[near[0]]), gaps[near[0]]
        raise ResolventSingular(f"s = {s} is within {gap:.3e} of the drift spectrum")
    try:
        return _evaluate(*ss, points)
    except np.linalg.LinAlgError as exc:
        raise ResolventSingular("resolvent solve failed at one of the given points") from exc


def _lossless_coupling(systems, points) -> np.ndarray:
    """Return the (len(systems), k, m, m) stack of the lossless coupling
    function F(s) = k_tilde (sI + (i/2) r_tilde)^{-1} k_tilde^dag at the k
    points, as F(s) = B diag(1 / (s + i lambda_j / 2)) B^dag with
    B = k_tilde W and r_tilde = W diag(lambda) W^dag: one stacked Hermitian
    eigendecomposition for all systems, then per point an O(n m^2) product
    and no solve.  The outer products of the columns of B are formed once
    per system, so F at all points is one (k, n) @ (n, m^2) product.  The
    annihilation block of the transfer function is its Cayley transform,
    G_-(s) = (2I - F(s)) (2I + F(s))^{-1} S."""
    k_tilde = np.array([x._reduction.k_tilde for x in systems])
    r_tilde = np.array([x._reduction.r_tilde for x in systems])
    lam, w = np.linalg.eigh(r_tilde)
    b = np.swapaxes(k_tilde @ w, 1, 2)
    count, n, m = b.shape
    outer = (b[..., :, None] * b[..., None, :].conj()).reshape(count, n, m * m)
    f = (1.0 / (points[:, None] + 0.5j * lam[:, None, :])) @ outer
    return f.reshape(count, len(points), m, m)


def _in_annihilation_variables(sys: SlhSystem, eps) -> bool:
    """True when the reduction to annihilation variables drops at most eps
    of |K|_max and |R|_max, and R is symmetric to eps of |R|_max: relative
    bounds with no floor."""
    k_defect, r_defect, k_max, r_max = sys._dropped
    return k_defect <= eps * k_max and r_defect <= eps * r_max and sys._defects[1] <= eps * r_max


def _draw(rng, count, scale) -> np.ndarray:
    """Draw count points s = (sigma + i omega) * scale, sigma uniform in
    [0.5, 2] and omega uniform in [-2, 2], taking sigma and omega from the
    generator in turn."""
    u = rng.random((count, 2)) * (1.5, 4.0) + (0.5, -2.0)
    return u.view(complex)[:, 0] * scale


def _accepted_points(rng, n_samples, scale, spectrum) -> np.ndarray:
    """The first n_samples drawn points that lie at least 1e-6*scale from
    every eigenvalue in spectrum."""
    accepted = np.zeros(0, dtype=complex)
    attempts = 0
    while accepted.size < n_samples:
        count = n_samples - accepted.size
        attempts += count
        if attempts > 1000 * n_samples:
            raise RuntimeError("frequency sampling stalled near the spectra")
        points = _draw(rng, count, scale)
        gap = np.abs(spectrum[None, :] - points[:, None]).min(axis=1, initial=np.inf)
        accepted = np.concatenate([accepted, points[gap >= SPECTRUM_REJECT * scale]])
    return accepted


def _worst_mismatch(v1, v2, n_samples) -> float:
    """The largest per-sample |G1 - G2|_max / max(1, |G1|_max) over the
    stacks of values v1 and v2, which hold n_samples values per block: a
    passive sample i is G_-(s_i) and G_-(conj s_i)^#, whose conjugate moves
    no max-norm."""
    mismatch = stack_max(v1 - v2).reshape(-1, n_samples).max(axis=0)
    size = stack_max(v1).reshape(-1, n_samples).max(axis=0)
    return float((mismatch / np.maximum(1.0, size)).max())


def certify_equivalence(
    g: SlhSystem, g2: SlhSystem, n_samples=EQUIVALENCE_SAMPLES, tol=EQUIVALENCE_TOL, seed=0
) -> EquivalenceReport:
    """Certify that two systems share the same doubled-up transfer function.

    Draws s = sigma + i*omega with sigma uniform in [0.5, 2]*scale and omega
    uniform in [-2, 2]*scale, where scale = max(|A1|_max, |A2|_max), or 1
    when both drifts are zero; |A|_max = 2 |R + Im(K^dag K)|_max, as Theta is
    a signed permutation.  There is no unit floor on the scale, so samples
    sit among the poles at every scale of the systems, which were checked
    when they were made.  Both systems of the pair are compared at all
    samples at once, by one of two routes:

    - Passive pair: when both systems drop at most eps = tol/100 of |K|_max
      and |R|_max, relative and with no floor, on reduction to annihilation
      variables, and R is symmetric to the same eps,
      G(s) = diag(G_-(s), G_-(conj s)^#) with G_-(s) = C(s) S, the Cayley
      transform C = (2I - F)(2I + F)^{-1} of the lossless coupling
      F(s) = k_tilde (sI + (i/2) r_tilde)^{-1} k_tilde^dag (see
      _lossless_coupling): one Hermitian eigendecomposition per system,
      and no solve for a pair that agrees.  Every sample has
      Re s >= scale/2 > 0, so F + F^dag is positive semidefinite,
      |(2I + F)^{-1}|_2 <= 1/2 and |C|_2 <= 1 at every scale, and no sample
      can sit near a pole.  Then
      C1 - C2 = 4 (2I + F1)^{-1} (F2 - F1) (2I + F2)^{-1}, so
      |G1 - G2|_2 <= |F1 - F2|_2 |S1|_2 + |C2|_2 |S1 - S2|_2
      <= |F1 - F2|_F + |S1 - S2|_F, up to the unitarity residual of S1.
      When that bound, the larger at s and conj(s), is at most tol, it is
      the mismatch reported and no solve is made: it covers G of the
      reduced forms, and the parts the reduction drops are what this
      route's eps condition limits.  Otherwise the bound proves nothing,
      as it can exceed |G1 - G2|_max many times over, and the mismatch is
      measured from the same F: G_- = 4 (2I + F)^{-1} S - S, one stacked
      m x m solve, and |G1 - G2|_max / max(1, |G1|_max) as below.  The
      eigendecomposition reads only the lower triangle of r_tilde.  That
      drops nothing when R is exactly symmetric, as the strided reduction
      then gives an exactly Hermitian r_tilde, and otherwise only the
      asymmetry of R, which this route's condition bounds by eps |R|_max.
    - Any other pair: G(s) = Cd (sI - A)^{-1} B + Dd on the 2n x 2n
      quadrature state space, one stacked solve over the pair, and samples
      within 1e-6*scale of either drift spectrum are rejected and redrawn.
      The mismatch reported is measured, |G1 - G2|_max / max(1, |G1|_max).

    The check is probabilistic: G has McMillan degree up to 2n, and
    agreement at the sampled points (and at infinity, through the D term)
    bounds the mismatch only at those points.  Raises ValueError when
    n_samples < 1, since no samples would certify anything, and when tol is
    not a finite number at least 0, since it would then bound nothing.
    """
    if n_samples < 1:
        raise ValueError(f"n_samples must be at least 1, got {n_samples}")
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ValueError(f"tol must be a finite number at least 0, got {tol!r}")
    if g.n != g2.n or g.m != g2.m:
        raise ValueError(
            f"systems must share mode and field counts, got "
            f"(n={g.n}, m={g.m}) vs (n={g2.n}, m={g2.m})"
        )
    if max_abs(g.s - g2.s) > tol:
        raise ScatteringMismatch("scattering matrices differ beyond tolerance")
    systems = (g, g2)
    scale = max(x._drift[1] for x in systems) or 1.0
    rng = np.random.default_rng(seed)
    eps = tol / 100.0
    if all(_in_annihilation_variables(x, eps) for x in systems):
        points = _draw(rng, n_samples, scale)
        f = _lossless_coupling(systems, np.concatenate([points, points.conj()]))
        worst = float(np.linalg.norm(f[0] - f[1], axis=(-2, -1)).max() + np.linalg.norm(g.s - g2.s))
        if worst > tol:
            # the bound proves nothing here: measure G_- = 4 (2I + F)^{-1} S - S
            s = np.array([x.s for x in systems])[:, None]
            v1, v2 = 4.0 * np.linalg.solve(f + 2.0 * np.eye(g.m), s) - s
            worst = _worst_mismatch(v1, v2, n_samples)
    else:
        pair = list(map(build_state_space, systems))
        spectrum = np.concatenate([np.linalg.eigvals(ss.a) for ss in pair])
        points = _accepted_points(rng, n_samples, scale, spectrum)
        v1, v2 = _evaluate(*(np.array(mats) for mats in zip(*pair)), points)
        worst = _worst_mismatch(v1, v2, n_samples)
    return EquivalenceReport(
        max_rel_mismatch=worst,
        samples_used=n_samples,
        verdict=worst <= tol,
        tolerance=tol,
        seed=seed,
        vacuous=g.m == 0,
    )


def certify_symplectic(v, tol: float = DEFAULT_TOL) -> bool:
    """True when the real matrix V preserves the symplectic form within
    tolerance: its ccr_preservation residual |V Theta V^T - Theta|_max is at
    most tol.  V is checked as SymplecticTransform checks it, so a V that is
    complex, not finite, not square or of odd dimension raises ValueError."""
    return ccr_preservation(SymplecticTransform(v=v)) <= tol


def ccr_preservation(transform: SymplecticTransform) -> float:
    """Residual |V Theta V^T - Theta|_max of the transform x' = V x: zero
    exactly when the canonical commutation relations are preserved.

    With V_q = V[:, 0::2] and V_p = V[:, 1::2], the columns of the q and p
    of each mode, V Theta V^T = V_q V_p^T - V_p V_q^T = P - P^T for the one
    half-size product P = V_q V_p^T.  Theta is then subtracted on its two
    strided diagonals, +1 at (2j, 2j+1) and -1 at (2j+1, 2j)."""
    v = transform.v
    p = v[:, 0::2] @ v[:, 1::2].T
    d = p - p.T
    flat = d.reshape(-1)
    size = d.shape[0]
    flat[1 :: 2 * size + 2] -= 1.0
    flat[size :: 2 * size + 2] += 1.0
    return max_abs(d)


@dataclass(frozen=True)
class RealizationCertificate:
    """The checks that certify a passive realization, one field each (see
    certify_realization); asdict of it is the reports object of a
    passive-realize document."""

    triangularity: TriangularityReport
    symplectic_residual: float
    equivalence: EquivalenceReport
    stages_passive: bool
    chain_residual: float

    @property
    def failed(self) -> tuple[str, ...]:
        """The names of the checks that fail, in field order.  Both residuals
        are bounded by the structural tolerance triangularity.tolerance_used,
        each tested as residual <= tol, so a NaN residual fails."""
        tol = self.triangularity.tolerance_used
        passed = (
            self.triangularity.is_triangular,
            self.symplectic_residual <= tol,
            self.equivalence.verdict,
            self.stages_passive,
            self.chain_residual <= tol,
        )
        return tuple(f.name for f, ok in zip(fields(self), passed) if not ok)


def certify_realization(
    system: SlhSystem, realization: PassiveRealization, tol=DEFAULT_TOL, seed: int = 0
) -> RealizationCertificate:
    """Certify what passive_realize(system, tol) returned, each check once,
    in this order: the transformed system's drift is lower block triangular
    at tol; the ccr_preservation residual of V; the transformed system's
    equivalence to system, by certify_equivalence at its defaults,
    EQUIVALENCE_SAMPLES samples and tolerance EQUIVALENCE_TOL, and the given
    seed; every stage of the chain is passive at tol; and chain_residual,
    the largest entrywise mismatch of S, K and R between the cascade of the
    chain and the transformed system, each relative to the transformed
    system's max-norm (absolute where that is zero), since the stages are
    what a realization document carries.
    """
    target, chain = realization.system, realization.chain
    triangularity = is_cascade_realizable(target, tol)
    symplectic_residual = ccr_preservation(realization.transform)
    equivalence = certify_equivalence(system, target, seed=seed)
    stages_passive = all(is_passive(stage, tol) for stage in chain.stages)
    collapsed = cascade(chain)
    chain_residual = max(
        max_abs(x - y) / (max_abs(y) or 1.0)
        for x, y in ((collapsed.s, target.s), (collapsed.k, target.k), (collapsed.r, target.r))
    )
    return RealizationCertificate(
        triangularity, symplectic_residual, equivalence, stages_passive, chain_residual
    )
