"""Pure-cascade realizability: the triangularity test and the stage split.

A system is realizable as a pure cascade of one-mode stages exactly when its
drift matrix A = 2 Theta (R + Im(K^dag K)) is lower 2x2-block triangular on
the (q1, p1, ..., qn, pn) ordering; the construction then reads the stages
straight off the column blocks of K and the diagonal blocks of R.
"""

from __future__ import annotations

from dataclasses import dataclass

from .composition import CascadeChain, one_mode_stages
from .errors import NotCascadeRealizable
from .model import DEFAULT_TOL, SlhSystem


@dataclass(frozen=True)
class TriangularityReport:
    """Outcome of the lower 2x2-block-triangularity test on the drift matrix.

    max_upper_residual is the max-norm over the 2x2 blocks strictly above the
    block diagonal; the verdict is relative, is_triangular iff
    max_upper_residual <= tolerance_used * scale with scale = |A|_max.  There
    is no unit floor, so the verdict means the same at every scale of the
    system; a zero drift is triangular.
    """

    is_triangular: bool
    max_upper_residual: float
    tolerance_used: float
    scale: float


def is_cascade_realizable(sys: SlhSystem, tol=DEFAULT_TOL) -> TriangularityReport:
    """Test whether the drift matrix is lower 2x2-block triangular.  The
    drift and its residual are computed once per system, so a second call
    on the same system, at any tolerance, only compares.  Raises ValueError
    for a system with no modes, which has no cascade to test."""
    if sys.n == 0:
        raise ValueError("a system with no modes has no cascade")
    _, residual, scale = sys._drift
    return TriangularityReport(
        is_triangular=residual <= tol * scale,
        max_upper_residual=residual,
        tolerance_used=tol,
        scale=scale,
    )


def decompose_cascade(sys: SlhSystem, tol=DEFAULT_TOL) -> CascadeChain:
    """Split a cascade-realizable system into its chain of one-mode stages.

    Stage 0 is (S, K_1, R_11); stage j > 0 is (I, K_{j+1}, R_{j+1,j+1}) with
    K_j the j-th m x 2 column block of K and R_jj the j-th diagonal 2x2 block
    of R.  Cascading the result reproduces (S, K, R).  Raises
    NotCascadeRealizable, with the failing report attached, when the drift
    matrix is not lower block triangular at the given tolerance, and
    ValueError, through is_cascade_realizable, for a system with no modes.
    The chain's checks compare the residuals the split measured over its
    stacks.
    """
    report = is_cascade_realizable(sys, tol)
    if not report.is_triangular:
        raise NotCascadeRealizable(report)
    return CascadeChain(stages=one_mode_stages(sys))
