"""Domain types and state-space construction for linear quantum stochastic systems.

A system is the triple (S, K, R): a unitary scattering matrix S, a linear
coupling K of the canonical variables to the fields, and a real symmetric
Hamiltonian matrix R with H = (1/2) x^T R x.  Canonical variables are ordered
x = (q1, p1, ..., qn, pn), so each mode owns one consecutive 2x2 block and all
block indexing below is 2x2 on that ordering.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.typing import NDArray

from .errors import (
    NonHermitianRtilde,
    NonSymmetricR,
    NonUnitaryScattering,
    NotPassive,
)

ComplexMatrix = NDArray[np.complexfloating]
RealMatrix = NDArray[np.floating]

DEFAULT_TOL = 1e-9

_FLIP = np.array([1.0, -1.0])


def max_abs(a) -> float:
    """Max-norm of a matrix (0 for empty arrays)."""
    return float(np.maximum.reduce(np.abs(a), axis=None, initial=0.0))


def stack_max(a) -> np.ndarray:
    """Max-norm of each matrix in a (k, p, q) stack (0 for empty matrices)."""
    return np.maximum.reduce(np.abs(a), axis=(-2, -1), initial=0.0)


def dropped_parts(k, r):
    """For stacks k (..., m, 2n) and r (..., 2n, 2n) of couplings and
    Hamiltonians, return the arrays (k_defect, r_defect, |K|_max, |R|_max)
    over the stack: the max-norms of what the reduction to annihilation
    variables drops, K - k_tilde Sigma, which is
    |K Sigma^T|_max = |K[:, 0::2] + i K[:, 1::2]|_max / 2, and
    R - Re(Sigma^dag r_tilde Sigma), which is
    max(|R_qq - R_pp|, |R_qp + R_pq|) / 2, next to the norms they are
    measured against."""
    n = r.shape[-1] // 2
    # row q of each 2x2 block of R is (R_qq, R_qp), row p reversed is
    # (R_pp, R_pq), so one difference holds R_qq - R_pp and R_qp + R_pq
    blocks = r.reshape(r.shape[:-2] + (n, 2, n, 2))
    r_dropped = blocks[..., 0, :, :] - blocks[..., 1, :, ::-1] * _FLIP
    return (
        stack_max(k[..., 0::2] + 1j * k[..., 1::2]) / 2.0,
        np.maximum.reduce(np.abs(r_dropped), axis=(-3, -2, -1), initial=0.0) / 2.0,
        stack_max(k),
        stack_max(r),
    )


def is_hermitian(a, tol) -> bool:
    """True when |a - a^dag|_max <= tol * |a|_max: a bound relative to the
    matrix with no unit floor, so rounding passes at every scale and the
    zero matrix is Hermitian."""
    return max_abs(a - a.conj().T) <= tol * max_abs(a)


def block_diag(a, b):
    """The block-diagonal matrix diag(a, b) of two 2-d arrays."""
    out = np.zeros(np.add(a.shape, b.shape), dtype=np.result_type(a, b))
    out[: a.shape[0], : a.shape[1]] = a
    out[a.shape[0] :, a.shape[1] :] = b
    return out


def pair_blocks(a):
    """Return the (n, n, 2, 2) block view of a 2n x 2n matrix: entry [j, k]
    is the 2x2 block coupling mode j to mode k on the (q1, p1, ..., qn, pn)
    ordering.  The view shares memory with a C-contiguous a, so writes
    through it reach the matrix."""
    n = a.shape[0] // 2
    return a.reshape(n, 2, n, 2).swapaxes(1, 2)


def realify(z) -> RealMatrix:
    """Return the real 2n x 2n matrix whose 2x2 block (j, k) is
    [[Re z_jk, -Im z_jk], [Im z_jk, Re z_jk]] for an n x n complex z.

    This is 4 Re(Sigma^dag z Sigma) with Sigma the map a = Sigma x from
    quadratures to annihilation variables: the matrix that acts on x as z
    acts on a.  -Im is written 0.0 - Im so that a zero imaginary part of
    either sign gives +0.0 there.
    """
    n = z.shape[0]
    out = np.empty((n, 2, n, 2))
    out[:, 0, :, 0] = out[:, 1, :, 1] = z.real
    out[:, 0, :, 1] = 0.0 - z.imag
    out[:, 1, :, 0] = z.imag
    return out.reshape(2 * n, 2 * n)


def theta_times(x):
    """Return Theta @ x for the symplectic form Theta = diag(J, ..., J),
    J = [[0, 1], [-1, 0]]: each row pair (q_j, p_j) of x becomes
    (p_j, -q_j)."""
    out = np.empty_like(x)
    out[0::2] = x[1::2]
    out[1::2] = -x[0::2]
    return out


def _finite(scale, name) -> float:
    """scale, or OverflowError when it is not finite: any finite residual
    passes at an infinite scale, so no verdict is judged there."""
    if not math.isfinite(scale):
        raise OverflowError(f"{name} is not finite; no verdict is judged at this scale")
    return scale


def _sigma(r_max, k_max) -> float:
    """The scale sigma = |R|_max + |K|_max^2 of is_passive, when finite; the
    float power raises on its own from |K|_max = 2**512 on."""
    square = k_max**2 if k_max < 2.0**512 else math.inf
    return _finite(r_max + square, "the passivity scale |R|_max + |K|_max^2")


def _readonly(a):
    a.setflags(write=False)
    return a


def _as_matrix(value, dtype, name):
    """A read-only copy of value as a 2-d array of dtype with finite
    entries.  The copy is made once, here, so no one else can write to it."""
    a = _readonly(np.array(value, dtype=dtype))
    if a.ndim != 2:
        raise ValueError(f"{name} must be a 2-d matrix, got ndim={a.ndim}")
    if not np.isfinite(a).all():
        raise ValueError(f"{name} contains non-finite entries")
    return a


def _as_complex(value, name):
    return _as_matrix(value, complex, name)


def _as_real(value, name):
    if np.iscomplexobj(value):
        raise ValueError(f"{name} must be real")
    return _as_matrix(value, float, name)


@dataclass(frozen=True, eq=False)
class SlhSystem:
    """Linear quantum stochastic system (S, K, R).

    Parameters
    ----------
    s : (m, m) complex ndarray
        Unitary scattering matrix.
    k : (m, 2n) complex ndarray
        Coupling of the canonical variables x = (q1, p1, ..., qn, pn) to the
        m fields, L = K x.
    r : (2n, 2n) real ndarray
        Symmetric Hamiltonian matrix, H = (1/2) x^T R x.

    Construction checks shapes and finiteness only; the unitarity and
    symmetry tolerances are enforced by :meth:`validate`, which the
    state-space builder and CascadeChain call.  Each array is copied once on
    construction and locked, so the structural quantities that need no
    tolerance (the validation residuals, the drift and its triangularity
    residual, the reduction to annihilation variables and what it drops) are
    computed once per system, on first use, and every check compares them
    against its own tolerance; a drift or passivity scale that is not finite
    raises OverflowError.  Systems the pipeline builds from checked values
    skip the constructor: the stages of split_systems are read-only views
    into the split's own locked stacks, and the transformed system of
    passive_realize holds the arrays it computed, locked.
    """

    s: ComplexMatrix
    k: ComplexMatrix
    r: RealMatrix

    def __post_init__(self):
        s = _as_complex(self.s, "S")
        k = _as_complex(self.k, "K")
        r = _as_real(self.r, "R")
        m = s.shape[0]
        if s.shape != (m, m):
            raise ValueError(f"S must be square, got {s.shape}")
        if r.shape[0] != r.shape[1] or r.shape[0] % 2:
            raise ValueError(f"R must be square with even dimension, got {r.shape}")
        if k.shape != (m, r.shape[0]):
            raise ValueError(
                f"K must be {m} x {r.shape[0]} to match S and R, got {k.shape}"
            )
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "r", r)

    @property
    def n(self) -> int:
        """Number of modes."""
        return self.r.shape[0] // 2

    @property
    def m(self) -> int:
        """Number of input/output fields."""
        return self.s.shape[0]

    @cached_property
    def _defects(self) -> tuple[float, float]:
        """(|S^dag S - I|_max, |R - R^T|_max), the residuals validate bounds."""
        s, r = self.s, self.r
        return max_abs(s.conj().T @ s - np.eye(self.m)), max_abs(r - r.T)

    @cached_property
    def _drift(self) -> tuple[RealMatrix, float, float]:
        """(A, the max-norm of its 2x2 blocks strictly above the block
        diagonal, |A|_max) for the drift A of drift_matrix (see _finite)."""
        with np.errstate(over="ignore", invalid="ignore"):
            a = _readonly(drift_matrix(self))
        scale = _finite(max_abs(a), "|A|_max of the drift")
        return a, max_abs(pair_blocks(a)[~np.tri(self.n, dtype=bool)]), scale

    @cached_property
    def _reduction(self) -> tuple[ComplexMatrix, ComplexMatrix]:
        """(k_tilde, r_tilde), the reduction of (K, R) to annihilation
        variables by slicing: k_tilde = 2 K Sigma^dag = K[:, 0::2] -
        i K[:, 1::2], and r_tilde = 8 Sigma R Sigma^dag is
        2 (R_qq + R_pp) + 2i (R_pq - R_qp) on the four strided quarters of R
        (R_qp = R[0::2, 1::2], and so on)."""
        k, r = self.k, self.r
        qq, qp, pq, pp = r[0::2, 0::2], r[0::2, 1::2], r[1::2, 0::2], r[1::2, 1::2]
        return (
            _readonly(k[:, 0::2] - 1j * k[:, 1::2]),
            _readonly(2.0 * (qq + pp) + 2j * (pq - qp)),
        )

    @cached_property
    def _dropped(self) -> tuple[float, float, float, float]:
        """(k_defect, r_defect, |K|_max, |R|_max) of dropped_parts."""
        return tuple(float(x[0]) for x in dropped_parts(self.k[None], self.r[None]))

    @cached_property
    def _passivity(self) -> tuple[float, float, float]:
        """(k_defect, r_defect, sigma), what is_passive compares: the dropped
        parts and the scale sigma they are judged at (see _sigma).
        split_systems sets it for the stages of a larger system."""
        k_defect, r_defect, k_max, r_max = self._dropped
        return k_defect, r_defect, _sigma(r_max, k_max)

    def validate(self, tol_unitary=DEFAULT_TOL, tol_sym=DEFAULT_TOL) -> "SlhSystem":
        """Check unitarity of S, |S^dag S - I|_max <= tol_unitary, and symmetry
        of R, |R - R^T|_max <= tol_sym * |R|_max, raising on failure.  The
        symmetry bound has no unit floor, so rounding passes at every scale
        of R and the zero matrix is symmetric."""
        unitarity, asymmetry = self._defects
        if unitarity > tol_unitary:
            raise NonUnitaryScattering(
                f"S fails unitarity at tolerance {tol_unitary:.1e}"
            )
        r_max = self._dropped[3]
        if asymmetry > tol_sym * r_max:
            raise NonSymmetricR(f"R fails symmetry at relative tolerance {tol_sym:.1e}")
        return self


def _unchecked(cls, **fields):
    """An instance of the frozen dataclass cls that holds fields as they are,
    without __post_init__: for arrays the pipeline made itself, from inputs
    it had checked, and locked.  Fields may include cached properties."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


def _stages(s, k, r) -> tuple[SlhSystem, ...]:
    """The one-mode systems (s[j], k[j], r[j]) of the stacks s (count, m, m)
    and k (count, m, 2) of complex and r (count, 2, 2) of real entries, which
    the caller made from checked values and holds alone.  The stacks are
    locked here, and each stage's arrays are read-only views into them."""
    s, k, r = _readonly(s), _readonly(k), _readonly(r)
    return tuple(_unchecked(SlhSystem, s=s[j], k=k[j], r=r[j]) for j in range(len(r)))


def split_systems(sys: SlhSystem, k, r) -> tuple[SlhSystem, ...]:
    """The one-mode systems (S, k[0], r[0]), (I, k[1], r[1]), ... split from
    sys, for stacks k (n, m, 2) and r (n, 2, 2) of views of the arrays of
    sys.  The scatterings and the stacks are copied once, into private
    arrays, and the stages are read-only views into them (see _stages); the
    arrays of sys are finite, so nothing is checked again.

    The structural quantities of the stages are measured in one pass over
    the stacks: what each drops on reduction to annihilation variables, with
    its |K|_max and |R|_max, and its asymmetry |R - R^T|_max.  Stage 0's
    unitarity residual is that of S, and the identity's is exactly 0.  Each
    stage is judged passive at the scale sigma of sys.  What a stage drops is
    part of what sys drops, so every stage of a passive system is passive, a
    stage that is zero up to the rounding of sys included; judged at its own
    scale, such a stage would fail.
    """
    n, m = len(r), sys.m
    s = np.empty((n, m, m), dtype=complex)
    s[:] = np.eye(m)
    s[:1] = sys.s
    k, r = np.array(k), np.array(r)
    stages = _stages(s, k, r)
    sigma = _sigma(max_abs(sys.r), max_abs(sys.k))
    unitarity = [sys._defects[0]] + [0.0] * (n - 1)
    asymmetry = stack_max(r - r.swapaxes(1, 2)).tolist()
    dropped = zip(*(x.tolist() for x in dropped_parts(k, r)))
    for stage, u, a, d in zip(stages, unitarity, asymmetry, dropped):
        stage.__dict__.update(_defects=(u, a), _dropped=d, _passivity=(d[0], d[1], sigma))
    return stages


@dataclass(frozen=True, eq=False)
class DoubledStateSpace:
    """State-space matrices of the doubled-up input-output dynamics.

    a is the real drift matrix of the canonical variables, b the complex
    input matrix for the doubled field vector (fields stacked over their
    conjugates), c stacks K over K^#, and d is diag(S, S^#).  The transfer
    function is G(s) = c (sI - a)^{-1} b + d.
    """

    a: RealMatrix
    b: ComplexMatrix
    c: ComplexMatrix
    d: ComplexMatrix

    def __post_init__(self):
        a = _as_real(self.a, "A")
        b = _as_complex(self.b, "B")
        c = _as_complex(self.c, "Cd")
        d = _as_complex(self.d, "Dd")
        nn = a.shape[0]
        if a.shape != (nn, nn) or nn % 2:
            raise ValueError(f"A must be square with even dimension, got {a.shape}")
        mm = d.shape[0]
        if d.shape != (mm, mm) or mm % 2:
            raise ValueError(f"Dd must be square with even dimension, got {d.shape}")
        if b.shape != (nn, mm):
            raise ValueError(f"B must be {nn} x {mm}, got {b.shape}")
        if c.shape != (mm, nn):
            raise ValueError(f"Cd must be {mm} x {nn}, got {c.shape}")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "d", d)

    @property
    def n(self) -> int:
        return self.a.shape[0] // 2

    @property
    def m(self) -> int:
        return self.d.shape[0] // 2


@dataclass(frozen=True, eq=False)
class PassiveForm:
    """Annihilation-variable parametrization of a passive system.

    r_tilde is the Hermitian n x n Hamiltonian matrix and k_tilde the complex
    m x n coupling, H = (1/2) a^dag r_tilde a + offset and L = k_tilde a.
    """

    r_tilde: ComplexMatrix
    k_tilde: ComplexMatrix

    def __post_init__(self):
        r_tilde = _as_complex(self.r_tilde, "R_tilde")
        k_tilde = _as_complex(self.k_tilde, "K_tilde")
        n = r_tilde.shape[0]
        if r_tilde.shape != (n, n):
            raise ValueError(f"R_tilde must be square, got {r_tilde.shape}")
        if k_tilde.shape[1] != n:
            raise ValueError(
                f"K_tilde must have {n} columns to match R_tilde, got {k_tilde.shape}"
            )
        object.__setattr__(self, "r_tilde", r_tilde)
        object.__setattr__(self, "k_tilde", k_tilde)

    @property
    def offset(self) -> float:
        """The real scalar trace(r_tilde)/4 that makes H equal, not merely
        equivalent, to the quadrature Hamiltonian (1/2) x^T R x."""
        return float(self.r_tilde.trace().real) / 4

    @property
    def n(self) -> int:
        return self.r_tilde.shape[0]

    @property
    def m(self) -> int:
        return self.k_tilde.shape[0]

    def validate(self, tol_sym=DEFAULT_TOL) -> "PassiveForm":
        """Check Hermiticity of r_tilde relative to its scale,
        |r_tilde - r_tilde^dag|_max <= tol_sym * |r_tilde|_max, raising on
        failure."""
        if not is_hermitian(self.r_tilde, tol_sym):
            raise NonHermitianRtilde(
                f"R_tilde fails Hermiticity at relative tolerance {tol_sym:.1e}"
            )
        return self


def drift_matrix(sys: SlhSystem) -> RealMatrix:
    """Return the drift matrix A = 2 Theta (R + Im(K^dag K)) of the canonical
    variables; lower 2x2-block triangularity of A is the exact criterion for
    pure-cascade realizability."""
    return 2.0 * theta_times(sys.r + np.imag(sys.k.conj().T @ sys.k))


def build_state_space(
    sys: SlhSystem, tol_unitary=DEFAULT_TOL, tol_sym=DEFAULT_TOL
) -> DoubledStateSpace:
    """Assemble the doubled-up state-space matrices of a system.

    A = 2 Theta (R + Im(K^dag K)),  B = 2i Theta [-K^dag S   K^T S^#],
    Cd = [K; K^#],  Dd = diag(S, S^#).  A is real by construction since
    Im(.) is taken entrywise; B satisfies B^# = B P where P swaps its two
    column halves, mirroring the conjugate structure of the doubled fields.
    """
    sys.validate(tol_unitary, tol_sym)
    a = sys._drift[0]
    b = 2j * theta_times(np.hstack([-sys.k.conj().T @ sys.s, sys.k.T @ sys.s.conj()]))
    c = np.vstack([sys.k, sys.k.conj()])
    d = block_diag(sys.s, sys.s.conj())
    return DoubledStateSpace(a=a, b=b, c=c, d=d)


def is_passive(sys: SlhSystem, tol=DEFAULT_TOL) -> bool:
    """Test whether (S, K, R) is expressible in annihilation variables alone.

    With sigma = |R|_max + |K|_max^2, true iff the coupling annihilates
    creation directions, |K Sigma^T|_max <= tol * sqrt(sigma), and R is
    reconstructed from its Hermitian reduction,
    |R - Re(Sigma^dag (8 Sigma R Sigma^dag) Sigma)|_max <= tol * sigma.
    sigma carries the units of the drift R + Im(K^dag K), so the verdict is
    the same at every scale of the system; the zero system is passive.  A
    stage that split_systems made is judged at the sigma of the system it
    was split from.
    """
    k_defect, r_defect, sigma = sys._passivity
    return k_defect <= tol * math.sqrt(sigma) and r_defect <= tol * sigma


def to_passive_form(sys: SlhSystem, tol=DEFAULT_TOL) -> PassiveForm:
    """Reduce a passive system to annihilation variables.

    k_tilde = 2 K Sigma^dag and r_tilde = 8 Sigma R Sigma^dag invert the
    quadrature expansion K = k_tilde Sigma, R = Re(Sigma^dag r_tilde Sigma).
    Raises NotPassive when is_passive(sys, tol) is false.
    """
    if not is_passive(sys, tol):
        raise NotPassive(f"system is not passive at tolerance {tol:.1e}")
    k_tilde, r_tilde = sys._reduction
    return PassiveForm(r_tilde=r_tilde, k_tilde=k_tilde)


def from_passive_form(pf: PassiveForm, s: ComplexMatrix, tol_sym=DEFAULT_TOL) -> SlhSystem:
    """Expand an annihilation-variable description into quadratures.

    K = k_tilde Sigma, whose column pair j is (k_j/2, i k_j/2) for column j
    of k_tilde, and R = Re(Sigma^dag r_tilde Sigma) = realify(r_tilde)/4;
    the resulting diagonal 2x2 blocks of R are scalar multiples of the
    identity, the hallmark of a passive Hamiltonian.
    """
    pf.validate(tol_sym)
    k = np.empty((pf.m, 2 * pf.n), dtype=complex)
    k[:, 0::2] = pf.k_tilde / 2
    k[:, 1::2] = 1j * pf.k_tilde / 2
    return SlhSystem(s=s, k=k, r=realify(pf.r_tilde) / 4)
