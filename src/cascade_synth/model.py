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
from functools import cached_property, lru_cache

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

def max_abs(a) -> float:
    """Max-norm of a matrix (0 for empty arrays)."""
    return float(np.maximum.reduce(np.abs(a), axis=None, initial=0.0))


def stack_max(a) -> np.ndarray:
    """Max-norm of each matrix in a (k, p, q) stack (0 for empty matrices)."""
    return np.maximum.reduce(np.abs(a), axis=(-2, -1), initial=0.0)


def _quarters(r):
    """The strided quarters (R_qq, R_qp, R_pq, R_pp) of a stack r
    (..., 2n, 2n): entry (j, l) of R_qp is the (q_j, p_l) entry of R, so each
    quarter holds one entry of every 2x2 block."""
    return r[..., 0::2, 0::2], r[..., 0::2, 1::2], r[..., 1::2, 0::2], r[..., 1::2, 1::2]


def _mode_measures(k, r):
    """Measure couplings k (..., m, 2n) and Hamiltonians r (..., 2n, 2n)
    mode by mode: what the reduction to annihilation variables drops, and
    the norm it is measured against.  Return the arrays (k_defect,
    r_defect, k_max, r_max): per column pair j, shape (..., n), the
    max-norm of column j of K Sigma^T, |K[:, 2j] + i K[:, 2j+1]|_max / 2,
    and |K_j|_max; per 2x2 block (j, l), shape (..., n, n), the max-norm of
    block (j, l) of R - Re(Sigma^dag r_tilde Sigma),
    max(|R_qq - R_pp|, |R_qp + R_pq|) / 2, and |R_jl|_max.  One system has
    no leading axes and a stack of n one-mode stages has (n,), so one
    formula measures both; the maxima of the arrays are the system's."""
    qq, qp, pq, pp = _quarters(r)
    k_size, r_size = np.abs(k), np.abs(r)
    r_size = np.maximum(r_size[..., 0::2, :], r_size[..., 1::2, :])
    return (
        np.maximum.reduce(np.abs(k[..., 0::2] + 1j * k[..., 1::2]), axis=-2, initial=0.0) / 2.0,
        np.maximum(np.abs(qq - pp), np.abs(qp + pq)) / 2.0,
        np.maximum.reduce(np.maximum(k_size[..., 0::2], k_size[..., 1::2]), axis=-2, initial=0.0),
        np.maximum(r_size[..., 0::2], r_size[..., 1::2]),
    )


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
    """The scale sigma = |R|_max + |K|_max^2 of is_passive, inf where it
    overflows; the float power raises on its own from |K|_max = 2**512 on."""
    return r_max + (k_max**2 if k_max < 2.0**512 else math.inf)


def _readonly(a):
    a.setflags(write=False)
    return a


@lru_cache(maxsize=16)
def _upper_blocks(n):
    """The read-only mask of the entries of a 2n x 2n matrix that lie in its
    2x2 blocks strictly above the block diagonal, kept per n: SlhSystem._drift
    reads the triangularity residual through it."""
    mode = np.arange(2 * n) // 2
    return _readonly(mode[None, :] > mode[:, None])


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

    Construction checks shapes and finiteness, then that S is unitary and R
    symmetric (see _judge), so every SlhSystem is a system and no consumer
    checks one again.  Each array is copied once on construction and
    locked, so the structural quantities (the residuals _judge bounds, the
    triangularity residual and scale of the drift, the reduction to
    annihilation variables, a PassiveForm that to_passive_form returns, and
    what it drops, measured mode by mode) are computed once per system and
    every check compares them against its own tolerance; a drift or
    passivity scale that is not finite raises OverflowError.  Systems the
    pipeline builds from checked values skip the constructor: the stages of
    _stages are read-only views into locked stacks, judged in one pass and
    preset with the residuals and passivity figures they are judged by; the
    transformed system of passive_realize and the collapse of cascade,
    whose unitarity residual can add up those of its stages, hold the
    arrays computed for them, locked.
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
        _judge(*self._defects, max_abs(r))

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
        """(|S^dag S - I|_max, |R - R^T|_max), the residuals _judge bounds;
        inf or NaN where huge entries overflow, which _judge rejects."""
        s, r = self.s, self.r
        with np.errstate(over="ignore", invalid="ignore"):
            return max_abs(s.conj().T @ s - np.eye(self.m)), max_abs(r - r.T)

    @cached_property
    def _drift(self) -> tuple[float, float]:
        """(the max-norm of the 2x2 blocks strictly above the block diagonal
        of the drift A of drift_matrix, |A|_max), read from
        X = R + Im(K^dag K) without forming A = 2 Theta X: Theta swaps and
        negates the rows of each mode's pair and the factor 2 is exact, so
        both are exactly twice those of X (see _finite)."""
        with np.errstate(over="ignore", invalid="ignore"):
            x = self.r + np.imag(self.k.conj().T @ self.k)
        scale = _finite(2.0 * max_abs(x), "|A|_max of the drift")
        return 2.0 * max_abs(x[_upper_blocks(self.n)]), scale

    @cached_property
    def _reduction(self) -> PassiveForm:
        """The system's own PassiveForm: the passive form it was expanded
        from, if any, else its reduction to annihilation variables by
        slicing, new, finite, locked arrays: k_tilde = K[:, 0::2] -
        i K[:, 1::2], and r_tilde = 8 Sigma R Sigma^dag is 2 (R_qq + R_pp) +
        2i (R_pq - R_qp) on the strided quarters of R (R_qp = R[0::2, 1::2],
        and so on)."""
        k = self.k
        qq, qp, pq, pp = _quarters(self.r)
        return _unchecked(
            PassiveForm,
            r_tilde=_readonly(2.0 * (qq + pp) + 2j * (pq - qp)),
            k_tilde=_readonly(k[:, 0::2] - 1j * k[:, 1::2]),
        )

    @cached_property
    def _per_mode(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """_mode_measures of (K, R): per column pair of K and per 2x2 block
        of R, what the reduction to annihilation variables drops and the
        max-norm it is measured against.  The one measuring pass of a
        system; one_mode_stages judges each stage by its slice."""
        return _mode_measures(self.k, self.r)

    @cached_property
    def _dropped(self) -> tuple[float, float, float, float]:
        """(k_defect, r_defect, |K|_max, |R|_max), the maxima of _per_mode."""
        return tuple(float(np.maximum.reduce(x, axis=None, initial=0.0)) for x in self._per_mode)

    @cached_property
    def _passivity(self) -> tuple[float, float, float]:
        """(k_defect, r_defect, sigma), what is_passive compares: the dropped
        parts and the scale sigma they are judged at (see _sigma).  _stages
        sets it for each stage of a chain, at the chain's sigma."""
        k_defect, r_defect, k_max, r_max = self._dropped
        return k_defect, r_defect, _sigma(r_max, k_max)


def _unchecked(cls, **fields):
    """An instance of the frozen dataclass cls that holds fields as they are,
    without __post_init__: for arrays the pipeline made itself, from inputs
    it had checked, and locked.  Fields may include cached properties."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


def _judge(unitarity, asymmetry, r_max, where="") -> None:
    """Raise NonUnitaryScattering unless |S^dag S - I|_max <= DEFAULT_TOL,
    then NonSymmetricR unless |R - R^T|_max <= DEFAULT_TOL * |R|_max, with
    where before the message.  The symmetry bound has no unit floor, so
    rounding passes at every scale of R and the zero matrix is symmetric.
    Each bound is written not residual <= bound, so a NaN residual fails."""
    if not unitarity <= DEFAULT_TOL:
        raise NonUnitaryScattering(f"{where}S fails unitarity at tolerance {DEFAULT_TOL:.1e}")
    if not asymmetry <= DEFAULT_TOL * r_max:
        raise NonSymmetricR(f"{where}R fails symmetry at relative tolerance {DEFAULT_TOL:.1e}")


def _stages(s, k, r, unitarity, dropped) -> tuple[SlhSystem, ...]:
    """The one-mode systems (s[j], k[j], r[j]) of the stacks s (count, m, m)
    and k (count, m, 2) of complex and r (count, 2, 2) of real entries, which
    the caller made from finite values and holds alone.  The stacks are
    locked here, and each stage's arrays are read-only views into them.

    The caller knows or measures what the stages drop on reduction to
    annihilation variables: dropped holds the arrays (k_defect, r_defect,
    |K|_max, |R|_max) over the stages, of _mode_measures, and unitarity
    their unitarity residuals.  The asymmetry of each R is one strided
    difference over the stack.  Each stage is judged at its own |R|_max,
    lowest first, and the first that fails is named in the error,
    "stage j: ...".  Every stage is judged passive at the scale sigma of
    its chain, the largest |R_j|_max plus the square of the largest
    |K_j|_max (see _sigma), so a stage split off a system and the same
    stage decoded from a document get the same verdict.  A stage is preset
    with _defects and _passivity, the fields it is judged by, and measures
    its own _dropped, its slice of dropped, only when that is read."""
    s, k, r = _readonly(s), _readonly(k), _readonly(r)
    with np.errstate(over="ignore", invalid="ignore"):
        asymmetry = np.abs(r[:, 0, 1] - r[:, 1, 0]).tolist()
    k_max, r_max = (float(np.maximum.reduce(x, initial=0.0)) for x in dropped[2:])
    sigma = _sigma(r_max, k_max)
    measured = zip(*(x.tolist() for x in dropped))
    stages = []
    for j, (sj, kj, rj, u, a, d) in enumerate(zip(s, k, r, unitarity, asymmetry, measured)):
        _judge(u, a, d[3], f"stage {j}: ")
        stages.append(
            _unchecked(SlhSystem, s=sj, k=kj, r=rj, _defects=(u, a), _passivity=(d[0], d[1], sigma))
        )
    return tuple(stages)


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
    Construction checks shapes and finiteness; from_passive_form judges
    Hermiticity, as the symmetry of the quadrature R it expands to.
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


def drift_matrix(sys: SlhSystem) -> RealMatrix:
    """Return the drift matrix A = 2 Theta (R + Im(K^dag K)) of the canonical
    variables; lower 2x2-block triangularity of A is the exact criterion for
    pure-cascade realizability."""
    return 2.0 * theta_times(sys.r + np.imag(sys.k.conj().T @ sys.k))


def build_state_space(sys: SlhSystem) -> DoubledStateSpace:
    """Assemble the doubled-up state-space matrices of a system.

    A = 2 Theta (R + Im(K^dag K)),  B = 2i Theta [-K^dag S   K^T S^#],
    Cd = [K; K^#],  Dd = diag(S, S^#).  A is real by construction since
    Im(.) is taken entrywise; B satisfies B^# = B P where P swaps its two
    column halves, mirroring the conjugate structure of the doubled fields.
    The system was checked when it was made, so nothing is checked here
    but the scale of the drift (SlhSystem._drift), before A is formed.  A is
    formed here only, for the general route of certify_equivalence and for
    transfer_function.
    """
    sys._drift  # OverflowError when |A|_max is not finite
    a = drift_matrix(sys)
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
    stage split off a system or decoded from a document is judged at the
    sigma of its chain (see _stages).  Raises OverflowError where sigma is
    not finite.
    """
    k_defect, r_defect, sigma = sys._passivity
    _finite(sigma, "the passivity scale |R|_max + |K|_max^2")
    return k_defect <= tol * math.sqrt(sigma) and r_defect <= tol * sigma


def to_passive_form(sys: SlhSystem, tol=DEFAULT_TOL) -> PassiveForm:
    """Reduce a passive system to annihilation variables.

    k_tilde = 2 K Sigma^dag and r_tilde = 8 Sigma R Sigma^dag invert the
    quadrature expansion K = k_tilde Sigma, R = Re(Sigma^dag r_tilde Sigma).
    The form is the system's own, computed once and read-only.  Raises
    NotPassive when is_passive(sys, tol) is false.
    """
    if not is_passive(sys, tol):
        raise NotPassive(f"system is not passive at tolerance {tol:.1e}")
    return sys._reduction


def _creation(sys: SlhSystem) -> tuple[ComplexMatrix, ComplexMatrix]:
    """The parts (k_c, r_c) on the creation variables a^# that the reduction
    to annihilation variables drops: k_c = K[:, 0::2] + i K[:, 1::2] and
    r_c = 2 (R_qq - R_pp) + 2i (R_qp + R_pq) (see _expansion)."""
    qq, qp, pq, pp = _quarters(sys.r)
    return sys.k[:, 0::2] + 1j * sys.k[:, 1::2], 2.0 * (qq - pp) + 2j * (qp + pq)


def _expansion(pf: PassiveForm, creation=None) -> tuple[ComplexMatrix, RealMatrix]:
    """The quadrature expansion (K, R) of pf, new arrays: K = k_tilde Sigma,
    whose column pair j is (k_j/2, i k_j/2) for column j of k_tilde, and
    R = Re(Sigma^dag r_tilde Sigma) = realify(r_tilde)/4.  Creation parts
    (k_c, r_c) add k_c Sigma^#, column pair (c_j/2, -i c_j/2), to K and
    realify(r_c)/4 with its odd columns negated to R."""
    k = np.empty((pf.m, 2 * pf.n), dtype=complex)
    k[:, 0::2] = pf.k_tilde / 2
    k[:, 1::2] = 1j * pf.k_tilde / 2
    r = realify(pf.r_tilde) / 4
    if creation is not None:
        k[:, 0::2] += creation[0] / 2
        k[:, 1::2] -= 1j * creation[0] / 2
        r += realify(creation[1]) * np.tile([0.25, -0.25], pf.n)
    return k, r


def from_passive_form(pf: PassiveForm, s: ComplexMatrix) -> SlhSystem:
    """Expand an annihilation-variable description into quadratures.

    The system holds the expansion (see _expansion), whose diagonal 2x2
    blocks of R are scalar multiples of the identity, the hallmark of a
    passive Hamiltonian, and keeps pf as its own reduction, so
    to_passive_form(from_passive_form(pf, s)) is pf.  R is symmetric
    exactly when r_tilde is Hermitian, so SlhSystem's symmetry test is the
    one judge of both, comparing the largest real or imaginary part of
    r_tilde - r_tilde^dag with that of r_tilde.  Raises what SlhSystem
    raises, with NonHermitianRtilde in place of NonSymmetricR.
    """
    k, r = _expansion(pf)
    try:
        system = SlhSystem(s=s, k=k, r=r)
    except NonSymmetricR:
        raise NonHermitianRtilde(
            f"R_tilde must be Hermitian within {DEFAULT_TOL:.1e} of its largest "
            "real or imaginary part"
        ) from None
    system.__dict__["_reduction"] = pf
    return system
