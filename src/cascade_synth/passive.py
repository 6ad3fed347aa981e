"""Symplectic cascade synthesis for passive systems.

Every passive system admits a cascade realization after a change of
canonical variables: reduce it to annihilation variables and the n x n mode
matrix M, lower-triangularize M with a complex Schur decomposition, rotate
the passive form by the Schur unitary U, and split its quadrature expansion
into one-mode passive stages.  V = realify(U), real orthogonal symplectic,
is the same change of variables on the quadratures.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .composition import CascadeChain
from .errors import ConvergenceFailure, NonUnitaryInput
from .model import (
    DEFAULT_TOL,
    ComplexMatrix,
    PassiveForm,
    RealMatrix,
    SlhSystem,
    _as_real,
    _creation,
    _expansion,
    _readonly,
    _unchecked,
    max_abs,
    realify,
    to_passive_form,
)
from .realizability import decompose_cascade


@dataclass(frozen=True, eq=False)
class SymplecticTransform:
    """Real linear change of canonical variables x' = V x.

    Construction checks realness and even dimension only; orthogonality and
    preservation of the symplectic form are measured, not assumed, so that
    the verification ops can report residuals of arbitrary candidates.
    """

    v: RealMatrix

    def __post_init__(self):
        v = _as_real(self.v, "V")
        if v.shape[0] != v.shape[1] or v.shape[0] % 2:
            raise ValueError(f"V must be square with even dimension, got {v.shape}")
        object.__setattr__(self, "v", v)


class PassiveRealization(NamedTuple):
    """Result of the passive synthesis pipeline: the transformed system with
    lower block-triangular drift, the symplectic transform that produced it,
    and its cascade chain of one-mode passive stages."""

    system: SlhSystem
    transform: SymplecticTransform
    chain: CascadeChain


def mode_matrix(pf: PassiveForm) -> ComplexMatrix:
    """Return the n x n mode matrix M = -(i/4) (r_tilde - i k_tilde^dag
    k_tilde) driving the annihilation variables.

    This is (1/2) Sigma Theta Sigma^dag (r_tilde - i k_tilde^dag k_tilde)
    with Sigma Theta Sigma^dag = -(i/2) I.  The drift matrix A of the
    corresponding quadrature system is similar to diag(2M, 2M^#): stacking
    Sigma over Sigma^# block-diagonalizes A into diag(M, M^#) against the
    inverse 2 [Sigma^dag  Sigma^T].
    """
    return -0.25j * (pf.r_tilde - 1j * pf.k_tilde.conj().T @ pf.k_tilde)


@functools.cache
def _zgees():
    """LAPACK zgees from scipy's compiled _flapack extension, loaded by file
    once per process.  Importing the scipy.linalg package around it would
    cost several times the whole of a small realization."""
    spec = importlib.util.find_spec("scipy")
    if spec is None or not spec.submodule_search_locations:
        raise ImportError("scipy, which supplies LAPACK, is not installed")
    linalg = Path(spec.submodule_search_locations[0]) / "linalg"
    suffixes = importlib.machinery.EXTENSION_SUFFIXES
    path = next((p for s in suffixes if (p := linalg / f"_flapack{s}").is_file()), None)
    if path is None:
        raise ImportError(f"scipy's LAPACK extension _flapack not found in {linalg}")
    # the name scipy itself gives the module, so both share one instance
    loader = importlib.machinery.ExtensionFileLoader("scipy.linalg._flapack", str(path))
    spec = importlib.util.spec_from_loader(loader.name, loader)
    module = importlib.util.module_from_spec(spec)
    loader.exec_module(module)
    return module.zgees


def _no_sort(_):
    return None


def _raise_for(info) -> None:
    if info < 0:
        raise ValueError(f"zgees rejected its argument {-info}")
    if info > 0:
        raise ConvergenceFailure(f"Schur iteration failed to converge (zgees info={info})")


@functools.cache
def _lwork(zgees, n) -> int:
    """The workspace size zgees asks for at matrix order n, queried once per
    zgees and order: the answer depends on the order alone, and each size
    is kept for the zgees that gave it, so another zgees asks again."""
    a = np.zeros((n, n), dtype=complex)
    *_, work, info = zgees(_no_sort, a, compute_v=1, sort_t=0, lwork=-1, overwrite_a=0)
    _raise_for(info)
    return int(work[0].real)


def schur_lower(m: ComplexMatrix) -> tuple[ComplexMatrix, ComplexMatrix]:
    """Factor M = U^dag M_hat U with M_hat lower triangular and U unitary,
    and return the pair (U, M_hat); the eigenvalues of M sit on diag(M_hat).

    Obtained from the standard upper-triangular complex Schur decomposition
    M = Z T Z^dag by conjugating with the antidiagonal permutation P:
    U = P Z^dag and M_hat = P T P, taken by reversing the order of rows and
    columns.  T and Z come from LAPACK zgees, called directly as
    scipy.linalg.schur(M, output="complex") calls it (the factorization
    with the workspace its query asks for, no eigenvalue sorting), so the
    pair is the same bit for bit; the query runs once per order of M (see
    _lwork).  No command imports the scipy.linalg package.  M is never
    overwritten.  Raises ConvergenceFailure when the QR iteration fails.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"M must be square, got {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError("M contains non-finite entries")
    if m.shape[0] == 0:
        return np.zeros((0, 0), dtype=complex), np.zeros((0, 0), dtype=complex)
    zgees = _zgees()
    lwork = _lwork(zgees, m.shape[0])
    t, _, _, z, _, info = zgees(_no_sort, m, compute_v=1, sort_t=0, lwork=lwork, overwrite_a=0)
    _raise_for(info)
    # + 0.0 turns every zero into +0.0: conjugation leaves -0.0 in zero
    # imaginary parts, which V = realify(U) and the documents would carry
    return z.conj().T[::-1] + 0.0, t[::-1, ::-1] + 0.0


def build_symplectic(u: ComplexMatrix, tol_unitary=DEFAULT_TOL) -> SymplecticTransform:
    """Embed a unitary on the annihilation variables as a real orthogonal
    symplectic matrix on the quadratures.

    V = realify(U): block (j, k) of V is [[Re u_jk, -Im u_jk], [Im u_jk,
    Re u_jk]], i.e. V = 4 Re(Sigma^dag U Sigma), so that a' = U a and
    x' = V x describe the same change of variables.  V inherits
    orthogonality from the unitarity of U and commutes with the symplectic
    form.
    """
    u = np.asarray(u, dtype=complex)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ValueError(f"U must be square, got {u.shape}")
    if max_abs(u.conj().T @ u - np.eye(u.shape[0])) > tol_unitary:
        raise NonUnitaryInput(f"U fails unitarity at tolerance {tol_unitary:.1e}")
    return SymplecticTransform(v=realify(u))


def passive_realize(sys: SlhSystem, tol=DEFAULT_TOL) -> PassiveRealization:
    """Construct a cascade realization of a passive system: the transformed
    system, with the input's transfer function and a lower 2x2-block
    triangular drift, the transform V and the chain of one-mode stages.
    Raises NotPassive for a non-passive input.

    With pf = to_passive_form(sys, tol) and U from schur_lower(mode_matrix(
    pf)), the system in the variables a' = U a is the rotated form
    (herm(U r_tilde U^dag), k_tilde U^dag), herm(X) = (X + X^dag)/2; the
    transformed system, expanded from it with the input's S, keeps it as
    its reduction and is not judged again (its residuals are those of S
    and exactly 0).  For an input that drops nothing on reduction this is
    bit for bit from_passive_form(rotated, S), and every stage is exactly
    passive: coupling (k'_j/2, i k'_j/2), Hamiltonian (r'_jj/4) I.  What an
    input passive only within tol drops is rotated by U^T and expanded
    along (see _creation), so the transformed system stays the input's
    similarity.  V = realify(U) is not tested here; ccr_preservation
    measures it.
    """
    pf = to_passive_form(sys, tol)
    u, _ = schur_lower(mode_matrix(pf))
    u_dag = u.conj().T
    x = u @ pf.r_tilde @ u_dag
    r_tilde, k_tilde = _readonly((x + x.conj().T) / 2), _readonly(pf.k_tilde @ u_dag)
    rotated = _unchecked(PassiveForm, r_tilde=r_tilde, k_tilde=k_tilde)
    creation = None
    if any(sys._passivity[:2]):
        k_c, r_c = _creation(sys)
        y = u @ r_c @ u.T
        creation = (k_c @ u.T, (y + y.T) / 2)
    k, r = map(_readonly, _expansion(rotated, creation))
    transformed = _unchecked(
        SlhSystem, s=sys.s, k=k, r=r, _defects=(sys._defects[0], 0.0), _reduction=rotated
    )
    return PassiveRealization(
        system=transformed,
        transform=_unchecked(SymplecticTransform, v=_readonly(realify(u))),
        chain=decompose_cascade(transformed, tol),
    )
