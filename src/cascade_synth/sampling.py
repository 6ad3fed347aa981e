"""Random generators for systems, chains, and transforms.

Used by the property-based test suites and the batch scripts; every function
takes either a seed or a numpy Generator so runs are reproducible.
"""

from __future__ import annotations

import numpy as np

from .composition import CascadeChain
from .model import PassiveForm, RealMatrix, SlhSystem, from_passive_form
from .passive import build_symplectic


def _complex_gaussian(rng, shape, scale=1.0):
    return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)


def random_unitary(m: int, rng=None):
    """Draw an m x m Haar-distributed unitary (QR of a complex Gaussian with
    the phase convention fixed by the diagonal of the R factor)."""
    rng = np.random.default_rng(rng)
    q, r = np.linalg.qr(_complex_gaussian(rng, (m, m)))
    d = np.diag(r)
    return q * (d / np.abs(d))


def random_system(n: int, m: int, rng=None) -> SlhSystem:
    """Draw a generic (S, K, R): Haar S, complex Gaussian K, symmetric
    Gaussian R."""
    rng = np.random.default_rng(rng)
    r = rng.standard_normal((2 * n, 2 * n))
    return SlhSystem(
        s=random_unitary(m, rng),
        k=_complex_gaussian(rng, (m, 2 * n)),
        r=(r + r.T) / 2,
    )


def random_chain(n: int, m: int, rng=None) -> CascadeChain:
    """Draw a chain of n generic one-mode stages sharing m fields."""
    rng = np.random.default_rng(rng)
    return CascadeChain(stages=tuple(random_system(1, m, rng) for _ in range(n)))


def random_passive_form(n: int, m: int, rng=None, degenerate=False) -> PassiveForm:
    """Draw a random annihilation-variable description.

    With degenerate=True (and n >= 2) the Hermitian Hamiltonian matrix is
    built from a spectrum with deliberately repeated eigenvalues.
    """
    rng = np.random.default_rng(rng)
    if degenerate and n >= 2:
        lam = rng.standard_normal(n)
        lam[1::2] = lam[0::2][: len(lam[1::2])]
        w = random_unitary(n, rng)
        h = w @ np.diag(lam).astype(complex) @ w.conj().T
    else:
        h = _complex_gaussian(rng, (n, n))
    r_tilde = (h + h.conj().T) / 2
    return PassiveForm(r_tilde=r_tilde, k_tilde=_complex_gaussian(rng, (m, n)))


def random_passive_system(n: int, m: int, rng=None, degenerate=False) -> SlhSystem:
    """Draw a random passive system with Haar scattering."""
    rng = np.random.default_rng(rng)
    pf = random_passive_form(n, m, rng, degenerate=degenerate)
    return from_passive_form(pf, random_unitary(m, rng))


def random_symplectic_orthogonal(n: int, rng=None) -> RealMatrix:
    """Draw a real orthogonal symplectic 2n x 2n matrix (the quadrature
    embedding of a Haar unitary)."""
    return build_symplectic(random_unitary(n, rng)).v
