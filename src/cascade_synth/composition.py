"""Composition of linear quantum stochastic systems.

Implements the collapse of a chain of one-mode stages into a single
system, the series product of the stages (the output fields of each feeding
the inputs of the next) assembled in one pass, and the residual
direct-interaction Hamiltonian that measures how far a system is from being
a pure cascade of its own one-mode stages.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import BadResidual, FieldCountMismatch
from .model import (
    RealMatrix,
    SlhSystem,
    _as_real,
    _readonly,
    _stages,
    _unchecked,
    pair_blocks,
)


@dataclass(frozen=True, eq=False)
class CascadeChain:
    """Ordered chain of one-mode stages plus an optional residual interaction.

    stages[0] receives the input field first; stages[-1] emits the output.
    residual_r, when present, is a real symmetric 2n x 2n matrix with zero
    2x2 diagonal blocks that couples distinct stages directly (a bilinear
    interaction on top of the field-mediated cascade).  Each stage, lowest
    first, must have one mode and the field count of stage 0.  A stage is an
    SlhSystem, checked when it was made, so its scattering is unitary, as
    cascade relies on, and nothing about it is measured here.
    """

    stages: tuple[SlhSystem, ...]
    residual_r: Optional[RealMatrix] = None

    def __post_init__(self):
        stages = tuple(self.stages)
        if not stages:
            raise ValueError("a chain needs at least one stage")
        for j, stage in enumerate(stages):
            if stage.n != 1:
                raise ValueError(f"stage {j} has {stage.n} modes, expected 1")
            if stage.m != stages[0].m:
                raise FieldCountMismatch(
                    f"stage {j} has {stage.m} fields, stage 0 has {stages[0].m}"
                )
        object.__setattr__(self, "stages", stages)
        if self.residual_r is not None:
            rd = _as_real(self.residual_r, "residual_R")
            nn = 2 * len(stages)
            if rd.shape != (nn, nn):
                raise BadResidual(f"residual must be {nn} x {nn}, got {rd.shape}")
            if not np.array_equal(rd, rd.T):
                raise BadResidual("residual matrix must be symmetric")
            modes = np.arange(len(stages))
            bad = np.flatnonzero(pair_blocks(rd)[modes, modes].any(axis=(1, 2)))
            if bad.size:
                raise BadResidual(f"residual diagonal block {bad[0]} must be zero")
            object.__setattr__(self, "residual_r", rd)

    @property
    def n(self) -> int:
        return len(self.stages)

    @property
    def m(self) -> int:
        return self.stages[0].m


def _strict_lower(a) -> RealMatrix:
    """Copy of a 2n x 2n matrix with every 2x2 block on or above the block
    diagonal set to zero."""
    out = np.array(a, dtype=float, order="C")
    pair_blocks(out)[~np.tri(out.shape[0] // 2, k=-1, dtype=bool)] = 0.0
    return out


def _field_coupling(k) -> RealMatrix:
    """The field-mediated coupling of a cascade: the strictly lower 2x2-block
    part of Im(K^dag K), whose block (j, k), j > k, is Im(K_j^dag K_k) for
    the column pairs K_j, K_k of K."""
    return _strict_lower(np.imag(k.conj().T @ k))


def cascade(chain: CascadeChain) -> SlhSystem:
    """Collapse a chain into a single n-mode system.

    Equivalent to folding the series product over the stages (plus the
    residual interaction, if any), assembled directly: S is the product of
    the stage scatterings, column pair j of K is the stage coupling
    premultiplied by D_j = S_{n-1} ... S_{j+1}, the diagonal blocks of R are
    the stage Hamiltonians, and the lower block (j, k), j > k, is the series
    coupling Im(K_j^dag S_j ... S_{k+1} K_k) of the stages.  Every stage
    scattering is unitary, as every SlhSystem is, so that
    S_j ... S_{k+1} = D_j^dag D_k and the block is taken as Im(K_j^dag K_k)
    on column pairs of the collapsed K, the coupling residual_interaction
    subtracts.

    Every chain collapses: the result holds the arrays built here from the
    checked stages, locked, and is not judged again, as the unitarity
    residuals of the stage scatterings add up in their product; its
    residuals are measured when first read (SlhSystem._defects).  Its S and
    K are the fold's, and its couplings differ from the fold's by up to the
    sum of the stages' unitarity residuals, relative; that sum also bounds,
    to first order, the unitarity residual of its S, which can exceed
    DEFAULT_TOL.
    """
    stages = chain.stages
    n, m = chain.n, chain.m
    k = np.zeros((m, 2 * n), dtype=complex)
    hamiltonians = np.zeros((n, 2, 2))
    acc = np.eye(m, dtype=complex)
    for j in reversed(range(n)):
        k[:, 2 * j : 2 * j + 2] = acc @ stages[j].k
        hamiltonians[j] = stages[j].r
        acc = acc @ stages[j].s
    coupling = _field_coupling(k)
    r = coupling + coupling.T
    modes = np.arange(n)
    pair_blocks(r)[modes, modes] = hamiltonians
    if chain.residual_r is not None:
        r = r + chain.residual_r
    return _unchecked(SlhSystem, s=_readonly(acc), k=_readonly(k), r=_readonly(r))


def one_mode_stages(sys: SlhSystem) -> tuple[SlhSystem, ...]:
    """Split a system into its n one-mode stages.

    Stage 0 carries the full scattering matrix; later stages get identity
    scattering.  Stage j takes the j-th column pair of K and the j-th
    diagonal 2x2 block of R.  Cascading the stages reproduces (S, K, R)
    exactly once the residual interaction is added back, and with no
    residual at all when the drift matrix is lower 2x2-block triangular.

    The scatterings, column pairs and blocks are copied once, into private
    stacks, and the stages are read-only views into them, checked in one
    pass (see model._stages): stage 0's unitarity residual is that of S and
    the identity's is exactly 0, and each stage's R is judged symmetric at
    its own |R|_max.  What a stage drops on reduction to annihilation
    variables, and the norms it is measured against, are its slice of
    sys's one measuring pass (SlhSystem._per_mode): entry j of the column
    pair arrays and diagonal entry (j, j) of the block arrays, so sys is
    measured once and a stage is judged without measuring it.  Each stage is
    judged passive at the scale sigma of its chain, read from the same
    slices, so a stage that is zero up to the rounding of sys is passive,
    as it is when read back from a document; judged at its own scale, such
    a stage would fail.
    """
    n, m = sys.n, sys.m
    k_defect, r_defect, k_max, r_max = sys._per_mode
    s = np.empty((n, m, m), dtype=complex)
    s[:] = np.eye(m)
    s[:1] = sys.s
    # (n, m, 2) column pairs of K and (n, 2, 2) diagonal blocks of R
    k = np.array(sys.k.reshape(m, n, 2).swapaxes(0, 1))
    r = np.array(pair_blocks(sys.r).diagonal().transpose(2, 0, 1))
    unitarity = [sys._defects[0]] + [0.0] * (n - 1)
    dropped = (k_defect, r_defect.diagonal(), k_max, r_max.diagonal())
    return _stages(s, k, r, unitarity, dropped)


def residual_interaction(sys: SlhSystem) -> RealMatrix:
    """Return the direct-interaction Hamiltonian matrix left over after
    splitting a system into its one-mode stages.

    The result has zero 2x2 diagonal blocks; the block below the diagonal
    at (j, k), j > k, equals R_jk - Im(K_j^dag K_k), the Hamiltonian block
    minus the field coupling that cascade would place there, mirrored above
    so the result is exactly symmetric.  It vanishes exactly when the system
    is a pure cascade of its own stages (first stage carrying S, identity
    scattering afterwards), and residual_interaction(cascade(chain)) is
    exactly zero for every chain.
    """
    lower = _strict_lower(sys.r) - _field_coupling(sys.k)
    return lower + lower.T
