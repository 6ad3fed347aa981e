"""Concatenation, series product, cascade collapse, residual interaction."""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cascade_synth import (
    BadResidual,
    CascadeChain,
    FieldCountMismatch,
    NonSymmetricR,
    NonUnitaryScattering,
    SlhSystem,
    cascade,
    decompose_cascade,
    drift_matrix,
    is_cascade_realizable,
    max_abs,
    one_mode_stages,
    residual_interaction,
    series,
)
from cascade_synth.sampling import random_chain, random_passive_system, random_system

import reference_data as ref
from test_io import assert_bits_equal

seeds = st.integers(0, 2**32 - 1)


def series_oracle(g2, g1):
    """Entrywise reference for the series product of two one-mode systems."""
    m = g1.m
    s = np.zeros((m, m), dtype=complex)
    for i in range(m):
        for j in range(m):
            s[i, j] = sum(g2.s[i, l] * g1.s[l, j] for l in range(m))
    k = np.zeros((m, 4), dtype=complex)
    for i in range(m):
        for j in range(2):
            k[i, j] = sum(g2.s[i, l] * g1.k[l, j] for l in range(m))
            k[i, 2 + j] = g2.k[i, j]
    r = np.zeros((4, 4))
    r[:2, :2] = g1.r
    r[2:, 2:] = g2.r
    for i in range(2):
        for j in range(2):
            acc = 0.0
            for f in range(m):
                for l in range(m):
                    acc += (np.conj(g2.k[f, i]) * g2.s[f, l] * g1.k[l, j]).imag
            r[2 + i, j] = acc
            r[j, 2 + i] = acc
    return s, k, r


def assert_systems_close(g1, g2, tol):
    assert max_abs(g1.s - g2.s) <= tol
    assert max_abs(g1.k - g2.k) <= tol
    assert max_abs(g1.r - g2.r) <= tol


def stages_from_reference():
    g1 = SlhSystem(s=np.eye(2, dtype=complex), k=ref.K_PRIME[:, :2], r=ref.R_PRIME[:2, :2])
    g2 = SlhSystem(s=np.eye(2, dtype=complex), k=ref.K_PRIME[:, 2:], r=ref.R_PRIME[2:, 2:])
    return g1, g2


class TestConcatenation:
    def test_identity_element(self):
        g = random_system(2, 2, 0)
        empty = ref.identity_system(0)
        for combined in (ref.concatenation(g, empty), ref.concatenation(empty, g)):
            assert_systems_close(combined, g, 0.0)

    def test_two_one_mode_systems_entrywise(self):
        g1 = random_system(1, 2, 1)
        g2 = random_system(1, 1, 2)
        combined = ref.concatenation(g1, g2)
        assert combined.n == 2 and combined.m == 3
        assert np.array_equal(combined.s[:2, :2], g1.s)
        assert np.array_equal(combined.s[2:, 2:], g2.s)
        assert max_abs(combined.s[:2, 2:]) == 0.0
        assert np.array_equal(combined.k[:2, :2], g1.k)
        assert np.array_equal(combined.k[2:, 2:], g2.k)
        assert max_abs(combined.k[2:, :2]) == 0.0
        assert np.array_equal(combined.r[:2, :2], g1.r)
        assert np.array_equal(combined.r[2:, 2:], g2.r)
        assert max_abs(combined.r[:2, 2:]) == 0.0

    @given(seeds)
    @settings(max_examples=20, deadline=None)
    def test_associative(self, seed):
        rng = np.random.default_rng(seed)
        g1, g2, g3 = (random_system(1, 1, rng) for _ in range(3))
        left = ref.concatenation(ref.concatenation(g1, g2), g3)
        right = ref.concatenation(g1, ref.concatenation(g2, g3))
        assert_systems_close(left, right, 0.0)


class TestSeries:
    def test_identity_element(self):
        g = random_system(2, 3, 4)
        eye = ref.identity_system(3)
        assert_systems_close(series(eye, g), g, 0.0)
        assert_systems_close(series(g, eye), g, 0.0)

    def test_field_count_mismatch(self):
        with pytest.raises(FieldCountMismatch):
            series(random_system(1, 2, 0), random_system(1, 1, 0))

    @given(st.integers(1, 3), seeds)
    @settings(max_examples=25, deadline=None)
    def test_matches_entrywise_oracle(self, m, seed):
        rng = np.random.default_rng(seed)
        g1 = random_system(1, m, rng)
        g2 = random_system(1, m, rng)
        combined = series(g2, g1)
        s, k, r = series_oracle(g2, g1)
        assert max_abs(combined.s - s) <= 1e-12
        assert max_abs(combined.k - k) <= 1e-12
        assert max_abs(combined.r - r) <= 1e-12

    @given(seeds)
    @settings(max_examples=25, deadline=None)
    def test_associative(self, seed):
        rng = np.random.default_rng(seed)
        g1, g2, g3 = (random_system(1, 2, rng) for _ in range(3))
        left = series(g3, series(g2, g1))
        right = series(series(g3, g2), g1)
        assert_systems_close(left, right, 1e-12)

    def test_reference_stages_compose_to_reference_system(self):
        g1, g2 = stages_from_reference()
        combined = series(g2, g1)
        assert max_abs(combined.k - ref.K_PRIME) <= 1e-3
        assert max_abs(combined.r - ref.R_PRIME) <= 1e-3
        assert np.array_equal(combined.s, np.eye(2))


class TestCascade:
    def test_single_stage_unchanged(self):
        stage = random_system(1, 2, 9)
        assert_systems_close(cascade(CascadeChain(stages=(stage,))), stage, 0.0)

    def test_reference_two_stage_chain(self):
        g1, g2 = stages_from_reference()
        combined = cascade(CascadeChain(stages=(g1, g2)))
        assert max_abs(combined.k - ref.K_PRIME) <= 1e-3
        assert max_abs(combined.r - ref.R_PRIME) <= 1e-3

    @given(st.integers(2, 6), st.integers(1, 4), seeds)
    @settings(max_examples=25, deadline=None)
    def test_equals_series_fold(self, n, m, seed):
        chain = random_chain(n, m, seed)
        folded = functools.reduce(lambda acc, g: series(g, acc), chain.stages)
        assert_systems_close(cascade(chain), folded, 1e-12)

    @given(st.integers(1, 7), st.integers(1, 4), seeds)
    @settings(max_examples=25, deadline=None)
    def test_output_is_lower_block_triangular(self, n, m, seed):
        combined = cascade(random_chain(n, m, seed))
        closed = combined.r + np.imag(combined.k.conj().T @ combined.k)
        for j in range(n):
            for k in range(j + 1, n):
                assert max_abs(closed[2 * j : 2 * j + 2, 2 * k : 2 * k + 2]) <= 1e-12
        # cascade and residual_interaction share one coupling formula, so the
        # residual cancels bit for bit, whatever the stage scatterings
        assert max_abs(residual_interaction(combined)) == 0.0

    def test_chain_validation(self):
        stage = random_system(1, 2, 0)
        with pytest.raises(ValueError):
            CascadeChain(stages=())
        with pytest.raises(ValueError):
            CascadeChain(stages=(random_system(2, 2, 0),))
        with pytest.raises(FieldCountMismatch):
            CascadeChain(stages=(stage, random_system(1, 3, 0)))
        # cascade's coupling formula needs unitary stage scatterings
        leaky = SlhSystem(s=(1.0 + 1e-6) * stage.s, k=stage.k, r=stage.r)
        with pytest.raises(NonUnitaryScattering):
            CascadeChain(stages=(stage, leaky))
        # the stages are checked in order, and the error names the first failure
        with pytest.raises(NonUnitaryScattering, match="stage 2"):
            CascadeChain(stages=(stage, stage, leaky, leaky))
        tilted = SlhSystem(s=stage.s, k=stage.k, r=stage.r + np.array([[0.0, 1e-6], [0.0, 0.0]]))
        with pytest.raises(NonSymmetricR, match="stage 1"):
            CascadeChain(stages=(stage, tilted, stage, tilted))
        # the lowest failing stage raises, whichever check it fails
        with pytest.raises(NonSymmetricR, match="stage 0"):
            CascadeChain(stages=(tilted, stage, stage, leaky))
        with pytest.raises(NonUnitaryScattering, match="stage 1"):
            CascadeChain(stages=(stage, leaky, random_system(1, 3, 1)))
        with pytest.raises(FieldCountMismatch, match="stage 1"):
            CascadeChain(stages=(stage, random_system(1, 3, 1), leaky))

    @pytest.mark.parametrize("c", [1e-12, 1e-8, 1e-4, 1.0, 1e4, 1e8])
    def test_chain_symmetry_is_relative_to_each_stage(self, c):
        stage = random_system(1, 2, 0)
        # asymmetric at rounding level of its own scale: 1e-7 at c = 1e8
        rounded = SlhSystem(
            s=stage.s, k=stage.k, r=c * np.array([[1.0, 0.3], [0.3 * (1 + 1e-15), 2.0]])
        )
        assert CascadeChain(stages=(stage, rounded, stage)).n == 3
        tilted = SlhSystem(s=stage.s, k=stage.k, r=rounded.r + [[0.0, 0.2 * c], [0.0, 0.0]])
        with pytest.raises(NonSymmetricR, match="stage 1"):
            CascadeChain(stages=(rounded, tilted, stage))

    def test_residual_validation(self):
        stage = random_system(1, 2, 0)
        bad_diag = np.eye(4)
        with pytest.raises(BadResidual):
            CascadeChain(stages=(stage, stage), residual_r=bad_diag)
        asym = np.zeros((4, 4))
        asym[0, 2] = 1.0
        with pytest.raises(BadResidual):
            CascadeChain(stages=(stage, stage), residual_r=asym)
        with pytest.raises(BadResidual):
            CascadeChain(stages=(stage, stage), residual_r=np.zeros((2, 2)))


class TestResidualInteraction:
    def test_zero_for_cascade_of_stages_with_identity_scattering(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            n = int(rng.integers(1, 6))
            m = int(rng.integers(1, 4))
            stages = [random_system(1, m, rng) for _ in range(n)]
            eye = np.eye(m, dtype=complex)
            stages = [
                SlhSystem(s=st_.s if i == 0 else eye, k=st_.k, r=st_.r)
                for i, st_ in enumerate(stages)
            ]
            combined = cascade(CascadeChain(stages=tuple(stages)))
            assert max_abs(residual_interaction(combined)) == 0.0

    def test_reference_transformed_system_has_tiny_residual(self):
        sys = SlhSystem(s=np.eye(2, dtype=complex), k=ref.K_PRIME, r=ref.R_PRIME)
        assert max_abs(residual_interaction(sys)) <= 1e-3

    @given(st.integers(1, 5), st.integers(1, 4), seeds)
    @settings(max_examples=30, deadline=None)
    def test_reconstruction_identity(self, n, m, seed):
        sys = random_system(n, m, seed)
        rd = residual_interaction(sys)
        chain = CascadeChain(stages=one_mode_stages(sys), residual_r=rd)
        rebuilt = cascade(chain)
        assert_systems_close(rebuilt, sys, 1e-12)

    @given(st.integers(1, 5), st.integers(1, 4), seeds)
    @settings(max_examples=20, deadline=None)
    def test_residual_has_zero_diagonal_blocks_and_symmetry(self, n, m, seed):
        rd = residual_interaction(random_system(n, m, seed))
        assert np.array_equal(rd, rd.T)
        for j in range(n):
            assert max_abs(rd[2 * j : 2 * j + 2, 2 * j : 2 * j + 2]) == 0.0

    def test_triangular_iff_residual_vanishes(self):
        rng = np.random.default_rng(3)
        sys = random_system(3, 2, rng)
        rd = residual_interaction(sys)
        assert max_abs(rd) > 1e-3
        # subtracting the residual from R makes the drift lower triangular
        fixed = SlhSystem(s=sys.s, k=sys.k, r=sys.r - rd)
        assert max_abs(residual_interaction(fixed)) <= 1e-15
        a = drift_matrix(fixed)
        for j in range(3):
            for k in range(j + 1, 3):
                assert max_abs(a[2 * j : 2 * j + 2, 2 * k : 2 * k + 2]) <= 1e-15


class TestOneModeStages:
    def test_first_stage_carries_scattering(self):
        sys = random_system(3, 2, 21)
        stages = one_mode_stages(sys)
        assert len(stages) == 3
        assert np.array_equal(stages[0].s, sys.s)
        for j, stage in enumerate(stages):
            if j > 0:
                assert np.array_equal(stage.s, np.eye(2))
            assert np.array_equal(stage.k, sys.k[:, 2 * j : 2 * j + 2])
            assert np.array_equal(stage.r, sys.r[2 * j : 2 * j + 2, 2 * j : 2 * j + 2])


def stage_oracle(sys, j):
    """Stage j built by the public constructor from slices: (S or I,
    K[:, 2j:2j+2], R[2j:2j+2, 2j:2j+2])."""
    s = sys.s if j == 0 else np.eye(sys.m, dtype=complex)
    return SlhSystem(s=s, k=sys.k[:, 2 * j : 2 * j + 2], r=sys.r[2 * j : 2 * j + 2, 2 * j : 2 * j + 2])


def triangular_system(n, m, seed):
    """A cascade-realizable system with caller-owned, writable arrays."""
    sys = cascade(random_chain(n, m, seed))
    return np.array(sys.s), np.array(sys.k), np.array(sys.r)


class TestStageSplit:
    """The stages of one_mode_stages are read-only views into the split's
    own stacks, built without the per-stage constructor checks."""

    @pytest.mark.parametrize("n, m, seed", [(1, 1, 0), (3, 2, 1), (6, 4, 2), (4, 0, 3), (2, 3, 4)])
    def test_stages_match_loop_built_oracle(self, n, m, seed):
        for sys in (random_system(n, m, seed), random_passive_system(n, m, seed)):
            stages = one_mode_stages(sys)
            assert len(stages) == n
            for j, stage in enumerate(stages):
                oracle = stage_oracle(sys, j)
                for a, b in ((stage.s, oracle.s), (stage.k, oracle.k), (stage.r, oracle.r)):
                    assert_bits_equal(a, b)
                # measured on the stacks, the same numbers each stage would compute
                assert stage._defects == oracle._defects
                assert stage._dropped == oracle._dropped
                assert stage._passivity == oracle._passivity[:2] + sys._passivity[2:]

    def test_stage_arrays_are_read_only_and_private(self):
        s, k, r = triangular_system(4, 2, 5)
        sys = SlhSystem(s=s, k=k, r=r)
        for stages in (one_mode_stages(sys), decompose_cascade(sys).stages):
            for stage in stages:
                for a in (stage.s, stage.k, stage.r):
                    with pytest.raises(ValueError):
                        a[0, 0] = 1.0
                    with pytest.raises(ValueError):
                        a.setflags(write=True)
                    for other in (s, k, r, sys.s, sys.k, sys.r):
                        assert not np.shares_memory(a, other)

    def test_decompose_raises_what_the_chain_constructor_raises(self):
        s, k, r = triangular_system(3, 2, 6)
        leaky = SlhSystem(s=(1.0 + 1e-6) * s, k=k, r=r)
        r_tilted = r.copy()
        r_tilted[2, 3] += 1e-6 * max_abs(r[2:4, 2:4])  # diagonal block 1, upper entry
        tilted = SlhSystem(s=s, k=k, r=r_tilted)
        for sys, error, message in (
            (leaky, NonUnitaryScattering, "stage 0: S fails unitarity at tolerance 1.0e-09"),
            (tilted, NonSymmetricR, "stage 1: R fails symmetry at relative tolerance 1.0e-09"),
        ):
            assert is_cascade_realizable(sys).is_triangular
            with pytest.raises(error) as public:
                CascadeChain(stages=one_mode_stages(sys))
            with pytest.raises(error) as split:
                decompose_cascade(sys)
            assert str(split.value) == str(public.value) == message

    @pytest.mark.parametrize("n", [1, 4, 6])
    def test_chain_checks_compute_nothing_for_the_stages(self, count_computations, n):
        sys = SlhSystem(*triangular_system(n, 2, 7))
        defects = count_computations("_defects")
        dropped = count_computations("_dropped")
        for chain in (decompose_cascade(sys), CascadeChain(stages=one_mode_stages(sys))):
            assert chain.n == n
        # the split measured what the chain checks compare; only sys computes
        # its own unitarity residual, once, for stage 0
        assert defects == [sys] and dropped == []
