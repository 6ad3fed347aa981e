"""Cascade realizability test and decomposition into one-mode stages."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cascade_synth import (
    CascadeChain,
    NotCascadeRealizable,
    PassiveForm,
    SlhSystem,
    cascade,
    certify_equivalence,
    decompose_cascade,
    drift_matrix,
    from_passive_form,
    is_cascade_realizable,
    max_abs,
    passive_realize,
)
from cascade_synth.sampling import random_chain, random_passive_form, random_system, random_unitary

import reference_data as ref

seeds = st.integers(0, 2**32 - 1)


def upper_residual_oracle(sys):
    """Max abs entry in the strictly upper 2x2 block triangle of the drift."""
    a = drift_matrix(sys)
    worst = 0.0
    for j in range(sys.n):
        for k in range(j + 1, sys.n):
            for p in range(2):
                for q in range(2):
                    worst = max(worst, abs(a[2 * j + p, 2 * k + q]))
    return worst, max_abs(a)


class TestIsCascadeRealizable:
    def test_one_mode_always_realizable(self):
        report = is_cascade_realizable(random_system(1, 3, 5))
        assert report.is_triangular
        assert report.max_upper_residual == 0.0

    def test_reference_system_is_not_realizable(self, reference_system):
        report = is_cascade_realizable(reference_system)
        assert not report.is_triangular
        worst, scale = upper_residual_oracle(reference_system)
        assert report.max_upper_residual == pytest.approx(worst, abs=1e-15)
        assert report.scale == pytest.approx(scale, abs=1e-12)
        assert report.max_upper_residual > 1.0

    def test_transformed_reference_system_is_realizable(self):
        sys = SlhSystem(s=np.eye(2, dtype=complex), k=ref.K_PRIME, r=ref.R_PRIME)
        # printed to four decimals, so the residual sits at the rounding level
        report = is_cascade_realizable(sys, tol=1e-4)
        assert report.is_triangular
        assert not is_cascade_realizable(sys, tol=1e-9).is_triangular

    @given(st.integers(1, 6), st.integers(1, 4), seeds)
    @settings(max_examples=30, deadline=None)
    def test_report_matches_entrywise_oracle(self, n, m, seed):
        sys = random_system(n, m, seed)
        report = is_cascade_realizable(sys)
        worst, scale = upper_residual_oracle(sys)
        assert report.max_upper_residual == worst
        assert report.scale == scale
        assert report.is_triangular == (worst <= report.tolerance_used * scale)

    @given(st.integers(1, 6), st.integers(1, 4), seeds)
    @settings(max_examples=30, deadline=None)
    def test_cascade_outputs_are_realizable(self, n, m, seed):
        combined = cascade(random_chain(n, m, seed))
        assert is_cascade_realizable(combined).is_triangular

    def test_tolerance_is_relative_to_drift_scale(self):
        sys = random_system(3, 2, 7)
        huge = SlhSystem(s=sys.s, k=1e6 * sys.k, r=1e12 * sys.r)
        report = is_cascade_realizable(huge, tol=1e-9)
        assert report.scale == max_abs(drift_matrix(huge))
        # absolute residual is enormous, but so is the scale
        assert report.max_upper_residual > 1e9
        assert not report.is_triangular

    def test_tolerance_has_no_unit_floor(self):
        # drift norm far below 1: the scale is still |A|_max, not 1
        sys = SlhSystem(
            s=np.eye(1, dtype=complex),
            k=np.array([[1e-8, 1e-8j], [1e-8, 0.0]])[:1],
            r=np.zeros((2, 2)),
        )
        assert is_cascade_realizable(sys).scale == max_abs(drift_matrix(sys)) < 1e-15

    @pytest.mark.parametrize("c", [1.0, 1e-10, 1e-12])
    def test_small_scale_verdict_matches_unit_scale(self, c):
        # a unit floor on the scale would pass the upper residual, 1.27c, as
        # triangular at c <= 1e-10, and the emitted stages would not certify
        pf = random_passive_form(4, 2, 0)
        g = from_passive_form(
            PassiveForm(r_tilde=c * pf.r_tilde, k_tilde=np.sqrt(c) * pf.k_tilde),
            random_unitary(2, 1),
        )
        report = is_cascade_realizable(g)
        assert not report.is_triangular
        assert report.max_upper_residual > 1e-3 * report.scale
        with pytest.raises(NotCascadeRealizable):
            decompose_cascade(g)
        moved = passive_realize(g).system
        assert is_cascade_realizable(moved).is_triangular
        assert certify_equivalence(g, cascade(decompose_cascade(moved))).verdict

    def test_zero_mode_system_rejected(self):
        # a zero-mode system has no cascade; decompose_cascade raises too (below)
        for call in (is_cascade_realizable, passive_realize):
            with pytest.raises(ValueError):
                call(ref.identity_system(2))


class TestDecomposeCascade:
    def test_zero_mode_system_rejected(self):
        with pytest.raises(ValueError):
            decompose_cascade(ref.identity_system(2))

    def test_raises_with_report_attached(self, reference_system):
        with pytest.raises(NotCascadeRealizable) as exc:
            decompose_cascade(reference_system)
        report = exc.value.report
        assert not report.is_triangular
        assert report.max_upper_residual > 1.0

    @given(st.integers(1, 6), st.integers(1, 4), seeds)
    @settings(max_examples=30, deadline=None)
    def test_roundtrip_through_cascade(self, n, m, seed):
        combined = cascade(random_chain(n, m, seed))
        chain = decompose_cascade(combined)
        assert chain.residual_r is None
        rebuilt = cascade(chain)
        assert max_abs(rebuilt.s - combined.s) == 0.0
        assert max_abs(rebuilt.k - combined.k) == 0.0
        assert max_abs(rebuilt.r - combined.r) <= 1e-12

    def test_stage_drift_equals_parent_diagonal_block(self):
        combined = cascade(random_chain(4, 2, 13))
        chain = decompose_cascade(combined)
        a = drift_matrix(combined)
        for j, stage in enumerate(chain.stages):
            blk = a[2 * j : 2 * j + 2, 2 * j : 2 * j + 2]
            assert max_abs(drift_matrix(stage) - blk) <= 1e-12

    def test_respects_explicit_tolerance(self):
        sys = SlhSystem(s=np.eye(2, dtype=complex), k=ref.K_PRIME, r=ref.R_PRIME)
        chain = decompose_cascade(sys, tol=1e-4)
        assert isinstance(chain, CascadeChain)
        assert chain.n == 2
        with pytest.raises(NotCascadeRealizable):
            decompose_cascade(sys, tol=1e-9)
