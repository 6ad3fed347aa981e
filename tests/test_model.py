"""Structural constants, domain types, state-space construction, passivity."""


import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cascade_synth import (
    NonHermitianRtilde,
    NonSymmetricR,
    NonUnitaryScattering,
    NotPassive,
    PassiveForm,
    SlhSystem,
    build_state_space,
    drift_matrix,
    from_passive_form,
    is_cascade_realizable,
    is_passive,
    max_abs,
    one_mode_stages,
    passive_realize,
    to_passive_form,
)
from cascade_synth.model import realify, theta_times
from cascade_synth.sampling import (
    _complex_gaussian,
    random_passive_form,
    random_passive_system,
    random_system,
    random_unitary,
)

import reference_data as ref
from reference_data import J2, annihilation_map, symplectic_form

seeds = st.integers(0, 2**32 - 1)


def state_space_oracle(s, k, r):
    """Entrywise reference computation of (A, B, Cd, Dd), no matrix products."""
    m = s.shape[0]
    nn = r.shape[0]
    th = np.zeros((nn, nn))
    for j in range(nn // 2):
        th[2 * j, 2 * j + 1] = 1.0
        th[2 * j + 1, 2 * j] = -1.0
    im_kdk = np.zeros((nn, nn))
    for i in range(nn):
        for j in range(nn):
            im_kdk[i, j] = sum(
                (np.conj(k[f, i]) * k[f, j]).imag for f in range(m)
            )
    a = np.zeros((nn, nn))
    for i in range(nn):
        for j in range(nn):
            a[i, j] = 2.0 * sum(th[i, l] * (r[l, j] + im_kdk[l, j]) for l in range(nn))
    kds = np.zeros((nn, m), dtype=complex)
    kts = np.zeros((nn, m), dtype=complex)
    for i in range(nn):
        for j in range(m):
            kds[i, j] = sum(np.conj(k[f, i]) * s[f, j] for f in range(m))
            kts[i, j] = sum(k[f, i] * np.conj(s[f, j]) for f in range(m))
    b = np.zeros((nn, 2 * m), dtype=complex)
    for i in range(nn):
        for j in range(m):
            b[i, j] = 2j * sum(th[i, l] * -kds[l, j] for l in range(nn))
            b[i, m + j] = 2j * sum(th[i, l] * kts[l, j] for l in range(nn))
    c = np.vstack([k, np.conj(k)])
    d = np.zeros((2 * m, 2 * m), dtype=complex)
    d[:m, :m] = s
    d[m:, m:] = np.conj(s)
    return a, b, c, d


class TestStructuralConstants:
    def test_j_block(self):
        assert np.array_equal(J2, [[0.0, 1.0], [-1.0, 0.0]])

    @pytest.mark.parametrize("n", range(1, 7))
    def test_theta_antisymmetric_orthogonal(self, n):
        th = symplectic_form(n)
        assert np.array_equal(th.T, -th)
        assert np.array_equal(th @ th.T, np.eye(2 * n))

    @pytest.mark.parametrize("n", range(1, 7))
    def test_sigma_identities_exact(self, n):
        sg = annihilation_map(n)
        assert np.array_equal(sg @ sg.conj().T, np.eye(n) / 2)
        assert np.array_equal(sg @ sg.T, np.zeros((n, n)))
        assert np.array_equal(sg.conj() @ sg.conj().T, np.zeros((n, n)))
        assert np.array_equal(sg.conj() @ sg.T, np.eye(n) / 2)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_sigma_theta_identities_exact(self, n):
        sg = annihilation_map(n)
        th = symplectic_form(n)
        assert np.array_equal(sg @ th @ sg.T, np.zeros((n, n)))
        assert np.array_equal(sg.conj() @ th @ sg.conj().T, np.zeros((n, n)))
        assert np.array_equal(sg @ th @ sg.conj().T, -0.5j * np.eye(n))

    @pytest.mark.parametrize("n", range(1, 7))
    def test_quadrature_reconstruction_exact(self, n):
        sg = annihilation_map(n)
        left = 2 * np.hstack([sg.conj().T, sg.T])
        right = np.vstack([sg, sg.conj()])
        assert np.array_equal(left @ right, np.eye(2 * n))

    @pytest.mark.parametrize("n", range(1, 7))
    def test_realify_is_sigma_congruence(self, n):
        # bit for bit: no entry of a Gaussian z is zero, so no zero's sign can differ
        z = _complex_gaussian(np.random.default_rng(n), (n, n))
        sg = annihilation_map(n)
        oracle = 4.0 * np.real(sg.conj().T @ z @ sg)
        assert realify(z).tobytes() == oracle.tobytes()
        assert np.array_equal(realify(np.eye(n, dtype=complex)), np.eye(2 * n))

    @pytest.mark.parametrize("n", range(1, 7))
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_theta_times_is_theta_product(self, n, dtype):
        rng = np.random.default_rng(n)
        x = rng.standard_normal((2 * n, 3)).astype(dtype)
        if dtype is complex:
            x += 1j * rng.standard_normal((2 * n, 3))
        assert theta_times(x).tobytes() == (symplectic_form(n) @ x).tobytes()
        assert np.array_equal(theta_times(np.eye(2 * n)), symplectic_form(n))


class TestSlhSystem:
    def test_mode_and_field_counts(self):
        sys = random_system(3, 2, 0)
        assert sys.n == 3 and sys.m == 2

    def test_arrays_are_read_only(self):
        sys = random_system(1, 1, 0)
        with pytest.raises(ValueError):
            sys.k[0, 0] = 0.0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            SlhSystem(s=np.eye(2), k=np.zeros((2, 2)), r=np.zeros((4, 4)))
        with pytest.raises(ValueError):
            SlhSystem(s=np.eye(1), k=np.zeros((1, 3)), r=np.zeros((3, 3)))

    def test_complex_r_rejected(self):
        with pytest.raises(ValueError):
            SlhSystem(s=np.eye(1), k=np.zeros((1, 2)), r=np.zeros((2, 2), complex))

    def test_non_finite_rejected(self):
        k = np.zeros((1, 2), complex)
        k[0, 0] = np.nan
        with pytest.raises(ValueError):
            SlhSystem(s=np.eye(1), k=k, r=np.zeros((2, 2)))

    def test_validate_checks_unitarity_and_symmetry(self):
        good = random_system(2, 2, 1)
        assert good.validate() is good
        bad_s = SlhSystem(s=2 * np.eye(2), k=good.k, r=good.r)
        with pytest.raises(NonUnitaryScattering):
            bad_s.validate()
        r = np.array(good.r)
        r[0, 1] += 1.0
        bad_r = SlhSystem(s=good.s, k=good.k, r=r)
        with pytest.raises(NonSymmetricR):
            bad_r.validate()

    def test_identity_system_is_empty(self):
        g = ref.identity_system(3)
        assert g.n == 0 and g.m == 3
        assert np.array_equal(g.s, np.eye(3))


class TestBuildStateSpace:
    def test_zero_hamiltonian_single_mode(self):
        sys = SlhSystem(s=np.eye(1), k=np.array([[1.0, 1.0j]]), r=np.zeros((2, 2)))
        ss = build_state_space(sys)
        assert np.array_equal(ss.a, -2.0 * np.eye(2))

    @given(st.integers(1, 3), st.integers(1, 3), seeds)
    @settings(max_examples=25, deadline=None)
    def test_matches_entrywise_oracle(self, n, m, seed):
        sys = random_system(n, m, seed)
        ss = build_state_space(sys)
        a, b, c, d = state_space_oracle(sys.s, sys.k, sys.r)
        assert max_abs(ss.a - a) <= 1e-12
        assert max_abs(ss.b - b) <= 1e-12
        assert np.array_equal(ss.c, c)
        assert np.array_equal(ss.d, d)

    def test_a_is_real_valued(self):
        ss = build_state_space(random_system(3, 2, 7))
        assert not np.iscomplexobj(ss.a)

    @given(st.integers(1, 3), st.integers(1, 3), seeds)
    @settings(max_examples=25, deadline=None)
    def test_b_conjugation_swaps_column_halves(self, n, m, seed):
        ss = build_state_space(random_system(n, m, seed))
        swap = np.zeros((2 * m, 2 * m))
        swap[:m, m:] = np.eye(m)
        swap[m:, :m] = np.eye(m)
        assert max_abs(ss.b.conj() - ss.b @ swap) == 0.0

    def test_drift_matrix_shortcut_matches(self):
        sys = random_system(2, 2, 3)
        assert np.array_equal(drift_matrix(sys), build_state_space(sys).a)

    def test_invalid_inputs_raise(self):
        good = random_system(1, 1, 5)
        with pytest.raises(NonUnitaryScattering):
            build_state_space(SlhSystem(s=2 * np.eye(1), k=good.k, r=good.r))
        r = np.array(good.r)
        r[0, 1] += 1.0
        with pytest.raises(NonSymmetricR):
            build_state_space(SlhSystem(s=good.s, k=good.k, r=r))


class TestIsPassive:
    def test_reference_system_is_passive(self, reference_system):
        assert is_passive(reference_system)

    def test_quadrature_coupling_is_not_passive(self):
        sys = SlhSystem(s=np.eye(1), k=np.array([[1.0, 0.0]]), r=np.zeros((2, 2)))
        assert not is_passive(sys)

    def test_zero_system_is_passive(self):
        sys = SlhSystem(s=np.eye(1), k=np.zeros((1, 2)), r=np.zeros((2, 2)))
        assert is_passive(sys)

    def test_random_passive_and_perturbed_systems(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            n = int(rng.integers(1, 5))
            m = int(rng.integers(1, 4))
            sys = random_passive_system(n, m, rng)
            assert is_passive(sys)
            # inject a creation-direction coupling of max-norm ~1
            e = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
            e *= 2.0 / max_abs(e)
            bad = SlhSystem(
                s=sys.s, k=sys.k + e @ annihilation_map(n).conj(), r=sys.r
            )
            assert not is_passive(bad)


def bumped_passive(c):
    """A 3-mode passive system with R_tilde scaled by c and K_tilde by
    sqrt(c), and the same system with 10% of |R|_max added to R[0, 0], a part
    outside annihilation variables."""
    pf = random_passive_form(3, 2, 0)
    sys = from_passive_form(
        PassiveForm(r_tilde=c * pf.r_tilde, k_tilde=np.sqrt(c) * pf.k_tilde),
        random_unitary(2, 1),
    )
    r = np.array(sys.r)
    r[0, 0] += 0.1 * max_abs(r)
    return sys, SlhSystem(s=sys.s, k=sys.k, r=r)


class TestPassivityScale:
    def test_small_non_passive_part_is_caught_at_small_scale(self):
        for c in (1.0, 1e-9):
            _, bumped = bumped_passive(c)
            assert not is_passive(bumped)
            with pytest.raises(NotPassive):
                to_passive_form(bumped)

    @pytest.mark.parametrize("c", [1e-12, 1e-9, 1.0, 1e8])
    def test_verdicts_hold_at_every_scale(self, c):
        sys, bumped = bumped_passive(c)
        assert is_passive(sys) and ref.passivity_oracle(sys, 1e-9)
        assert not is_passive(bumped) and not ref.passivity_oracle(bumped, 1e-9)

    def test_scale_mixes_coupling_and_hamiltonian_units(self):
        # sigma = |R|_max + |K|_max^2: a coupling defect is measured against
        # sqrt(sigma), a Hamiltonian defect against sigma
        k = np.array([[1e-3, 0.0]], dtype=complex)  # K Sigma^T = 5e-4, not passive
        r = np.eye(2)
        assert not is_passive(SlhSystem(s=np.eye(1), k=k, r=r), 1e-4)
        assert is_passive(SlhSystem(s=np.eye(1), k=k, r=r), 1e-3)
        r = np.diag([1.0, 1.0 + 1e-6])  # dropped Hamiltonian 5e-7
        k = np.array([[1e3, 1e3j]])  # passive, |K|_max^2 = 1e6
        assert is_passive(SlhSystem(s=np.eye(1), k=k, r=r), 1e-12)
        assert not is_passive(SlhSystem(s=np.eye(1), k=k * 1e-3, r=r), 1e-7)


def coupled_system(c):
    """A two-mode, one-field system with |K|_max = c and |R|_max = 1: its
    drift and its passivity scale sigma overflow binary64 at c = 1e160."""
    r = np.zeros((4, 4))
    r[0, 2] = r[2, 0] = 1.0
    return SlhSystem(s=np.eye(1), k=np.array([[c, 1j * c, 1.0, 2j]]), r=r)


class TestNonFiniteScale:
    """Any finite residual passes at an infinite scale, so no verdict is
    judged there."""

    def test_overflowing_drift_raises(self):
        sys = coupled_system(1e160)
        for judge in (is_cascade_realizable, build_state_space):
            with pytest.raises(OverflowError, match="drift is not finite"):
                judge(sys)

    def test_overflowing_sigma_raises(self):
        sys = coupled_system(1e160)
        for judge in (is_passive, to_passive_form, passive_realize, one_mode_stages):
            with pytest.raises(OverflowError, match="passivity scale"):
                judge(sys)
        # |R|_max + |K|_max^2 overflows in the sum, with both terms finite
        big = SlhSystem(s=np.eye(1), k=np.array([[1e154, 1e154j]]), r=1e308 * np.eye(2))
        with pytest.raises(OverflowError, match="passivity scale"):
            is_passive(big)

    def test_large_finite_scale_is_judged(self):
        sys = coupled_system(1e150)
        report = is_cascade_realizable(sys)
        assert 1e300 < report.scale < 1e301 and report.is_triangular
        # what the (1, 2i) column pair drops is below the rounding of sigma
        assert is_passive(sys)


SCALES = [1e-12, 1e-8, 1e-4, 1.0, 1e4, 1e8]


def rounded_hermitian(c):
    """R_tilde = W diag(c [1, 2, -1, 0.5]) W^dag for W = random_unitary(4, 3):
    Hermitian up to rounding, with an asymmetry of about 1e-16 |R_tilde|_max
    (1.1e-8 at c = 1e8), and K_tilde = sqrt(c) [1, 0.5, 0.25, 0] W^dag."""
    w = random_unitary(4, 3)
    r_tilde = w @ np.diag(c * np.array([1.0, 2.0, -1.0, 0.5])) @ w.conj().T
    k_tilde = np.sqrt(c) * np.array([[1.0, 0.5, 0.25, 0.0]]) @ w.conj().T
    return r_tilde, k_tilde


class TestSymmetryScale:
    """Hermiticity of R_tilde and symmetry of R are judged relative to the
    matrix, with no unit floor: rounding passes at every scale, a
    non-Hermitian part of 10% of the matrix fails at every scale."""

    @pytest.mark.parametrize("c", SCALES)
    def test_hermiticity(self, c):
        r_tilde, k_tilde = rounded_hermitian(c)
        sys = from_passive_form(PassiveForm(r_tilde=r_tilde, k_tilde=k_tilde), np.eye(1))
        assert sys.validate() is sys and is_passive(sys)
        bent = np.array(r_tilde)
        bent[0, 1] += 0.1 * max_abs(r_tilde)
        with pytest.raises(NonHermitianRtilde):
            PassiveForm(r_tilde=bent, k_tilde=k_tilde).validate()

    @pytest.mark.parametrize("c", SCALES)
    def test_symmetry(self, c):
        r = c * np.array([[1.0, 0.3], [0.3 * (1 + 1e-15), 2.0]])
        k = np.sqrt(c) * np.array([[1.0, 1.0j]])
        sys = SlhSystem(s=np.eye(1), k=k, r=r)
        assert sys.validate() is sys
        bent = SlhSystem(s=np.eye(1), k=k, r=r + np.array([[0.0, 0.2 * c], [0.0, 0.0]]))
        with pytest.raises(NonSymmetricR):
            bent.validate()

    def test_zero_matrices_pass(self):
        zero = SlhSystem(s=np.eye(1), k=np.zeros((1, 2)), r=np.zeros((2, 2)))
        assert zero.validate() is zero
        pf = PassiveForm(r_tilde=np.zeros((2, 2)), k_tilde=np.zeros((1, 2)))
        assert pf.validate() is pf


def zero_mode_system(seed):
    """A passive 3-mode, 1-field system whose mode matrix has the decoupled
    eigenvalue 0: R_tilde = W diag(1, 2, 0) W^dag, K_tilde = [1, 0.5, 0] W^dag."""
    w = random_unitary(3, seed)
    r_tilde = w @ np.diag([1.0, 2.0, 0.0]) @ w.conj().T
    k_tilde = np.array([[1.0, 0.5, 0.0]]) @ w.conj().T
    pf = PassiveForm(r_tilde=(r_tilde + r_tilde.conj().T) / 2, k_tilde=k_tilde)
    return from_passive_form(pf, np.eye(1))


class TestComputeOnce:
    def test_arrays_are_read_only(self):
        sys = random_system(2, 2, 3)
        for a in (sys.s, sys.k, sys.r):
            with pytest.raises(ValueError):
                a[0, 0] = 1.0

    def test_every_input_is_copied(self):
        r = np.array(random_system(2, 1, 4).r)
        before = r.copy()
        sys = SlhSystem(s=np.eye(1), k=np.zeros((1, 4)), r=r)
        r[0, 0] += 1.0
        assert np.array_equal(sys.r, before)
        again = SlhSystem(s=sys.s, k=sys.k, r=sys.r)
        for a, b in ((again.s, sys.s), (again.k, sys.k), (again.r, sys.r)):
            assert np.array_equal(a, b) and not np.shares_memory(a, b)
        stages = one_mode_stages(sys)
        for stage in stages:
            for a, b in ((stage.s, sys.s), (stage.k, sys.k), (stage.r, sys.r)):
                assert not np.shares_memory(a, b)
        copy = SlhSystem(s=stages[1].s, k=stages[1].k, r=stages[1].r)
        assert not np.shares_memory(copy.r, stages[1].r)

    def test_array_locked_after_a_writable_view_is_copied(self):
        base = np.array(random_system(2, 1, 4).r)
        early = base[:]
        base.flags.writeable = False
        sys = SlhSystem(s=np.eye(1), k=np.zeros((1, 4)), r=base)
        assert sys.validate() is sys
        before = np.array(sys.r)
        early[0, 1] += 1.0  # R would no longer be symmetric
        assert np.array_equal(sys.r, before)
        assert sys._defects == (0.0, 0.0)
        assert SlhSystem(s=sys.s, k=sys.k, r=sys.r)._defects == sys._defects

    def test_read_only_view_of_writable_memory_is_copied(self):
        base = np.array(random_system(2, 1, 4).r)
        view = base.view()
        view.flags.writeable = False
        sys = SlhSystem(s=np.eye(1), k=np.zeros((1, 4)), r=view)
        assert sys.r is not view
        assert sys.validate() is sys
        base[0, 1] += 1.0  # R would no longer be symmetric
        assert not np.array_equal(view, sys.r)
        assert sys.validate() is sys and sys._defects == (0.0, 0.0)

    def test_passivity_reduction_computed_once(self, count_computations):
        computed = count_computations("_dropped")
        sys = random_passive_system(3, 2, 9)
        off = SlhSystem(s=sys.s, k=sys.k, r=sys.r + np.diag([1e-6, 0, 0, 0, 0, 0]))
        for tol in (1e-9, 1e-3, 1e-9):
            assert is_passive(sys, tol) is ref.passivity_oracle(sys, tol) is True
            assert is_passive(off, tol) is ref.passivity_oracle(off, tol) is (tol == 1e-3)
        assert computed == [sys, off]

    @pytest.mark.parametrize("n, m, seed", [(1, 2, 13), (5, 3, 14), (4, 0, 15)])
    def test_stage_split_measures_stage_passivity(self, count_computations, n, m, seed):
        sys = random_passive_system(n, m, seed)
        computed = count_computations("_dropped")
        for system in (sys, random_system(n, m, seed)):
            stages = one_mode_stages(system)
            verdicts = [is_passive(stage) for stage in stages]
            assert computed == []
            for stage, verdict in zip(stages, verdicts):
                fresh = SlhSystem(s=np.array(stage.s), k=np.array(stage.k), r=np.array(stage.r))
                assert stage._passivity == fresh._passivity[:2] + system._passivity[2:]
                assert verdict is ref.passivity_oracle(fresh, 1e-9, scale_of=system)
            computed.clear()

    def test_stage_of_a_zero_frequency_mode_is_passive(self):
        # a decoupled mode of zero frequency: its stage is zero up to the
        # rounding of the whole system, so it is judged at the system's scale
        alone_not_passive = 0
        for seed in range(20):
            sys = zero_mode_system(seed)
            assert is_passive(sys)
            stages = passive_realize(sys).chain.stages
            assert all(is_passive(stage) for stage in stages)
            tiny = min(stages, key=lambda stage: max_abs(stage.k))
            assert max_abs(tiny.k) < 1e-12
            # alone, the stage is judged at its own scale, where the
            # rounding is all of it
            fresh = SlhSystem(s=np.array(tiny.s), k=np.array(tiny.k), r=np.array(tiny.r))
            alone_not_passive += not is_passive(fresh)
        assert alone_not_passive > 10

    def test_validation_residuals_computed_once(self, count_computations):
        computed = count_computations("_defects")
        sys = random_system(2, 2, 11)
        r = np.array(sys.r)
        r[0, 1] += 1e-6
        bent = SlhSystem(s=sys.s, k=sys.k, r=r)
        assert bent.validate(tol_sym=1e-3) is bent
        with pytest.raises(NonSymmetricR):
            bent.validate()
        assert computed == [bent]

    def test_drift_computed_once(self, drift_calls):
        sys = random_system(3, 2, 12)
        for tol in (1e-9, 10.0, 1e-9):
            report = is_cascade_realizable(sys, tol)
            oracle = ref.triangularity_oracle(sys, tol)
            assert (report.is_triangular, report.max_upper_residual, report.scale) == oracle
            assert report.is_triangular is (tol == 10.0)
        assert np.array_equal(build_state_space(sys).a, drift_matrix(sys))
        assert drift_calls == [sys]


class TestPassiveFormMaps:
    def test_reference_reduction_is_exact(self, reference_system):
        pf = to_passive_form(reference_system)
        assert np.array_equal(pf.r_tilde, ref.R_TILDE)
        assert np.array_equal(pf.k_tilde, ref.K_TILDE)
        assert pf.offset == ref.OFFSET

    def test_reference_expansion_is_exact(self, reference_passive_form):
        sys = from_passive_form(reference_passive_form, np.eye(2, dtype=complex))
        assert np.array_equal(sys.k, ref.K_EXACT)
        assert np.array_equal(sys.r, ref.R_EXACT)

    def test_zero_system_reduces_to_zero(self):
        sys = SlhSystem(s=np.eye(1), k=np.zeros((1, 2)), r=np.zeros((2, 2)))
        pf = to_passive_form(sys)
        assert max_abs(pf.r_tilde) == 0.0
        assert max_abs(pf.k_tilde) == 0.0
        assert pf.offset == 0.0

    def test_diagonal_hamiltonian_levels(self):
        pf = PassiveForm(r_tilde=2 * np.eye(2, dtype=complex), k_tilde=np.zeros((1, 2), complex))
        sys = from_passive_form(pf, np.eye(1, dtype=complex))
        assert np.array_equal(sys.r, 0.5 * np.eye(4))

    @given(st.integers(1, 4), st.integers(1, 3), seeds)
    @settings(max_examples=25, deadline=None)
    def test_roundtrip_from_passive_description(self, n, m, seed):
        rng = np.random.default_rng(seed)
        h = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        pf = PassiveForm(r_tilde=(h + h.conj().T) / 2,
                         k_tilde=rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n)))
        sys = from_passive_form(pf, np.eye(m, dtype=complex))
        back = to_passive_form(sys)
        assert max_abs(back.r_tilde - pf.r_tilde) <= 1e-12
        assert max_abs(back.k_tilde - pf.k_tilde) <= 1e-12

    @given(st.integers(1, 4), st.integers(1, 3), seeds)
    @settings(max_examples=25, deadline=None)
    def test_roundtrip_from_quadrature_description(self, n, m, seed):
        sys = random_passive_system(n, m, seed)
        again = from_passive_form(to_passive_form(sys), sys.s)
        assert max_abs(again.k - sys.k) <= 1e-12
        assert max_abs(again.r - sys.r) <= 1e-12

    @given(st.integers(1, 4), st.integers(1, 3), seeds)
    @settings(max_examples=25, deadline=None)
    def test_diagonal_blocks_proportional_to_identity(self, n, m, seed):
        rng = np.random.default_rng(seed)
        h = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        pf = PassiveForm(r_tilde=(h + h.conj().T) / 2,
                         k_tilde=rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n)))
        sys = from_passive_form(pf, np.eye(m, dtype=complex))
        sg = annihilation_map(n)
        brute = np.real(sg.conj().T @ pf.r_tilde @ sg)
        assert np.array_equal(sys.r, brute)
        assert np.array_equal(sys.k, pf.k_tilde @ sg)
        for j in range(n):
            block = sys.r[2 * j : 2 * j + 2, 2 * j : 2 * j + 2]
            lam = brute[2 * j, 2 * j]
            assert max_abs(block - lam * np.eye(2)) <= 1e-12

    def test_offset_is_quarter_trace(self, reference_system):
        pf = to_passive_form(reference_system)
        assert pf.offset == pytest.approx(np.trace(pf.r_tilde).real / 4)

    def test_not_passive_raises(self):
        sys = SlhSystem(s=np.eye(1), k=np.array([[1.0, 0.0]]), r=np.zeros((2, 2)))
        with pytest.raises(NotPassive):
            to_passive_form(sys)

    def test_non_hermitian_reduction_raises(self):
        pf = PassiveForm(
            r_tilde=np.array([[1.0, 1.0j], [1.0j, 1.0]]),
            k_tilde=np.zeros((1, 2), complex),
        )
        with pytest.raises(NonHermitianRtilde):
            from_passive_form(pf, np.eye(1, dtype=complex))
