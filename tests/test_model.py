"""Structural constants, domain types, state-space construction, passivity."""

import math

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
    RealizationDocument,
    SlhSystem,
    build_state_space,
    certify_equivalence,
    decompose_cascade,
    drift_matrix,
    from_passive_form,
    is_cascade_realizable,
    is_passive,
    max_abs,
    mode_matrix,
    one_mode_stages,
    passive_realize,
    schur_lower,
    to_passive_form,
)
from cascade_synth.model import DEFAULT_TOL, _unchecked, realify, theta_times
from cascade_synth.sampling import (
    _complex_gaussian,
    random_passive_form,
    random_passive_system,
    random_system,
    random_unitary,
)

import reference_data as ref
from reference_data import J2, annihilation_map, symplectic_form
from test_passive import transform_system

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

    def test_construction_checks_unitarity_and_symmetry(self):
        good = random_system(2, 2, 1)
        assert not hasattr(good, "validate")
        with pytest.raises(NonUnitaryScattering) as exc:
            SlhSystem(s=2 * np.eye(2), k=good.k, r=good.r)
        assert str(exc.value) == "S fails unitarity at tolerance 1.0e-09"
        r = np.array(good.r)
        r[0, 1] += 1.0
        with pytest.raises(NonSymmetricR) as exc:
            SlhSystem(s=good.s, k=good.k, r=r)
        assert str(exc.value) == "R fails symmetry at relative tolerance 1.0e-09"

    @pytest.mark.parametrize(
        "s, r, error",
        [
            # |S^dag S - I|_max overflows to inf
            pytest.param(1e200 * np.eye(2), np.eye(2), NonUnitaryScattering, id="inf-unitarity"),
            # finite entries whose products cancel as inf - inf = NaN
            pytest.param(
                1e200 * np.array([[1.0, 1.0], [1.0, -1.0]]), np.eye(2), NonUnitaryScattering,
                id="nan-unitarity",
            ),
            # |R - R^T|_max overflows to inf
            pytest.param(
                np.eye(2), np.array([[0.0, 1.5e308], [-1.5e308, 0.0]]), NonSymmetricR,
                id="inf-asymmetry",
            ),
        ],
    )
    def test_non_finite_residual_fails(self, s, r, error):
        # warnings are errors in this suite, so no RuntimeWarning escapes
        k = np.zeros((2, 2))
        unitarity, asymmetry = SlhSystem._defects.func(_unchecked(SlhSystem, s=s, k=k, r=r))
        residual, bound = (
            (unitarity, DEFAULT_TOL)
            if error is NonUnitaryScattering
            else (asymmetry, DEFAULT_TOL * max_abs(r))
        )
        # nan > bound is false, so the residual fails as not residual <= bound
        assert not residual <= bound and not np.isfinite(residual)
        with pytest.raises(error):
            SlhSystem(s=s, k=k, r=r)

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
        # certification's sample scale, measured without forming the drift
        with pytest.raises(OverflowError, match="drift is not finite"):
            certify_equivalence(sys, coupled_system(1e160))

    def test_overflowing_sigma_raises(self):
        sys = coupled_system(1e160)
        for judge in (is_passive, to_passive_form, passive_realize):
            with pytest.raises(OverflowError, match="passivity scale"):
                judge(sys)
        # the split and its document are made; only a verdict on them raises
        stages = one_mode_stages(sys)
        text = RealizationDocument(input_digest="0", stages=stages).dumps()
        for stage in (*stages, *RealizationDocument.loads(text).stages):
            assert stage._passivity[2] == math.inf
            with pytest.raises(OverflowError, match="passivity scale"):
                is_passive(stage)
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
        assert is_passive(sys)
        bent = np.array(r_tilde)
        bent[0, 1] += 0.1 * max_abs(r_tilde)
        with pytest.raises(NonHermitianRtilde):
            from_passive_form(PassiveForm(r_tilde=bent, k_tilde=k_tilde), np.eye(1))

    @pytest.mark.parametrize("c", SCALES)
    def test_symmetry(self, c):
        r = c * np.array([[1.0, 0.3], [0.3 * (1 + 1e-15), 2.0]])
        k = np.sqrt(c) * np.array([[1.0, 1.0j]])
        # constructs at every scale, as its asymmetry is rounding of it
        assert SlhSystem(s=np.eye(1), k=k, r=r).n == 1
        with pytest.raises(NonSymmetricR):
            SlhSystem(s=np.eye(1), k=k, r=r + np.array([[0.0, 0.2 * c], [0.0, 0.0]]))
        # unitarity has an absolute bound, the same at every scale of R
        with pytest.raises(NonUnitaryScattering):
            SlhSystem(s=np.eye(1) * (1 + 1e-6), k=k, r=r)

    def test_zero_matrices_pass(self):
        zero = SlhSystem(s=np.eye(1), k=np.zeros((1, 2)), r=np.zeros((2, 2)))
        assert zero._defects == (0.0, 0.0)
        pf = PassiveForm(r_tilde=np.zeros((2, 2)), k_tilde=np.zeros((1, 2)))
        assert from_passive_form(pf, np.eye(1))._defects == (0.0, 0.0)


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
        base[0, 1] += 1.0  # R would no longer be symmetric
        assert not np.array_equal(view, sys.r)
        assert sys._defects == (0.0, 0.0)
        assert SlhSystem(s=sys.s, k=sys.k, r=sys.r)._defects == (0.0, 0.0)

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
        measured, maxima = count_computations("_per_mode"), count_computations("_dropped")
        for system in (sys, random_system(n, m, seed)):
            stages = one_mode_stages(system)
            verdicts = [is_passive(stage) for stage in stages]
            # each stage holds its slice of system's measuring pass, and the
            # split reads the chain's sigma from those slices, not from
            # system's maxima
            assert measured == [system] and maxima == []
            sigma = ref.chain_sigma(stages)
            for stage, verdict in zip(stages, verdicts):
                fresh = SlhSystem(s=np.array(stage.s), k=np.array(stage.k), r=np.array(stage.r))
                assert stage._passivity == fresh._passivity[:2] + (sigma,)
                assert verdict is ref.passivity_oracle(fresh, 1e-9, scale_of=stages)
            measured.clear()
            maxima.clear()

    def test_stage_of_a_zero_frequency_mode_is_passive(self):
        # a decoupled mode of zero frequency, rotated on the quadratures
        # (S, K V^T, sym(V R V^T)): its stage is zero up to the rounding of
        # the whole system, so it is judged at its chain's scale, in the
        # split and read back from a document alike
        alone_not_passive = 0
        for seed in range(20):
            sys = zero_mode_system(seed)
            assert is_passive(sys)
            u, _ = schur_lower(mode_matrix(to_passive_form(sys)))
            stages = decompose_cascade(transform_system(sys, realify(u))).stages
            assert all(is_passive(stage) for stage in stages)
            text = RealizationDocument(input_digest="0", stages=stages).dumps()
            assert all(is_passive(stage) for stage in RealizationDocument.loads(text).stages)
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
        assert computed == [sys]
        r = np.array(sys.r)
        r[0, 1] += 1e-6
        with pytest.raises(NonSymmetricR):
            SlhSystem(s=sys.s, k=sys.k, r=r)
        assert len(computed) == 2
        # what consumes a system reads the residuals construction measured
        build_state_space(sys)
        certify_equivalence(sys, sys)
        one_mode_stages(sys)
        assert len(computed) == 2

    def test_drift_computed_once(self, drift_calls):
        sys = random_system(3, 2, 12)
        for tol in (1e-9, 10.0, 1e-9):
            report = is_cascade_realizable(sys, tol)
            oracle = ref.triangularity_oracle(sys, tol)
            assert (report.is_triangular, report.max_upper_residual, report.scale) == oracle
            assert report.is_triangular is (tol == 10.0)
        assert np.array_equal(build_state_space(sys).a, drift_matrix(sys))
        assert drift_calls == [sys]


def defective_passive_system(n, seed):
    """A passive system whose mode matrix is one rotated Jordan block."""
    r_tilde, k_tilde = ref.defective_passive_form(n, random_unitary(n, seed))
    pf = PassiveForm(r_tilde=(r_tilde + r_tilde.conj().T) / 2, k_tilde=k_tilde)
    return from_passive_form(pf, random_unitary(n, seed + 1))


def measured_systems():
    """General and passive systems, one with a defective mode matrix, at
    scales from 1e-8 to 1e8, with no modes and with no fields, and the
    one-mode stages of a split."""
    rng = np.random.default_rng(41)
    yield random_system(3, 2, rng)
    yield random_system(1, 1, rng)
    yield random_passive_system(5, 3, rng, degenerate=True)
    yield random_passive_system(6, 4, rng)
    yield defective_passive_system(4, 42)
    for c in (1e-8, 1e8):
        sys = random_passive_system(4, 2, rng)
        yield SlhSystem(s=sys.s, k=np.sqrt(c) * sys.k, r=c * sys.r)
    yield SlhSystem(s=np.eye(2), k=np.zeros((2, 0)), r=np.zeros((0, 0)))
    yield random_system(3, 0, rng)
    stages = one_mode_stages(random_system(4, 2, rng))
    yield from stages


class TestModeMeasures:
    """One measuring pass per system, mode by mode, whose maxima are the
    system's and whose slices are its stages'."""

    def test_arrays_match_loop_oracle(self):
        for sys in measured_systems():
            n = sys.n
            arrays = sys._per_mode
            assert [x.shape for x in arrays] == [(n,), (n, n), (n,), (n, n)]
            k_defect, r_defect, k_max, r_max = ref.mode_measures_oracle(sys.k, sys.r)
            # R's measures are sums and moduli of reals, exact; K's take a
            # complex modulus, whose last bit depends on its implementation
            assert arrays[1].tobytes() == r_defect.tobytes()
            assert arrays[3].tobytes() == r_max.tobytes()
            for x, y in ((arrays[0], k_defect), (arrays[2], k_max)):
                assert np.all(np.abs(x - y) <= 2.3e-16 * y)

    def test_maxima_equal_whole_matrix_pass(self):
        for sys in measured_systems():
            whole = tuple(float(x[0]) for x in ref.dropped_parts(sys.k[None], sys.r[None]))
            assert sys._dropped == whole

    def test_split_stages_hold_their_slice(self):
        for sys in measured_systems():
            if sys.n == 0:
                continue
            k_defect, r_defect, k_max, r_max = sys._per_mode
            stages = one_mode_stages(sys)
            sigma = ref.chain_sigma(stages)
            for j, stage in enumerate(stages):
                fresh = SlhSystem(s=np.array(stage.s), k=np.array(stage.k), r=np.array(stage.r))
                assert stage._dropped == (k_defect[j], r_defect[j, j], k_max[j], r_max[j, j])
                assert stage._dropped == fresh._dropped
                assert stage._defects == fresh._defects
                assert stage._passivity == fresh._passivity[:2] + (sigma,)

    def test_realized_system_is_measured_once(self, count_computations):
        computed = count_computations("_per_mode")
        for sys in (random_passive_system(5, 2, 43), defective_passive_system(3, 44)):
            realization = passive_realize(sys)
            assert computed == [sys, realization.system]
            certify_equivalence(sys, realization.system)
            assert all(is_passive(stage) for stage in realization.chain.stages)
            # the certificate and the stages read what the split measured
            assert computed == [sys, realization.system]
            computed.clear()


class TestDriftWithoutA:
    """The triangularity residual and |A|_max are exactly twice those of
    X = R + Im(K^dag K); A itself is formed only for the state space."""

    def test_residual_and_scale_match_the_formed_drift(self, drift_calls):
        for sys in measured_systems():
            residual, scale = sys._drift
            a = drift_matrix(sys)
            assert scale == max_abs(a)
            worst = 0.0
            for j in range(sys.n):
                for l in range(j + 1, sys.n):
                    worst = max(worst, max_abs(a[2 * j : 2 * j + 2, 2 * l : 2 * l + 2]))
            assert residual == worst
        assert drift_calls == []

    def test_state_space_forms_the_same_drift(self, drift_calls):
        for sys in measured_systems():
            a = build_state_space(sys).a
            x = sys.r + np.imag(sys.k.conj().T @ sys.k)
            # Theta has one entry of +-1 per row, so the product is exact
            assert a.tobytes() == (2.0 * symplectic_form(sys.n) @ x).tobytes()
            assert a.tobytes() == drift_matrix(sys).tobytes()
        assert len(drift_calls) == len(list(measured_systems()))

    @pytest.mark.parametrize("top, overflows", [(0.8e308, False), (0.9e308, True)])
    def test_doubling_at_the_edge_of_overflow(self, top, overflows):
        # |X|_max = top is finite, and 2 top overflows at 0.9e308, where A
        # holds inf and no verdict is judged
        r = np.array([[0.0, 0.0, top, 1.0], [0, 0, 0, 0], [top, 0, 0, 0], [1.0, 0, 0, 0]])
        sys = SlhSystem(s=np.eye(1), k=np.array([[1.0, 1.0j, 0.0, 0.0]]), r=r)
        with np.errstate(over="ignore"):
            a = drift_matrix(sys)
        assert bool(np.isfinite(a).all()) is not overflows
        if not overflows:
            assert sys._drift == (max_abs(a[0:2, 2:4]), max_abs(a)) == (2 * top, 2 * top)
        else:
            with pytest.raises(OverflowError, match="drift is not finite"):
                sys._drift
            with pytest.raises(OverflowError, match="drift is not finite"):
                build_state_space(sys)


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

    @pytest.mark.parametrize("scale", [1e-8, 1e-4, 1.0, 1e4, 1e8])
    def test_form_is_the_systems_own_reduction(self, scale):
        base = random_passive_system(4, 3, 21)
        sys = SlhSystem(s=base.s, k=math.sqrt(scale) * base.k, r=scale * base.r)
        pf = to_passive_form(sys)
        # the system's cached, read-only form: no copy, no second check
        assert isinstance(pf, PassiveForm)
        assert to_passive_form(sys) is pf is sys._reduction
        for a in (pf.r_tilde, pf.k_tilde):
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0, 0] = 1.0
        k_tilde, r_tilde = ref.reduction_oracle(sys.k, sys.r)
        for a, b in ((pf.k_tilde, k_tilde), (pf.r_tilde, r_tilde)):
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
        # the slices are the dense maps 2 K Sigma^dag and 8 Sigma R Sigma^dag
        sg = annihilation_map(sys.n)
        assert max_abs(pf.k_tilde - 2 * sys.k @ sg.conj().T) <= 1e-15 * max_abs(sys.k)
        assert max_abs(pf.r_tilde - 8 * sg @ sys.r @ sg.conj().T) <= 1e-14 * max_abs(sys.r)

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

    def test_hermiticity_is_the_symmetry_of_r(self):
        # one judge at one scale: R_tilde is Hermitian to 0.9e-9 of its
        # largest modulus, but R = realify(R_tilde)/4 is symmetric only to
        # 1.27e-9 of its largest entry
        data = ref.leaning_passive_data()
        r_tilde = ref.decode_complex_matrix(data["R_tilde"], 2, 2)
        k_tilde = ref.decode_complex_matrix(data["K_tilde"], 1, 2)
        assert max_abs(r_tilde - r_tilde.conj().T) <= 1e-9 * max_abs(r_tilde)
        pf = PassiveForm(r_tilde=r_tilde, k_tilde=k_tilde)
        with pytest.raises(NonHermitianRtilde):
            from_passive_form(pf, np.eye(1, dtype=complex))
