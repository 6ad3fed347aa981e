"""Mode-space reduction, lower-triangular Schur step, symplectic synthesis."""

import importlib.machinery

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import block_diag
from scipy.optimize import linear_sum_assignment

from cascade_synth import (
    ConvergenceFailure,
    NonUnitaryInput,
    NotPassive,
    PassiveForm,
    RealizationDocument,
    SlhSystem,
    build_symplectic,
    cascade,
    certify_symplectic,
    decompose_cascade,
    drift_matrix,
    from_passive_form,
    is_cascade_realizable,
    is_passive,
    max_abs,
    mode_matrix,
    passive_realize,
    schur_lower,
    to_passive_form,
)
from cascade_synth.sampling import (
    _complex_gaussian,
    random_passive_form,
    random_passive_system,
    random_system,
    random_unitary,
)
from cascade_synth import passive
from cascade_synth.verification import certify_equivalence

import reference_data as ref
from reference_data import J2, annihilation_map, symplectic_form

seeds = st.integers(0, 2**32 - 1)


def charpoly_eigenvalues(m):
    """Eigenvalues via Faddeev-LeVerrier coefficients and companion roots.

    Independent of any Schur/QR path: builds the characteristic polynomial
    with the trace recursion and hands the monic coefficients to np.roots.
    """
    m = np.asarray(m, dtype=complex)
    n = m.shape[0]
    coeffs = np.zeros(n + 1, dtype=complex)
    coeffs[0] = 1.0
    acc = np.eye(n, dtype=complex)
    for k in range(1, n + 1):
        acc = m @ acc
        coeffs[k] = -np.trace(acc) / k
        acc = acc + coeffs[k] * np.eye(n)
    return np.roots(coeffs)


def multiset_distance(a, b):
    """Max pairing distance between two complex multisets of equal size."""
    a = np.asarray(a, dtype=complex).ravel()
    b = np.asarray(b, dtype=complex).ravel()
    assert a.size == b.size
    if a.size == 0:
        return 0.0
    cost = np.abs(a[:, None] - b[None, :])
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].max())


def congruence_residual(sys, m_mat):
    sigma = annihilation_map(sys.n)
    doubling = np.vstack([sigma, sigma.conj()])
    right = np.hstack([sigma.conj().T, sigma.T])
    lhs = doubling @ drift_matrix(sys) @ right
    return max_abs(lhs - block_diag(m_mat, m_mat.conj()))


class TestModeMatrix:
    def test_reference_eigenvalues(self, reference_passive_form):
        m_mat = mode_matrix(reference_passive_form)
        eigs = np.linalg.eigvals(m_mat)
        assert multiset_distance(eigs, ref.MODE_EIGENVALUES) <= 1e-3

    def test_diagonal_r_tilde_without_coupling(self):
        r = np.diag([2.0, 3.0, 5.0]).astype(complex)
        pf = PassiveForm(r_tilde=r, k_tilde=np.zeros((2, 3), dtype=complex))
        m_mat = mode_matrix(pf)
        assert max_abs(m_mat - np.diag([-0.5j, -0.75j, -1.25j])) <= 1e-15
        # sign and scale pinned by the congruence against the built drift
        sys = from_passive_form(pf, s=np.eye(2, dtype=complex))
        assert congruence_residual(sys, m_mat) <= 1e-15

    @given(st.integers(1, 6), st.integers(1, 4), seeds)
    @settings(max_examples=25, deadline=None)
    def test_congruence_identity(self, n, m, seed):
        sys = random_passive_system(n, m, seed)
        pf = to_passive_form(sys)
        m_mat = mode_matrix(pf)
        assert congruence_residual(sys, m_mat) <= 1e-10
        sg, th = annihilation_map(n), symplectic_form(n)
        x = pf.r_tilde - 1j * pf.k_tilde.conj().T @ pf.k_tilde
        oracle = 0.5 * sg @ th @ sg.conj().T @ x
        assert max_abs(m_mat - oracle) <= 1e-15 * max_abs(oracle)

    @given(st.integers(1, 6), st.integers(1, 4), seeds)
    @settings(max_examples=25, deadline=None)
    def test_drift_spectrum_doubles_mode_spectrum(self, n, m, seed):
        sys = random_passive_system(n, m, seed)
        em = np.linalg.eigvals(mode_matrix(to_passive_form(sys)))
        ea = np.linalg.eigvals(drift_matrix(sys))
        doubled = np.concatenate([2.0 * em, 2.0 * em.conj()])
        assert multiset_distance(ea, doubled) <= 1e-8


def failing_zgees(info):
    """A stand-in for LAPACK zgees whose workspace query succeeds and whose
    factorization returns the given info."""

    def zgees(select, a, compute_v, sort_t, lwork, overwrite_a):
        n = a.shape[0]
        work = np.array([2.0 * n + 0j])
        status = 0 if lwork == -1 else info
        return np.array(a), 0, np.zeros(n, complex), np.eye(n, dtype=complex), work, status

    return zgees


class TestSchurLower:
    @given(st.integers(1, 8), seeds)
    @settings(max_examples=30, deadline=None)
    def test_factorization_properties(self, n, seed):
        rng = np.random.default_rng(seed)
        m = _complex_gaussian(rng, (n, n), 1.0)
        u, m_hat = schur_lower(m)
        assert max_abs(u @ u.conj().T - np.eye(n)) <= 1e-12
        assert max_abs(np.triu(m_hat, 1)) <= 1e-12
        assert max_abs(u @ m @ u.conj().T - m_hat) <= 1e-10 * max(1.0, max_abs(m))
        assert max_abs(u.conj().T @ m_hat @ u - m) <= 1e-10 * max(1.0, max_abs(m))

    def test_already_lower_triangular(self):
        rng = np.random.default_rng(4)
        low = np.tril(_complex_gaussian(rng, (5, 5), 1.0))
        _, m_hat = schur_lower(low)
        assert max_abs(np.triu(m_hat, 1)) <= 1e-12
        assert multiset_distance(np.diag(m_hat), np.diag(low)) <= 1e-8

    @given(st.integers(1, 8), seeds)
    @settings(max_examples=30, deadline=None)
    def test_spectrum_matches_charpoly_oracle(self, n, seed):
        rng = np.random.default_rng(seed)
        m = _complex_gaussian(rng, (n, n), 1.0)
        _, m_hat = schur_lower(m)
        assert multiset_distance(np.diag(m_hat), charpoly_eigenvalues(m)) <= 1e-8

    def test_reference_spectrum(self, reference_passive_form):
        _, m_hat = schur_lower(mode_matrix(reference_passive_form))
        assert multiset_distance(np.diag(m_hat), ref.MODE_EIGENVALUES) <= 1e-3

    def test_repeated_eigenvalues(self):
        m = np.array([[2.0 - 1.0j, 0.0], [3.0, 2.0 - 1.0j]])
        _, m_hat = schur_lower(m)
        assert max_abs(np.triu(m_hat, 1)) <= 1e-12
        assert multiset_distance(np.diag(m_hat), [2.0 - 1.0j, 2.0 - 1.0j]) <= 1e-10

    def test_empty_matrix(self):
        u, m_hat = schur_lower(np.zeros((0, 0), dtype=complex))
        assert u.shape == (0, 0) and m_hat.shape == (0, 0)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            schur_lower(np.zeros((2, 3)))
        with pytest.raises(ValueError):
            schur_lower(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    @staticmethod
    def _oracle_inputs():
        rng = np.random.default_rng(20)
        for n in (1, 2, 3, 5, 8, 32):
            yield _complex_gaussian(rng, (n, n), 1.0)
        # degenerate: a repeated eigenvalue of a normal matrix
        w = random_unitary(4, 21)
        yield w @ np.diag([1.0 - 2.0j, 1.0 - 2.0j, 0.5j, 0.0]) @ w.conj().T
        # defective: Jordan blocks rotated by a random unitary
        for n in (3, 8):
            jordan = np.diag(np.full(n, 0.3 - 0.1j)) + np.diag(np.ones(n - 1), 1)
            w = random_unitary(n, n)
            yield w @ jordan @ w.conj().T
        yield np.array([[0.25 - 4.0j]])

    def test_bit_identical_to_scipy_schur(self):
        # zgees is called as scipy.linalg.schur calls it, so U and M_hat
        # match the reversal of scipy's (T, Z) byte for byte
        from scipy.linalg import schur

        for m in self._oracle_inputs():
            before = m.copy()
            u, m_hat = schur_lower(m)
            t, z = schur(m, output="complex")
            assert np.array_equal(m, before)  # M is not overwritten
            assert u.tobytes() == (z.conj().T[::-1] + 0.0).tobytes()
            assert m_hat.tobytes() == (t[::-1, ::-1] + 0.0).tobytes()

    def test_workspace_queried_once_per_order(self, monkeypatch):
        from scipy.linalg import schur

        lapack = passive._zgees()

        def recorder():
            calls = []

            def zgees(*args, **kwargs):
                calls.append(kwargs["lwork"])
                return lapack(*args, **kwargs)

            return zgees, calls

        rng = np.random.default_rng(22)
        # a stand-in's workspace must not reach LAPACK: it asks for 2n
        monkeypatch.setattr(passive, "_zgees", lambda: failing_zgees(2))
        with pytest.raises(ConvergenceFailure):
            schur_lower(np.eye(3, dtype=complex))
        zgees, calls = recorder()
        monkeypatch.setattr(passive, "_zgees", lambda: zgees)
        for n in (3, 5, 3, 3, 5):
            m = _complex_gaussian(rng, (n, n), 1.0)
            u, m_hat = schur_lower(m)
            t, z = schur(m, output="complex")
            assert u.tobytes() == (z.conj().T[::-1] + 0.0).tobytes()
            assert m_hat.tobytes() == (t[::-1, ::-1] + 0.0).tobytes()
        assert calls.count(-1) == 2 and len(calls) == 7
        # another zgees asks again
        other, again = recorder()
        monkeypatch.setattr(passive, "_zgees", lambda: other)
        schur_lower(_complex_gaussian(rng, (3, 3), 1.0))
        assert again[0] == -1 and len(again) == 2

    @pytest.mark.parametrize(
        "info, error, message",
        [(2, ConvergenceFailure, "failed to converge"), (-4, ValueError, "argument 4")],
    )
    def test_lapack_failure_raises(self, monkeypatch, info, error, message):
        monkeypatch.setattr(passive, "_zgees", lambda: failing_zgees(info))
        with pytest.raises(error, match=message):
            schur_lower(np.eye(2, dtype=complex))

    def test_missing_lapack_names_the_searched_path(self, monkeypatch):
        monkeypatch.setattr(importlib.machinery, "EXTENSION_SUFFIXES", [".absent"])
        passive._zgees.cache_clear()
        try:
            with pytest.raises(ImportError, match="_flapack not found in .*scipy.*linalg"):
                passive._zgees()
        finally:
            passive._zgees.cache_clear()


class TestBuildSymplectic:
    def test_identity(self):
        for n in range(1, 5):
            assert np.array_equal(build_symplectic(np.eye(n, dtype=complex)).v, np.eye(2 * n))

    def test_reference_transform(self):
        # four-decimal print: unitarity only holds to ~1e-4
        v = build_symplectic(ref.U_REF, tol_unitary=1e-3).v
        assert max_abs(v - ref.V_REF) <= 1e-3

    def test_block_structure_and_intertwining(self):
        u = random_unitary(3, 0)
        v = build_symplectic(u).v
        for i in range(3):
            for j in range(3):
                blk = v[2 * i : 2 * i + 2, 2 * j : 2 * j + 2]
                expected = u[i, j].real * np.eye(2) - u[i, j].imag * J2
                assert np.array_equal(blk, expected)
        sigma = annihilation_map(3)
        assert np.array_equal(sigma @ v, u @ sigma)

    def test_properties_random(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            n = int(rng.integers(1, 7))
            v = build_symplectic(random_unitary(n, rng)).v
            assert v.dtype == np.float64
            assert max_abs(v @ v.T - np.eye(2 * n)) <= 1e-10
            theta = symplectic_form(n)
            assert max_abs(v @ theta @ v.T - theta) <= 1e-10

    def test_rejects_non_unitary(self):
        with pytest.raises(NonUnitaryInput):
            build_symplectic(2.0 * np.eye(3, dtype=complex))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="U must be square"):
            build_symplectic(np.eye(2, 3, dtype=complex))


def transform_system(sys, v):
    """(S, K V^T, (X + X^T)/2 for X = V R V^T): the change of variables
    x' = V x made on the quadratures."""
    r = v @ sys.r @ v.T
    return SlhSystem(s=sys.s, k=sys.k @ v.T, r=(r + r.T) / 2)


def near_passive(n, m, seed, eps, parts="kr"):
    """A passive system (n modes, m fields) with what the reduction to
    annihilation variables drops set to eps of the passivity scale sigma:
    with "k" in parts a coupling k_c Sigma^# to the creation variables,
    |k_c|_max = eps sqrt(sigma), and with "r" a symmetric R part of
    max-norm eps sigma / 2 outside annihilation variables."""
    sys = from_passive_form(random_passive_form(n, m, seed), random_unitary(m, seed + 1))
    k, r = np.array(sys.k), np.array(sys.r)
    sigma = max_abs(r) + max_abs(k) ** 2
    rng = np.random.default_rng(seed)
    if "k" in parts:
        k_c = _complex_gaussian(rng, (m, n))
        k_c *= eps * np.sqrt(sigma) / max_abs(k_c)
        k[:, 0::2] += k_c / 2
        k[:, 1::2] -= 1j * k_c / 2
    if "r" in parts:
        x = rng.normal(size=(2 * n, 2 * n))
        x = x + x.T
        r += eps * sigma * x / (2 * max_abs(x))
    return SlhSystem(s=sys.s, k=k, r=r)


def public_route(sys):
    """The transformed system of passive_realize and V, through the public
    constructors: U from the Schur step, the rotated form
    ((X + X^dag)/2 for X = U r_tilde U^dag, k_tilde U^dag), its expansion
    by from_passive_form, and build_symplectic(U).v."""
    pf = to_passive_form(sys)
    u, _ = schur_lower(mode_matrix(pf))
    x = u @ pf.r_tilde @ u.conj().T
    rotated = PassiveForm(r_tilde=(x + x.conj().T) / 2, k_tilde=pf.k_tilde @ u.conj().T)
    return from_passive_form(rotated, sys.s), build_symplectic(u).v


class TestPassiveRealize:
    def test_reference_seeded_with_printed_unitary(self, reference_system):
        # pinned transform: drive the rotation with the published unitary
        v = build_symplectic(ref.U_REF, tol_unitary=1e-3).v
        moved = transform_system(reference_system, v)
        assert max_abs(v - ref.V_REF) <= 1e-3
        assert max_abs(moved.k - ref.K_PRIME) <= 1e-3
        assert max_abs(moved.r - ref.R_PRIME) <= 1e-3

    def test_reference_pipeline(self, reference_system):
        realization = passive_realize(reference_system)
        moved, transform, chain = realization
        assert realization.system is moved and realization.chain is chain
        assert is_cascade_realizable(moved).is_triangular
        assert certify_symplectic(transform.v, tol=1e-9)
        report = certify_equivalence(reference_system, moved)
        assert report.verdict
        levels = [stage.r[0, 0] for stage in chain.stages]
        assert multiset_distance(levels, ref.STAGE_LEVELS) <= 1e-3

    def test_reference_closed_form_triangularity(self, reference_system):
        realization = passive_realize(reference_system)
        _, m_hat = schur_lower(mode_matrix(to_passive_form(reference_system)))
        sigma = annihilation_map(2)
        lhs = realization.transform.v @ drift_matrix(reference_system) @ realization.transform.v.T
        rhs = 8.0 * np.real(sigma.conj().T @ m_hat @ sigma)
        assert max_abs(lhs - rhs) <= 1e-9

    @given(st.integers(1, 5), st.integers(1, 4), seeds, st.sampled_from([1.0, 1e-12, 1e8]))
    @settings(max_examples=25, deadline=None)
    def test_random_passive_pipeline(self, n, m, seed, c):
        unit = random_passive_system(n, m, seed)
        sys = SlhSystem(s=unit.s, k=np.sqrt(c) * unit.k, r=c * unit.r)
        moved, transform, chain = passive_realize(sys)
        report = is_cascade_realizable(moved, tol=1e-8)
        assert report.is_triangular
        assert certify_symplectic(transform.v, tol=1e-9)
        assert np.array_equal(moved.s, sys.s)
        public, v = public_route(sys)
        assert np.array_equal(transform.v, v)
        for a, b in ((moved.k, public.k), (moved.r, public.r)):
            assert a.tobytes() == b.tobytes()
        assert np.array_equal(moved.r, moved.r.T)
        # the rotation of the quadratures, (S, K V^T, sym(V R V^T)), agrees
        quad = transform_system(sys, v)
        assert max_abs(moved.k - quad.k) <= 1e-13 * max_abs(quad.k)
        assert max_abs(moved.r - quad.r) <= 1e-13 * max_abs(quad.r)
        assert chain.n == n and chain.residual_r is None
        assert certify_equivalence(sys, moved).verdict

    @pytest.mark.parametrize("n, m, seed", [(1, 1, 0), (3, 2, 1), (6, 4, 2), (4, 0, 3)])
    def test_pipeline_matches_the_public_constructors(self, n, m, seed):
        # passive_realize builds from the checked input without the
        # PassiveForm or SlhSystem constructors or build_symplectic; the
        # public route through them gives the same bits
        sys = random_passive_system(n, m, seed)
        moved, transform, chain = passive_realize(sys)
        public, v = public_route(sys)
        assert transform.v.tobytes() == v.tobytes()
        for a, b in ((moved.s, public.s), (moved.k, public.k), (moved.r, public.r)):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
            with pytest.raises(ValueError):
                a[0, 0] = 1.0
        with pytest.raises(ValueError):
            transform.v[0, 0] = 1.0
        # the transformed system keeps the rotated form as its reduction
        form, expanded = to_passive_form(moved), to_passive_form(public)
        for a, b in ((form.r_tilde, expanded.r_tilde), (form.k_tilde, expanded.k_tilde)):
            assert a.tobytes() == b.tobytes()
            with pytest.raises(ValueError):
                a[0, 0] = 1.0
        # the residuals set on the transformed system are the ones it would compute
        assert moved._defects == public._defects
        assert moved._defects[1] == 0.0
        assert [st.r.tobytes() for st in chain.stages] == [
            st.r.tobytes() for st in decompose_cascade(public).stages
        ]
        quad = transform_system(sys, v)
        assert max_abs(moved.k - quad.k) <= 1e-13 * max_abs(quad.k)
        assert max_abs(moved.r - quad.r) <= 1e-13 * max_abs(quad.r)

    @pytest.mark.parametrize("seed", range(5))
    def test_large_scale_realization_certifies(self, seed):
        # |R| ~ 3e7: unsymmetrized, V R V^T carries ~1e-8 of rounding asymmetry
        pf = random_passive_form(6, 3, seed)
        big = PassiveForm(r_tilde=1e8 * pf.r_tilde, k_tilde=1e4 * pf.k_tilde)
        sys = from_passive_form(big, random_unitary(3, seed + 100))
        moved, _, chain = passive_realize(sys)
        assert np.array_equal(moved.r, moved.r.T)
        assert is_cascade_realizable(moved).is_triangular
        assert all(is_passive(stage) for stage in chain.stages)
        report = certify_equivalence(sys, moved)
        assert report.verdict and report.max_rel_mismatch <= 1e-12

    @given(st.integers(1, 5), st.integers(1, 4), seeds)
    @settings(max_examples=25, deadline=None)
    def test_stages_are_passive_one_mode_systems(self, n, m, seed):
        sys = random_passive_system(n, m, seed)
        _, _, chain = passive_realize(sys)
        sigma1 = annihilation_map(1)
        for stage in chain.stages:
            assert is_passive(stage)
            scale = max(1.0, max_abs(stage.k))
            assert max_abs(stage.k @ sigma1.T) <= 1e-12 * scale
            # diagonal Hamiltonian blocks are scalar multiples of the identity
            assert abs(stage.r[0, 0] - stage.r[1, 1]) <= 1e-9 * max(1.0, max_abs(stage.r))
            assert abs(stage.r[0, 1]) <= 1e-9 * max(1.0, max_abs(stage.r))

    @given(st.integers(1, 5), st.integers(1, 4), seeds)
    @settings(max_examples=25, deadline=None)
    def test_chain_collapses_back_to_transformed_system(self, n, m, seed):
        sys = random_passive_system(n, m, seed)
        moved, _, chain = passive_realize(sys)
        rebuilt = cascade(chain)
        scale = max(1.0, max_abs(moved.r))
        assert max_abs(rebuilt.s - moved.s) == 0.0
        assert max_abs(rebuilt.k - moved.k) == 0.0
        assert max_abs(rebuilt.r - moved.r) <= 1e-12 * scale

    def test_degenerate_spectrum_no_special_casing(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            n = int(rng.integers(2, 6))
            m = int(rng.integers(1, 4))
            pf = random_passive_form(n, m, rng, degenerate=True)
            sys = from_passive_form(pf, s=random_unitary(m, rng))
            moved, transform, chain = passive_realize(sys)
            assert is_cascade_realizable(moved, tol=1e-8).is_triangular
            assert certify_symplectic(transform.v, tol=1e-9)
            assert certify_equivalence(sys, moved).verdict

    def test_exactly_repeated_mode_frequencies(self):
        # uncoupled modes sharing one frequency: M = -(i/4) R-tilde with a
        # doubly repeated eigenvalue, handled by plain Schur triangularization
        rng = np.random.default_rng(5)
        q = random_unitary(3, rng)
        r_tilde = q @ np.diag([4.0, 4.0, 6.0]) @ q.conj().T
        r_tilde = (r_tilde + r_tilde.conj().T) / 2.0
        pf = PassiveForm(r_tilde=r_tilde, k_tilde=np.zeros((1, 3), dtype=complex))
        sys = from_passive_form(pf, s=np.eye(1, dtype=complex))
        moved, transform, _ = passive_realize(sys)
        assert is_cascade_realizable(moved, tol=1e-8).is_triangular
        _, m_hat = schur_lower(mode_matrix(pf))
        assert multiset_distance(np.diag(m_hat), [-1.0j, -1.0j, -1.5j]) <= 1e-10

    def test_rejects_non_passive(self):
        sys = random_system(2, 2, 31)
        assert not is_passive(sys)
        with pytest.raises(NotPassive):
            passive_realize(sys)

    @pytest.mark.parametrize("parts", ["k", "r", "kr"])
    @pytest.mark.parametrize("c", [1e-8, 1.0, 1e8])
    @pytest.mark.parametrize("n, m, seed", [(1, 1, 0), (3, 2, 1), (5, 3, 2)])
    def test_near_passive_input_keeps_its_transfer_function(self, n, m, seed, c, parts):
        # passive only within a loose tol: what the reduction drops is
        # rotated along with the passive form, by U^T, so the transformed
        # system is the input's similarity, not its passive projection's
        unit = near_passive(n, m, seed, 5e-7, parts)
        sys = SlhSystem(s=unit.s, k=np.sqrt(c) * unit.k, r=c * unit.r)
        assert not is_passive(sys) and is_passive(sys, tol=1e-6)
        moved, transform, _ = passive_realize(sys, tol=1e-6)
        quad = transform_system(sys, transform.v)
        assert max_abs(moved.k - quad.k) <= 1e-13 * max_abs(quad.k)
        assert max_abs(moved.r - quad.r) <= 1e-13 * max_abs(quad.r)
        assert np.array_equal(moved.r, moved.r.T) and moved._defects[1] == 0.0
        report = certify_equivalence(sys, moved)
        assert report.verdict and report.max_rel_mismatch <= 1e-12

    def test_transformed_stage_couplings_match_rotated_mode_couplings(self, reference_system):
        # K' column pairs carry the per-stage couplings of the cascade
        moved, _, chain = passive_realize(reference_system)
        for j, stage in enumerate(chain.stages):
            assert np.array_equal(stage.k, moved.k[:, 2 * j : 2 * j + 2])


def exact_stage_cases():
    """Passive systems at scales from 1e-8 to 1e8 (R by c, K by sqrt(c)),
    with generic and degenerate spectra, with a defective mode matrix, and
    with no fields."""
    rng = np.random.default_rng(61)
    cases = []
    for c in (1e-8, 1e-4, 1.0, 1e4, 1e8):
        for degenerate in (False, True):
            n, m = int(rng.integers(2, 7)), int(rng.integers(1, 4))
            unit = random_passive_system(n, m, rng, degenerate=degenerate)
            system = SlhSystem(s=unit.s, k=np.sqrt(c) * unit.k, r=c * unit.r)
            cases.append(pytest.param(system, id=f"c{c:g}-n{n}-m{m}-degenerate{degenerate}"))
    for n in (2, 5):
        r_tilde, k_tilde = ref.defective_passive_form(n, random_unitary(n, rng))
        pf = PassiveForm(r_tilde=(r_tilde + r_tilde.conj().T) / 2, k_tilde=k_tilde)
        system = from_passive_form(pf, random_unitary(n, rng))
        cases.append(pytest.param(system, id=f"defective-n{n}"))
    cases.append(pytest.param(random_passive_system(4, 0, rng), id="no-fields"))
    return cases


def assert_exactly_passive(stages):
    """Each stage drops exactly nothing on reduction to annihilation
    variables, as split and as a fresh system judged at its own scale."""
    for stage in stages:
        assert stage._passivity[:2] == (0.0, 0.0)
        alone = SlhSystem(s=np.array(stage.s), k=np.array(stage.k), r=np.array(stage.r))
        assert alone._passivity[:2] == (0.0, 0.0)
        assert is_passive(alone, tol=0.0)


class TestExactStages:
    @pytest.mark.parametrize("sys", exact_stage_cases())
    def test_every_stage_is_exactly_passive(self, sys):
        moved, _, chain = passive_realize(sys)
        assert_exactly_passive(chain.stages)
        # each stage is its slice of the rotated form's expansion:
        # coupling (k'_j/2, i k'_j/2) and Hamiltonian (r'_jj/4) I
        form = to_passive_form(moved, tol=0.0)
        for j, stage in enumerate(chain.stages):
            k_j, r_jj = form.k_tilde[:, j], form.r_tilde[j, j]
            assert r_jj.imag == 0.0
            assert np.array_equal(stage.k, np.stack([k_j / 2, 1j * k_j / 2], axis=1))
            assert np.array_equal(stage.r, (r_jj.real / 4) * np.eye(2))

    @pytest.mark.parametrize("sys", exact_stage_cases())
    def test_exact_passivity_survives_the_document(self, sys):
        stages = passive_realize(sys).chain.stages
        text = RealizationDocument(input_digest="0", stages=stages).dumps()
        loaded = RealizationDocument.loads(text).stages
        assert_exactly_passive(loaded)
        for a, b in zip(stages, loaded):
            assert np.array_equal(a.k, b.k) and np.array_equal(a.r, b.r)
