"""Transfer-function evaluation, equivalence certification, symplectic
checks, and the certificate of a passive realization."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cascade_synth import (
    CascadeChain,
    PassiveForm,
    ResolventSingular,
    ScatteringMismatch,
    SlhSystem,
    SymplecticTransform,
    build_state_space,
    build_symplectic,
    ccr_preservation,
    certify_equivalence,
    certify_realization,
    certify_symplectic,
    from_passive_form,
    is_passive,
    max_abs,
    passive_realize,
    transfer_function,
)
from cascade_synth.sampling import (
    random_passive_form,
    random_passive_system,
    random_symplectic_orthogonal,
    random_system,
    random_unitary,
)
from cascade_synth import verification
from cascade_synth.verification import _evaluate, _lossless_coupling

import reference_data as ref

seeds = st.integers(0, 2**32 - 1)


def swap_blocks(m_fields):
    eye = np.eye(m_fields)
    zero = np.zeros((m_fields, m_fields))
    return np.block([[zero, eye], [eye, zero]])


def transform_system(sys, v):
    return SlhSystem(s=sys.s, k=sys.k @ v.T, r=v @ sys.r @ v.T)


class TestTransferFunction:
    def test_zero_coupling_gives_constant_scattering(self):
        s = random_unitary(3, 8)
        sys = SlhSystem(s=s, k=np.zeros((3, 4), dtype=complex), r=np.eye(4))
        ss = build_state_space(sys)
        from scipy.linalg import block_diag

        expected = block_diag(s, s.conj())
        for point in (1.0, 2.0 + 3.0j, 0.5 - 7.0j):
            assert max_abs(transfer_function(ss, [point])[0] - expected) == 0.0

    def test_large_frequency_approaches_direct_term(self):
        ss = build_state_space(random_system(3, 2, 12))
        assert max_abs(transfer_function(ss, [1e8])[0] - ss.d) <= 1e-4

    @given(st.integers(1, 4), st.integers(1, 3), seeds)
    @settings(max_examples=25, deadline=None)
    def test_conjugate_symmetry(self, n, m, seed):
        rng = np.random.default_rng(seed)
        ss = build_state_space(random_system(n, m, rng))
        s = complex(rng.uniform(0.5, 2.0), rng.uniform(-2.0, 2.0)) * max(
            1.0, max_abs(ss.a)
        )
        left = transfer_function(ss, [np.conj(s)])[0]
        right = transfer_function(ss, [s])[0]
        perm = swap_blocks(m)
        scale = max(1.0, max_abs(right))
        assert max_abs(left - perm @ right.conj() @ perm) <= 1e-10 * scale

    def test_zero_mode_system(self):
        ss = build_state_space(ref.identity_system(2))
        assert np.array_equal(transfer_function(ss, [1.0 + 1.0j])[0], np.eye(4))

    def test_rejects_frequency_on_spectrum(self):
        sys = SlhSystem(
            s=np.eye(1, dtype=complex),
            k=np.array([[1.0, 1.0j]]),
            r=np.zeros((2, 2)),
        )
        ss = build_state_space(sys)
        assert max_abs(ss.a + 2.0 * np.eye(2)) == 0.0
        with pytest.raises(ResolventSingular):
            transfer_function(ss, [-2.0])
        with pytest.raises(ResolventSingular, match=r"s = \(-2\+0j\)"):
            transfer_function(ss, [1.0, -2.0, -2.0 + 1e-9j])
        transfer_function(ss, [-2.0 + 1.0j])

    @pytest.mark.parametrize("c", [1e-8, 1.0, 1e8])
    def test_resolvent_margin_is_relative(self, c):
        # R scaled by c and K by sqrt(c) scale the drift and its spectrum by
        # c: a point refused or evaluated at one scale is so at every scale
        sys = random_system(3, 2, 14)
        ss = build_state_space(SlhSystem(s=sys.s, k=np.sqrt(c) * sys.k, r=c * sys.r))
        size = max_abs(ss.a)
        pole = np.linalg.eigvals(ss.a)[0]
        with pytest.raises(ResolventSingular):
            transfer_function(ss, [pole + 1e-13 * size])
        assert np.isfinite(transfer_function(ss, [pole + 1e-6 * size])).all()

    def test_zero_drift_refuses_only_its_spectrum(self):
        ss = build_state_space(SlhSystem(s=np.eye(1), k=np.zeros((1, 2)), r=np.zeros((2, 2))))
        assert max_abs(ss.a) == 0.0
        with pytest.raises(ResolventSingular, match=r"s = 0j"):
            transfer_function(ss, [0.0])
        assert np.array_equal(transfer_function(ss, [1e-300])[0], np.eye(2))

    def test_stack_matches_single_points(self):
        ss = build_state_space(random_system(3, 2, 12))
        points = [1.0 + 2.0j, 0.75, -0.5 + 3.0j, 1e3j]
        stack = transfer_function(ss, points)
        assert stack.shape == (4, 4, 4)
        for point, value in zip(points, stack):
            assert np.array_equal(transfer_function(ss, [point])[0], value)
        assert transfer_function(ss, []).shape == (0, 4, 4)

    def test_rejects_scalar_point(self):
        ss = build_state_space(random_system(2, 1, 3))
        with pytest.raises(ValueError):
            transfer_function(ss, 1.0 + 1.0j)

    @pytest.mark.parametrize("point", [np.nan, np.inf, -np.inf, complex(1.0, np.nan), 1e308j * 10])
    def test_rejects_non_finite_point(self, point):
        ss = build_state_space(random_system(2, 1, 3))
        with pytest.raises(ValueError, match="points must be finite"):
            transfer_function(ss, [1.0 + 2.0j, point])


class TestCertifyEquivalence:
    def test_system_equals_itself_exactly(self):
        sys = random_system(3, 2, 1)
        report = certify_equivalence(sys, sys)
        assert report.verdict
        assert report.max_rel_mismatch == 0.0
        assert report.samples_used == 20
        assert report.tolerance == 1e-8
        assert report.seed == 0

    @pytest.mark.parametrize("n, m", [(3, 2), (64, 4)])
    def test_passive_system_equals_itself_exactly(self, n, m):
        sys = random_passive_system(n, m, 1)
        report = certify_equivalence(sys, sys)
        assert report.verdict and report.max_rel_mismatch == 0.0

    def test_no_fields_is_vacuous_on_both_routes(self):
        # 0 x 0 transfer functions agree for any two systems with the same n
        pairs = {
            "passive": [random_passive_system(3, 0, seed) for seed in (1, 2)],
            "general": [random_system(3, 0, seed) for seed in (1, 2)],
        }
        for route, (a, b) in pairs.items():
            assert is_passive(a) is is_passive(b) is (route == "passive")
            report = certify_equivalence(a, b)
            assert report.verdict and report.vacuous
            assert report.max_rel_mismatch == 0.0
        for sys in (random_passive_system(3, 1, 1), random_system(3, 1, 1)):
            assert certify_equivalence(sys, sys).vacuous is False

    def test_pair_values_match_each_system(self):
        # the pair is evaluated in one stacked pass, bit for bit the values
        # of each system on its own
        rng = np.random.default_rng(4)
        points = rng.uniform(0.5, 2.0, 6) + 1j * rng.uniform(-2.0, 2.0, 6)
        for n, m in ((1, 1), (4, 2), (6, 4), (3, 0), (0, 2), (64, 4)):
            pair = [random_passive_system(n, m, seed) for seed in (n, n + 1)]
            values = _lossless_coupling(pair, points)
            for i, sys in enumerate(pair):
                assert values[i].tobytes() == _lossless_coupling([sys], points)[0].tobytes()

    def test_reference_against_printed_realization(self, reference_system):
        printed = SlhSystem(
            s=np.eye(2, dtype=complex), k=ref.K_PRIME, r=ref.R_PRIME
        )
        report = certify_equivalence(reference_system, printed, tol=1e-4)
        assert report.verdict
        assert report.max_rel_mismatch <= 1e-4

    @given(st.integers(1, 4), st.integers(1, 3), seeds)
    @settings(max_examples=20, deadline=None)
    def test_symplectic_rotation_preserves_transfer_function(self, n, m, seed):
        rng = np.random.default_rng(seed)
        sys = random_system(n, m, rng)
        v = random_symplectic_orthogonal(n, rng)
        report = certify_equivalence(sys, transform_system(sys, v))
        assert report.verdict

    def test_detects_perturbed_coupling(self):
        sys = random_system(2, 2, 3)
        bumped = SlhSystem(s=sys.s, k=1.01 * sys.k, r=sys.r)
        report = certify_equivalence(sys, bumped)
        assert not report.verdict
        assert report.max_rel_mismatch > 1e-4

    def test_verdict_is_threshold_on_mismatch(self):
        sys = random_system(2, 2, 3)
        bumped = SlhSystem(s=sys.s, k=(1.0 + 1e-7) * sys.k, r=sys.r)
        for tol in (1e-12, 1e-8, 1e-2):
            report = certify_equivalence(sys, bumped, tol=tol)
            assert report.verdict == (report.max_rel_mismatch <= tol)
            assert report.tolerance == tol

    def test_seed_changes_samples_not_verdict(self):
        sys = random_system(3, 2, 7)
        v = random_symplectic_orthogonal(3, 11)
        moved = transform_system(sys, v)
        reports = [certify_equivalence(sys, moved, seed=s) for s in (0, 1, 2)]
        assert all(r.verdict for r in reports)
        mismatches = {r.max_rel_mismatch for r in reports}
        assert len(mismatches) > 1  # different sample sets
        bumped = SlhSystem(s=sys.s, k=1.01 * sys.k, r=sys.r)
        assert not any(
            certify_equivalence(sys, bumped, seed=s).verdict for s in (0, 1, 2)
        )

    def test_reproducible_for_fixed_seed(self):
        sys = random_system(2, 1, 5)
        v = random_symplectic_orthogonal(2, 6)
        moved = transform_system(sys, v)
        r1 = certify_equivalence(sys, moved, seed=42)
        r2 = certify_equivalence(sys, moved, seed=42)
        assert r1.max_rel_mismatch == r2.max_rel_mismatch

    def test_sample_count_respected(self):
        sys = random_system(1, 1, 9)
        report = certify_equivalence(sys, sys, n_samples=7)
        assert report.samples_used == 7

    @pytest.mark.parametrize("n_samples", [0, -1])
    def test_no_samples_rejected(self, n_samples):
        sys = random_system(2, 2, 3)
        bumped = SlhSystem(s=sys.s, k=1.01 * sys.k, r=sys.r)
        with pytest.raises(ValueError, match="n_samples"):
            certify_equivalence(sys, bumped, n_samples=n_samples)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            certify_equivalence(random_system(1, 1, 0), random_system(2, 1, 0))
        with pytest.raises(ValueError):
            certify_equivalence(random_system(1, 1, 0), random_system(1, 2, 0))

    def test_scattering_mismatch_rejected(self):
        sys = random_system(1, 2, 0)
        other = SlhSystem(s=-sys.s, k=sys.k, r=sys.r)
        with pytest.raises(ScatteringMismatch):
            certify_equivalence(sys, other)

    @pytest.mark.parametrize("tol", [-1.0, math.nan, math.inf])
    def test_tolerance_must_be_finite_and_non_negative(self, tol):
        # a negative tolerance refuses identical systems, a NaN one
        # certifies nothing and an infinite one everything
        for sys in (random_passive_system(3, 2, 1), random_system(3, 2, 1)):
            with pytest.raises(ValueError, match="tol must be a finite number at least 0"):
                certify_equivalence(sys, sys, tol=tol)


def scaled_form(pf, c):
    """pf with R_tilde scaled by c and K_tilde by sqrt(c)."""
    return PassiveForm(r_tilde=c * pf.r_tilde, k_tilde=np.sqrt(c) * pf.k_tilde)


def scaled_passive(seed, c, s):
    """A passive 6-mode system with R_tilde scaled by c and K_tilde by sqrt(c)."""
    return from_passive_form(scaled_form(random_passive_form(6, 3, seed), c), s)


def cayley(f, s):
    """G_- = (2I - F)(2I + F)^{-1} S for a stack f of F(s), as 4 (2I + F)^{-1} S - S."""
    return 4.0 * np.linalg.solve(f + 2.0 * np.eye(s.shape[0]), np.broadcast_to(s, f.shape)) - s


def passive_route_values(sys, points):
    """The doubled-up G that the passive route's F gives, diag(G_-(s), G_-(conj s)^#)."""
    both = np.concatenate([points, points.conj()])
    f = _lossless_coupling([sys], both)[0]
    minus = cayley(f, sys.s).reshape(2, len(points), sys.m, sys.m)
    values = np.zeros((len(points), 2 * sys.m, 2 * sys.m), dtype=complex)
    values[:, : sys.m, : sys.m] = minus[0]
    values[:, sys.m :, sys.m :] = minus[1].conj()
    return values


class TestCertificationRoutes:
    @pytest.mark.parametrize("c", [1e-12, 1e-10, 1e-9])
    def test_different_systems_differ_at_small_scale(self, c):
        # the samples must sit among the poles, which shrink with c
        s = random_unitary(3, 100)
        report = certify_equivalence(scaled_passive(0, c, s), scaled_passive(1, c, s))
        assert not report.verdict
        assert report.max_rel_mismatch > 0.1

    def test_small_non_passive_part_takes_the_general_route(self):
        sys = scaled_passive(0, 1e-9, random_unitary(3, 100))
        r = np.array(sys.r)
        bump = 0.1 * max_abs(r)
        r[0, 0] += bump
        r[1, 1] -= bump
        bumped = SlhSystem(s=sys.s, k=sys.k, r=r)
        assert not is_passive(bumped, 1e-9)  # the bump is 10% of the drift scale
        # the passive route would drop the bump and certify the pair
        report = certify_equivalence(sys, bumped)
        assert not report.verdict

    @pytest.mark.parametrize("n, m, seed", [(n, 1 + n % 3, n) for n in range(1, 7)] + [(64, 4, 64)])
    def test_passive_route_matches_doubled_state_space(self, n, m, seed):
        rng = np.random.default_rng(seed)
        sys = random_passive_system(n, m, rng)
        ss = build_state_space(sys)
        points = max_abs(ss.a) * (rng.uniform(0.5, 2.0, 5) + 1j * rng.uniform(-2.0, 2.0, 5))
        values = passive_route_values(sys, points)
        for point, value in zip(points, values):
            oracle = transfer_function(ss, [point])[0]
            assert max_abs(value - oracle) <= 1e-12 * max_abs(oracle)

    @pytest.mark.parametrize("n, m", [(0, 0), (0, 2), (2, 0), (3, 0)])
    def test_empty_dimensions(self, n, m):
        rng = np.random.default_rng(7)
        s = random_unitary(m, rng) if m else np.zeros((0, 0), dtype=complex)
        passive = from_passive_form(random_passive_form(n, m, rng), s)
        general = SlhSystem(s=s, k=np.zeros((m, 2 * n), dtype=complex), r=random_system(n, 1, rng).r)
        for a, b in ((passive, passive), (general, general), (passive, general)):
            report = certify_equivalence(a, b, n_samples=5)
            assert report.verdict and report.max_rel_mismatch == 0.0
            assert report.samples_used == 5


def doubled_oracle(sys, points):
    """The doubled-up G(s) = Cd (sI - A)^{-1} B + Dd of a system, built
    densely from the loop-built Theta and solved one point at a time:
    A = 2 Theta (R + Im(K^dag K)), B = 2i Theta [-K^dag S, K^T S^#],
    Cd = [K; K^#], Dd = diag(S, S^#)."""
    from scipy.linalg import block_diag

    th = ref.symplectic_form(sys.n)
    k, s = sys.k, sys.s
    a = 2.0 * th @ (sys.r + np.imag(k.conj().T @ k))
    b = 2j * th @ np.hstack([-k.conj().T @ s, k.T @ s.conj()])
    c = np.vstack([k, k.conj()])
    d = block_diag(s, s.conj())
    eye = np.eye(2 * sys.n)
    return np.array([c @ np.linalg.solve(p * eye - a, b) + d for p in points])


def certified_samples(pair, n_samples=20, seed=0):
    """The sample points certify_equivalence draws for pair."""
    scale = max(x._drift[1] for x in pair) or 1.0
    return verification._draw(np.random.default_rng(seed), n_samples, scale)


def realized_pairs():
    """(input, transformed system) of passive realizations: n = 1..6, one to
    four fields, generic and degenerate spectra, a defective mode matrix,
    at scales from 1e-8 to 1e8."""
    rng = np.random.default_rng(71)
    systems = [random_passive_system(n, 1 + n % 4, rng, degenerate=n % 3 == 0) for n in range(1, 7)]
    r_tilde, k_tilde = ref.defective_passive_form(3, random_unitary(3, rng))
    pf = PassiveForm(r_tilde=(r_tilde + r_tilde.conj().T) / 2, k_tilde=k_tilde)
    systems.append(from_passive_form(pf, random_unitary(3, rng)))
    for c in (1e-8, 1e8):
        systems.append(scaled_passive(int(rng.integers(100)), c, random_unitary(3, rng)))
    return [(sys, passive_realize(sys).system) for sys in systems]


def perturbed(target, where, size=1e-6, j=None):
    """target with one stage coupling, or one R_tilde entry, moved by size
    relative, on stage j, by default the stage with the largest coupling:
    column j of K_tilde scaled by 1 + size, or R_tilde[j, j] moved by
    size |R_tilde|_max."""
    pf = target._reduction
    k_tilde, r_tilde = np.array(pf.k_tilde), np.array(pf.r_tilde)
    if j is None:
        j = np.argmax(np.linalg.norm(k_tilde, axis=0))
    if where == "stage":
        k_tilde[:, j] *= 1.0 + size
    else:
        r_tilde[j, j] += size * max_abs(r_tilde)
    return from_passive_form(PassiveForm(r_tilde=r_tilde, k_tilde=k_tilde), target.s)


def scaled(sys, c):
    """sys with R scaled by c and K by sqrt(c)."""
    return SlhSystem(s=sys.s, k=np.sqrt(c) * sys.k, r=c * sys.r)


def pair_bound(pair):
    """max |F1 - F2|_F + |S1 - S2|_F over the certificate's samples and their
    conjugates."""
    points = certified_samples(pair)
    f = _lossless_coupling(pair, np.concatenate([points, points.conj()]))
    return np.linalg.norm(f[0] - f[1], axis=(-2, -1)).max() + np.linalg.norm(pair[0].s - pair[1].s)


class TestPassivePairBound:
    """The passive route reports max |F1 - F2|_F + |S1 - S2|_F over the
    samples and their conjugates, a bound on |G1 - G2|_max there, with no
    solve when it is at most tol, and measures |G1 - G2|_max otherwise."""

    @pytest.mark.parametrize("where", [None, "stage", "r_tilde"])
    def test_bound_covers_dense_oracle(self, where):
        # the mismatch reported, the bound or the measure, is at least the
        # dense doubled-up mismatch at the certificate's own samples; an
        # equivalent pair certifies, and one whose stage coupling or R_tilde
        # entry moved by 1e-6 fails
        for sys, target in realized_pairs():
            other = target if where is None else perturbed(target, where)
            pair = (sys, other)
            assert all(verification._in_annihilation_variables(x, 1e-10) for x in pair)
            report = certify_equivalence(*pair)
            points = certified_samples(pair)
            oracle = max_abs(doubled_oracle(sys, points) - doubled_oracle(other, points))
            assert report.max_rel_mismatch >= oracle - 1e-13
            assert report.verdict is (where is None)
            if where is None:
                assert report.max_rel_mismatch <= 1e-13
            else:
                assert oracle > report.tolerance

    @pytest.mark.parametrize("c", [1e-8, 1.0, 1e8])
    def test_scaling_keeps_verdict_and_bound(self, c):
        # (cR, sqrt(c) K) scales the drift and the samples by c, where F is
        # unchanged
        for sys, target in realized_pairs()[:4]:
            for pair in ((sys, target), (sys, perturbed(target, "stage"))):
                base = certify_equivalence(*pair)
                report = certify_equivalence(*(scaled(x, c) for x in pair))
                assert report.verdict is base.verdict
                assert abs(report.max_rel_mismatch - base.max_rel_mismatch) <= 1e-13

    def test_unitary_change_of_mode_basis_keeps_verdict(self):
        rng = np.random.default_rng(72)
        for sys, target in realized_pairs():
            v = build_symplectic(random_unitary(sys.n, rng)).v
            for other in (target, perturbed(target, "r_tilde")):
                base = certify_equivalence(sys, other)
                assert certify_equivalence(transform_system(sys, v), other).verdict is base.verdict
                assert certify_equivalence(sys, transform_system(other, v)).verdict is base.verdict

    def test_passive_route_solves_nothing(self, monkeypatch):
        sys, target = realized_pairs()[3]
        general = random_system(3, 2, 73)
        moved = transform_system(general, random_symplectic_orthogonal(3, 74))

        def refused(*args, **kwargs):
            raise AssertionError("np.linalg.solve called")

        monkeypatch.setattr(verification.np.linalg, "solve", refused)
        assert certify_equivalence(sys, target).verdict
        # a pair the bound cannot certify is measured, as is a general pair
        with pytest.raises(AssertionError, match="solve called"):
            certify_equivalence(sys, perturbed(target, "stage"))
        with pytest.raises(AssertionError, match="solve called"):
            certify_equivalence(general, moved)

    @pytest.mark.parametrize(
        "index, where, size, j",
        [
            (0, "r_tilde", 1e-7, 0),
            (2, "stage", 3e-8, 2),
            (6, "r_tilde", 1e-7, 0),
            (7, "r_tilde", 3e-8, 5),
        ],
    )
    def test_pair_agreeing_to_tol_certifies(self, index, where, size, j):
        # the pair differs by between tol/20 and tol, but its bound exceeds
        # tol: the route measures G, reports the dense oracle's mismatch and
        # certifies the pair
        sys, target = realized_pairs()[index]
        pair = (sys, perturbed(target, where, size, j))
        report = certify_equivalence(*pair)
        points = certified_samples(pair)
        oracle = max_abs(doubled_oracle(pair[0], points) - doubled_oracle(pair[1], points))
        assert report.tolerance / 20 < oracle < report.tolerance < pair_bound(pair)
        assert report.verdict
        assert abs(report.max_rel_mismatch - oracle) <= 1e-13


def coupling_oracle(pf, points):
    """F(s) = k_tilde (sI + (i/2) r_tilde)^{-1} k_tilde^dag one point at a
    time, with dense 2-d solves."""
    k_tilde, k_dag = pf.k_tilde, pf.k_tilde.conj().T
    eye = np.eye(pf.n)
    return np.array([k_tilde @ np.linalg.solve(p * eye + 0.5j * pf.r_tilde, k_dag) for p in points])


class TestPassiveKernel:
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5, 6, 64])
    @pytest.mark.parametrize("m", [0, 1, 2, 3, 4])
    def test_matches_loop_oracle(self, n, m):
        # at every scale, with repeated eigenvalues of R_tilde and without;
        # F is scale-invariant at the scaled samples, so the bound is
        # relative to max(1, |F|_max) at every scale
        rng = np.random.default_rng(10 * n + m)
        for c in (1e-8, 1e-4, 1.0, 1e4, 1e8):
            for degenerate in (False, True):
                pf = scaled_form(random_passive_form(n, m, rng, degenerate=degenerate), c)
                sys = from_passive_form(pf, random_unitary(m, rng))
                points = verification._draw(rng, 6, sys._drift[1] or 1.0)
                points = np.concatenate([points, points.conj()])
                values = _lossless_coupling([sys], points)[0]
                assert values.shape == (12, m, m)
                oracle = coupling_oracle(pf, points)
                assert max_abs(values - oracle) <= 1e-12 * max(1.0, max_abs(oracle))

    @given(st.integers(0, 6), st.integers(1, 4), seeds, st.floats(-8.0, 8.0))
    @settings(max_examples=40, deadline=None)
    def test_bounded_real(self, n, m, seed, log_c):
        # F is positive-real wherever Re s > 0: F + F^dag is positive
        # semidefinite, so |(2I + F)^{-1}|_2 <= 1/2 and its Cayley transform
        # G_- is bounded-real, |G_-(s)|_2 <= 1, the premises of the bound
        # the passive route reports
        rng = np.random.default_rng(seed)
        c = 10.0**log_c
        pf = scaled_form(random_passive_form(n, m, rng), c)
        sys = from_passive_form(pf, random_unitary(m, rng))
        sigma = 10.0 ** rng.uniform(-3.0, 1.0, 16)
        points = c * (sigma + 1j * rng.uniform(-4.0, 4.0, 16))
        f = _lossless_coupling([sys], points)[0]
        hermitian = f + f.conj().swapaxes(1, 2)
        size = np.linalg.norm(f, 2, axis=(1, 2))
        assert (np.linalg.eigvalsh(hermitian).min(axis=1, initial=0.0) >= -1e-12 * size).all()
        inverse = np.linalg.inv(f + 2.0 * np.eye(m))
        assert np.linalg.norm(inverse, 2, axis=(1, 2)).max() <= 0.5 + 1e-12
        assert np.linalg.norm(cayley(f, sys.s), 2, axis=(1, 2)).max() <= 1.0 + 1e-12


def evaluate_oracle(a, b, c, d, points):
    """c (sI - a)^{-1} b + d one point at a time, with 2-d solves."""
    eye = np.eye(a.shape[0])
    return np.array([c @ np.linalg.solve(s * eye - a, b) + d for s in points])


def random_space(rng, nn, p, q):
    def cplx(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    return cplx(nn, nn), cplx(nn, q), cplx(p, nn), cplx(p, q)


class TestEvaluateKernel:
    @pytest.fixture
    def solves(self, monkeypatch):
        """Record the shapes of (sI - a, b) of every solve the kernel runs."""
        shapes = []
        solve = np.linalg.solve

        def recording(a, b):
            shapes.append((a.shape, b.shape))
            return solve(a, b)

        monkeypatch.setattr(verification.np.linalg, "solve", recording)
        return shapes

    @pytest.mark.parametrize("nn, p, q", [(3, 2, 2), (4, 4, 4), (6, 2, 3)])
    def test_matches_loop_oracle_with_as_many_points_as_states(self, solves, nn, p, q):
        # with k == nn a 2-d b against a 3-d a is ambiguous before NumPy 2.0
        rng = np.random.default_rng(nn)
        points = 3.0 + rng.standard_normal(nn) + 1j * rng.standard_normal(nn)
        one = random_space(rng, nn, p, q)
        other = random_space(rng, nn, p, q)
        single = _evaluate(*one, points)
        pair = _evaluate(*(np.array(mats) for mats in zip(one, other)), points)
        oracle = evaluate_oracle(*one, points)
        assert single.shape == (nn, p, q) and pair.shape == (2, nn, p, q)
        assert max_abs(single - oracle) <= 1e-12 * max_abs(oracle)
        assert np.array_equal(pair[0], single)
        assert max_abs(pair[1] - evaluate_oracle(*other, points)) <= 1e-12 * max_abs(oracle)
        assert all(len(a) == len(b) for a, b in solves)

    def test_pair_counts_against_stack_entries(self, solves, monkeypatch):
        monkeypatch.setattr(verification, "STACK_ENTRIES", 64)
        rng = np.random.default_rng(5)
        spaces = [random_space(rng, 4, 2, 2) for _ in range(2)]
        points = 2.0 + 1j * rng.standard_normal(7)
        pair = _evaluate(*(np.array(mats) for mats in zip(*spaces)), points)
        assert [a for a, _ in solves] == [(2, 2, 4, 4)] * 3 + [(2, 1, 4, 4)]
        for value, space in zip(pair, spaces):
            assert max_abs(value - evaluate_oracle(*space, points)) <= 1e-12 * max_abs(value)


class TestCertifySymplectic:
    def test_identity_and_reference(self):
        assert certify_symplectic(np.eye(4))
        assert certify_symplectic(ref.V_REF, tol=1e-3)

    def test_non_orthogonal_symplectic_accepted(self):
        # squeeze map: symplectic but not orthogonal
        assert certify_symplectic(np.diag([2.0, 0.5]))

    def test_scaling_rejected(self):
        assert not certify_symplectic(2.0 * np.eye(2))

    def test_input_validation(self):
        # V is checked once, by SymplecticTransform
        with pytest.raises(ValueError, match="even dimension"):
            certify_symplectic(np.eye(3))
        with pytest.raises(ValueError):
            certify_symplectic(np.zeros((2, 4)))
        with pytest.raises(ValueError):
            certify_symplectic(np.eye(2, dtype=complex))

    def test_random_embedded_unitaries(self):
        rng = np.random.default_rng(31)
        for _ in range(25):
            n = int(rng.integers(1, 6))
            assert certify_symplectic(random_symplectic_orthogonal(n, rng), tol=1e-10)


class TestCcrPreservation:
    def test_identity_preserves_exactly(self):
        assert ccr_preservation(SymplecticTransform(v=np.eye(6))) == 0.0

    def test_scaling_residual_value(self):
        assert ccr_preservation(SymplecticTransform(v=2.0 * np.eye(2))) == 3.0

    @pytest.mark.parametrize("n", [0, 1, 2, 5, 40])
    def test_matches_dense_oracle(self, n):
        # against the product with the loop-built Theta: a general real V,
        # and a squeezed rotation, symplectic but not orthogonal, bent by
        # 1e-6 so that its residual is small and not rounding
        rng = np.random.default_rng(n)
        squeeze = np.repeat(rng.uniform(0.5, 2.0, n), 2) ** np.tile([1.0, -1.0], n)
        symplectic = random_symplectic_orthogonal(n, rng) * squeeze
        th = ref.symplectic_form(n)
        for v in (rng.standard_normal((2 * n, 2 * n)), symplectic + 1e-6 * np.eye(2 * n)):
            oracle = max_abs(v @ th @ v.T - th)
            residual = ccr_preservation(SymplecticTransform(v=v))
            assert abs(residual - oracle) <= 1e-14 * max(1.0, max_abs(v) ** 2)
            assert n == 0 or residual > 0.0
        assert ccr_preservation(SymplecticTransform(v=symplectic)) <= 1e-14

    @given(st.integers(1, 6), seeds)
    @settings(max_examples=25, deadline=None)
    def test_embedded_unitaries_small_residual(self, n, seed):
        transform = build_symplectic(random_unitary(n, seed))
        assert ccr_preservation(transform) <= 1e-12


class TestSimilarityCovariance:
    @given(st.integers(1, 4), st.integers(1, 3), seeds)
    @settings(max_examples=25, deadline=None)
    def test_state_space_transforms_covariantly(self, n, m, seed):
        rng = np.random.default_rng(seed)
        sys = random_system(n, m, rng)
        v = random_symplectic_orthogonal(n, rng)
        ss = build_state_space(sys)
        ss2 = build_state_space(transform_system(sys, v))
        scale = max(1.0, max_abs(ss.a))
        assert max_abs(ss2.a - v @ ss.a @ v.T) <= 1e-9 * scale
        assert max_abs(ss2.b - v @ ss.b) <= 1e-9 * max(1.0, max_abs(ss.b))
        assert max_abs(ss2.c - ss.c @ v.T) <= 1e-12 * max(1.0, max_abs(ss.c))
        assert np.array_equal(ss2.d, ss.d)


class TestCertifyRealization:
    """One certificate of a passive realization: its fields are the reports
    of a passive-realize document, and failed names the checks that fail."""

    @staticmethod
    def certified(n=4, m=2, seed=5, tol=1e-9):
        system = random_passive_system(n, m, seed)
        realization = passive_realize(system, tol)
        return system, realization, certify_realization(system, realization, tol)

    def test_a_realization_passes_every_check(self):
        system, realization, certificate = self.certified()
        names = [f.name for f in dataclasses.fields(certificate)]
        assert names == [
            "triangularity",
            "symplectic_residual",
            "equivalence",
            "stages_passive",
            "chain_residual",
        ]
        assert certificate.failed == ()
        assert certificate.triangularity.tolerance_used == 1e-9
        assert certificate.symplectic_residual == ccr_preservation(realization.transform)
        assert certificate.equivalence == certify_equivalence(system, realization.system)
        assert certificate.stages_passive is True
        assert 0.0 <= certificate.chain_residual <= 1e-9

    @pytest.mark.parametrize(
        "scale_k, tilt, failed",
        [(1.01, 0.0, ("chain_residual",)), (1.0, 1e-3, ("stages_passive", "chain_residual"))],
    )
    def test_a_perturbed_stage_is_named(self, scale_k, tilt, failed):
        # a stage that no longer cascades to the realized system, and one
        # that is also no longer passive
        system, realization, _ = self.certified()
        first, *rest = realization.chain.stages
        bent = SlhSystem(s=first.s, k=scale_k * first.k, r=first.r + np.diag([tilt, 0.0]))
        chain = CascadeChain(stages=(bent, *rest))
        certificate = certify_realization(system, realization._replace(chain=chain))
        assert certificate.failed == failed

    @pytest.mark.parametrize("name", ["symplectic_residual", "chain_residual"])
    @pytest.mark.parametrize("value", [math.nan, 1e-8])
    def test_residuals_are_bounded_by_the_structural_tolerance(self, name, value):
        # a NaN residual fails, and a residual above the tolerance fails
        _, _, certificate = self.certified()
        assert dataclasses.replace(certificate, **{name: value}).failed == (name,)
        _, _, loose = self.certified(tol=1e-6)
        assert dataclasses.replace(loose, **{name: 1e-8}).failed == ()

    def test_verdicts_are_named(self):
        _, _, certificate = self.certified()
        untriangular = dataclasses.replace(certificate.triangularity, is_triangular=False)
        unequal = dataclasses.replace(certificate.equivalence, verdict=False)
        changed = dataclasses.replace(
            certificate, triangularity=untriangular, equivalence=unequal, stages_passive=False
        )
        assert changed.failed == ("triangularity", "equivalence", "stages_passive")
