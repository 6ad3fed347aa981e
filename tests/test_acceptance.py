"""Acceptance gate: every criterion prints one pass/fail line and asserts.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines; each test computes its verdict first, prints it, then asserts, so a
red run still reports every criterion it reached.
"""

import time

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from cascade_synth import (
    CascadeChain,
    SlhSystem,
    build_state_space,
    build_symplectic,
    cascade,
    certify_equivalence,
    certify_symplectic,
    decompose_cascade,
    from_passive_form,
    is_cascade_realizable,
    is_passive,
    max_abs,
    mode_matrix,
    one_mode_stages,
    passive_realize,
    residual_interaction,
    schur_lower,
    to_passive_form,
)
from cascade_synth.sampling import (
    random_chain,
    random_passive_form,
    random_system,
    random_unitary,
)

import reference_data as ref


def timed(fn, repeats=5):
    """Best-of-N wall time in seconds, after one warmup call."""
    fn()
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return result, best


def multiset_distance(a, b):
    a = np.asarray(a, dtype=complex).ravel()
    b = np.asarray(b, dtype=complex).ravel()
    cost = np.abs(a[:, None] - b[None, :])
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].max())


def report(num, ok, detail):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


class TestAcceptance:
    def test_criterion_1_forward_map_exact(self, reference_passive_form):
        build = lambda: from_passive_form(
            reference_passive_form, s=np.eye(2, dtype=complex)
        )
        sys, seconds = timed(build)
        k_err = max_abs(sys.k - ref.K_EXACT)
        r_err = max_abs(sys.r - ref.R_EXACT)
        ok = k_err <= 1e-12 and r_err <= 1e-12 and seconds < 1e-3
        report(
            1,
            ok,
            f"|K - K_ref| = {k_err:.1e}, |R - R_ref| = {r_err:.1e} "
            f"(tol 1e-12), runtime {seconds * 1e6:.1f} us (< 1 ms)",
        )

    def test_criterion_2_mode_spectrum(self, reference_passive_form):
        compute = lambda: schur_lower(mode_matrix(reference_passive_form))
        (_, m_hat), seconds = timed(compute)
        dist = multiset_distance(np.diag(m_hat), ref.MODE_EIGENVALUES)
        ok = dist <= 1e-3 and seconds < 1e-2
        report(
            2,
            ok,
            f"diag(M_hat) multiset distance = {dist:.2e} (tol 1e-3), "
            f"runtime {seconds * 1e3:.2f} ms (< 10 ms)",
        )

    def test_criterion_3_seeded_transform(self, reference_system):
        v = build_symplectic(ref.U_REF, tol_unitary=1e-3).v
        v_err = max_abs(v - ref.V_REF)
        k_err = max_abs(reference_system.k @ v.T - ref.K_PRIME)
        r_err = max_abs(v @ reference_system.r @ v.T - ref.R_PRIME)
        ok = v_err <= 1e-3 and k_err <= 1e-3 and r_err <= 1e-3
        report(
            3,
            ok,
            f"|V - V_ref| = {v_err:.1e}, |K' - K'_ref| = {k_err:.1e}, "
            f"|R' - R'_ref| = {r_err:.1e} (tol 1e-3)",
        )

    def test_criterion_4_computed_transform(self, reference_system):
        run = lambda: passive_realize(reference_system)
        realization, realize_seconds = timed(run)
        check = lambda: certify_equivalence(
            reference_system, realization.system, n_samples=20, tol=1e-8
        )
        equivalence, verify_seconds = timed(check)
        seconds = realize_seconds + verify_seconds
        triangularity = is_cascade_realizable(realization.system)
        upper = triangularity.max_upper_residual
        v = realization.transform.v
        symplectic_ok = certify_symplectic(v, tol=1e-9)
        orthogonal_err = max_abs(v @ v.T - np.eye(4))
        levels = [stage.r[0, 0] for stage in realization.chain.stages]
        level_dist = multiset_distance(levels, ref.STAGE_LEVELS)
        ok = (
            upper <= 1e-8
            and symplectic_ok
            and orthogonal_err <= 1e-9
            and equivalence.verdict
            and equivalence.samples_used == 20
            and level_dist <= 1e-3
            and seconds < 0.1
        )
        report(
            4,
            ok,
            f"upper residual = {upper:.1e} (<= 1e-8), symplectic = "
            f"{symplectic_ok}, |VV^T - I| = {orthogonal_err:.1e} (<= 1e-9), "
            f"equivalence mismatch = {equivalence.max_rel_mismatch:.1e} "
            f"(verdict {equivalence.verdict}), stage levels off by "
            f"{level_dist:.2e} (tol 1e-3), runtime {seconds * 1e3:.1f} ms (< 100 ms)",
        )

    def test_criterion_5_chain_roundtrip(self):
        rng = np.random.default_rng(2024)
        worst_roundtrip = 0.0
        worst_residual = 0.0
        for _ in range(200):
            n = int(rng.integers(1, 7))
            m = int(rng.integers(1, 5))
            combined = cascade(random_chain(n, m, rng))
            triangularity = is_cascade_realizable(combined, tol=1e-12)
            worst_residual = max(worst_residual, triangularity.max_upper_residual)
            rebuilt = cascade(decompose_cascade(combined))
            worst_roundtrip = max(
                worst_roundtrip,
                max_abs(rebuilt.s - combined.s),
                max_abs(rebuilt.k - combined.k),
                max_abs(rebuilt.r - combined.r),
            )
        ok = worst_roundtrip <= 1e-10 and worst_residual <= 1e-12
        report(
            5,
            ok,
            f"200 chains: worst roundtrip error = {worst_roundtrip:.1e} "
            f"(tol 1e-10), worst upper residual = {worst_residual:.1e} (tol 1e-12)",
        )

    def test_criterion_6_reconstruction(self):
        rng = np.random.default_rng(603)
        worst = 0.0
        for _ in range(200):
            n = int(rng.integers(1, 7))
            m = int(rng.integers(1, 5))
            sys = random_system(n, m, rng)
            chain = CascadeChain(
                stages=one_mode_stages(sys), residual_r=residual_interaction(sys)
            )
            rebuilt = cascade(chain)
            worst = max(
                worst,
                max_abs(rebuilt.s - sys.s),
                max_abs(rebuilt.k - sys.k),
                max_abs(rebuilt.r - sys.r),
            )
        ok = worst <= 1e-10
        report(
            6,
            ok,
            f"200 systems: worst reconstruction error = {worst:.1e} (tol 1e-10)",
        )

    def test_criterion_7_passive_suite(self):
        rng = np.random.default_rng(700)
        t0 = time.perf_counter()
        worst_mismatch = 0.0
        failures = []
        degenerate_count = 0
        for i in range(200):
            n = int(rng.integers(1, 6))
            m = int(rng.integers(1, 5))
            degenerate = i % 5 == 0  # 20% of cases repeat mode frequencies
            degenerate_count += degenerate
            pf = random_passive_form(n, m, rng, degenerate=degenerate)
            sys = from_passive_form(pf, s=random_unitary(m, rng))
            realization = passive_realize(sys)
            if not all(is_passive(stage) for stage in realization.chain.stages):
                failures.append(f"case {i}: non-passive stage")
            equivalence = certify_equivalence(
                sys, realization.system, n_samples=20, tol=1e-8
            )
            worst_mismatch = max(worst_mismatch, equivalence.max_rel_mismatch)
            if not equivalence.verdict:
                failures.append(f"case {i}: mismatch {equivalence.max_rel_mismatch:.1e}")
        seconds = time.perf_counter() - t0
        ok = not failures and worst_mismatch <= 1e-8 and seconds < 30.0
        report(
            7,
            ok,
            f"200 passive systems ({degenerate_count} degenerate): "
            f"{len(failures)} failures, worst transfer mismatch = "
            f"{worst_mismatch:.1e} (tol 1e-8), runtime {seconds:.1f} s (< 30 s)",
        )

    def test_criterion_8_similarity_covariance(self):
        rng = np.random.default_rng(811)
        worst = 0.0
        for _ in range(100):
            n = int(rng.integers(1, 6))
            m = int(rng.integers(1, 5))
            sys = random_system(n, m, rng)
            v = build_symplectic(random_unitary(n, rng)).v
            moved = SlhSystem(s=sys.s, k=sys.k @ v.T, r=v @ sys.r @ v.T)
            ss = build_state_space(sys)
            ss2 = build_state_space(moved)
            worst = max(
                worst,
                max_abs(ss2.a - v @ ss.a @ v.T),
                max_abs(ss2.b - v @ ss.b),
                max_abs(ss2.c - ss.c @ v.T),
            )
        ok = worst <= 1e-9
        report(
            8,
            ok,
            f"100 transforms: worst covariance residual = {worst:.1e} (tol 1e-9)",
        )
