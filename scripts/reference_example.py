"""
reference_example.py

End-to-end walkthrough of the passive cascade synthesis pipeline on a small
two-mode, two-field system given in annihilation variables.  The script
expands the passive form to quadrature coordinates, shows that the system is
not cascade realizable as given, constructs the symplectic change of
variables from the lower-triangular Schur decomposition of the mode matrix,
and certifies the resulting cascade: triangularity of the transformed drift,
symplecticity of the transform, per-stage passivity, and transfer-function
equivalence with the original system.

Run as a script; it prints every intermediate artifact.  The same calls work
from an interactive session for poking at individual pieces.
"""

import numpy as np

from cascade_synth import (
    PassiveForm,
    build_state_space,
    build_symplectic,
    cascade,
    ccr_preservation,
    certify_equivalence,
    drift_matrix,
    from_passive_form,
    is_cascade_realizable,
    is_passive,
    max_abs,
    mode_matrix,
    passive_realize,
    schur_lower,
    to_passive_form,
    transfer_function,
)


def main():
    np.set_printoptions(precision=4, suppress=True, linewidth=100)

    # Hermitian Hamiltonian matrix and coupling in annihilation variables
    r_tilde = np.array([[2.0, 1.0 + 1.0j], [1.0 - 1.0j, 3.0]])
    k_tilde = np.array([[1.0 + 0.5j, -2.0 + 1.0j], [-5.0 - 2.0j, 3.0 - 4.0j]])
    pf = PassiveForm(r_tilde=r_tilde, k_tilde=k_tilde)

    print("== input (annihilation variables) ==")
    print("R_tilde =\n", r_tilde)
    print("K_tilde =\n", k_tilde)

    sys = from_passive_form(pf, s=np.eye(2, dtype=complex))
    print("\n== quadrature expansion ==")
    print("K =\n", sys.k)
    print("R =\n", sys.r)
    print("is_passive:", is_passive(sys))
    print("offset c = trace(R_tilde)/4 =", to_passive_form(sys).offset)

    report = is_cascade_realizable(sys)
    print("\n== realizability in the given coordinates ==")
    print("drift A =\n", drift_matrix(sys))
    print(
        f"triangular: {report.is_triangular} "
        f"(max upper-block residual {report.max_upper_residual:.4f})"
    )

    m_mat = mode_matrix(pf)
    u, m_hat = schur_lower(m_mat)
    print("\n== mode-space reduction ==")
    print("M =\n", m_mat)
    print("M_hat (lower triangular) =\n", m_hat)
    print("mode eigenvalues:", np.diag(m_hat))

    transform = build_symplectic(u)
    print("\n== symplectic transform ==")
    print("V =\n", transform.v)
    print(f"CCR residual |V Theta V^T - Theta| = {ccr_preservation(transform):.2e}")

    moved, _, chain = passive_realize(sys)
    print("\n== transformed system ==")
    print("K' =\n", moved.k)
    print("R' =\n", moved.r)
    after = is_cascade_realizable(moved)
    print(
        f"triangular: {after.is_triangular} "
        f"(max upper-block residual {after.max_upper_residual:.2e})"
    )

    print("\n== cascade stages (input end first) ==")
    for j, stage in enumerate(chain.stages):
        print(f"stage {j}: K_{j} =", stage.k.ravel(), " level =", stage.r[0, 0])
        print(f"         passive: {is_passive(stage)}")
    rebuilt = cascade(chain)
    print("chain collapse error:", max_abs(rebuilt.r - moved.r))

    equivalence = certify_equivalence(sys, moved)
    print("\n== certification ==")
    print(
        f"transfer functions agree: {equivalence.verdict} "
        f"(worst mismatch {equivalence.max_rel_mismatch:.2e} "
        f"over {equivalence.samples_used} samples)"
    )
    print("G(1+1j) =\n", transfer_function(build_state_space(sys), [1.0 + 1.0j])[0])


if __name__ == "__main__":
    main()
