"""Frozen reference values for the two-mode passive reference system, and
loop-built structural constants.

Every pipeline artifact below was computed independently (and cross-checked
entrywise at 4-decimal precision) before the library was written; the tests
compare library output against these pinned values.  The library never
forms Theta or Sigma densely; the loop-built matrices here are the oracles
its reshapes and strided slices are checked against.
"""

import numpy as np

J2 = np.array([[0.0, 1.0], [-1.0, 0.0]])


def symplectic_form(n):
    """The 2n x 2n symplectic form Theta = diag(J2, ..., J2), built entry by
    entry."""
    th = np.zeros((2 * n, 2 * n))
    for j in range(n):
        th[2 * j, 2 * j + 1] = 1.0
        th[2 * j + 1, 2 * j] = -1.0
    return th


def annihilation_map(n):
    """The n x 2n map Sigma from quadratures to annihilation variables,
    a_j = (q_j + i p_j) / 2: row j carries (1/2, i/2) in columns 2j, 2j+1."""
    sg = np.zeros((n, 2 * n), dtype=complex)
    for j in range(n):
        sg[j, 2 * j] = 0.5
        sg[j, 2 * j + 1] = 0.5j
    return sg

# Annihilation-variable description (exact rationals).
R_TILDE = np.array([[2.0, 1.0 + 1.0j], [1.0 - 1.0j, 3.0]])
K_TILDE = np.array([[1.0 + 0.5j, -2.0 + 1.0j], [-5.0 - 2.0j, 3.0 - 4.0j]])
OFFSET = 1.25

# Quadrature expansion; entries are exact in binary floating point.
K_EXACT = np.array(
    [
        [0.5 + 0.25j, -0.25 + 0.5j, -1.0 + 0.5j, -0.5 - 1.0j],
        [-2.5 - 1.0j, 1.0 - 2.5j, 1.5 - 2.0j, 2.0 + 1.5j],
    ]
)
R_EXACT = np.array(
    [
        [0.5, 0.0, 0.25, -0.25],
        [0.0, 0.5, 0.25, 0.25],
        [0.25, 0.25, 0.75, 0.0],
        [-0.25, 0.25, 0.0, 0.75],
    ]
)

# Eigenvalues of the 2x2 mode matrix (4-decimal precision).
MODE_EIGENVALUES = np.array([-14.8390 - 0.7912j, -0.2235 - 0.4588j])

# A reference Schur unitary that lower-triangularizes the mode matrix, and
# its quadrature embedding.  Im U[0,0] is -0.0039: the +0.0039 variant
# misses unitarity by 6e-3 and contradicts the (1,1) block of V_REF.
U_REF = np.array(
    [
        [-0.6933 - 0.0039j, 0.2244 - 0.6849j],
        [0.7204 + 0.0209j, 0.2312 - 0.6536j],
    ]
)
V_REF = np.array(
    [
        [-0.6933, 0.0039, 0.2244, 0.6849],
        [-0.0039, -0.6933, -0.6849, 0.2244],
        [0.7204, -0.0209, 0.2312, 0.6536],
        [0.0209, 0.7204, -0.6536, 0.2312],
    ]
)

# Transformed coupling and Hamiltonian under V_REF (4-decimal precision).
K_PRIME = np.array(
    [
        [-0.9144 - 0.7441j, 0.7441 - 0.9144j, -0.1926 - 0.3684j, 0.3684 - 0.1926j],
        [3.4433 + 1.2621j, -1.2621 + 3.4433j, -0.1679 - 0.1501j, 0.1501 - 0.1679j],
    ]
)
R_PRIME = np.array(
    [
        [0.7912, 0.0, 0.1113, 0.3172],
        [0.0, 0.7912, -0.3172, 0.1113],
        [0.1113, -0.3172, 0.4588, 0.0],
        [0.3172, 0.1113, 0.0, 0.4588],
    ]
)

# Stage Hamiltonian levels R'_kk = lambda'_k * I of the cascade realization.
STAGE_LEVELS = np.array([0.7912, 0.4588])
