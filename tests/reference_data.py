"""Frozen reference values for the two-mode passive reference system, and
loop-built structural constants and JSON matrix codecs.

Every pipeline artifact below was computed independently (and cross-checked
entrywise at 4-decimal precision) before the library was written; the tests
compare library output against these pinned values.  The library never
forms Theta or Sigma densely, and codes each JSON matrix in one array call;
the loop-built matrices and cell-by-cell codecs here are the oracles its
reshapes, strided slices and array codecs are checked against.  The zero-mode
system and the concatenation product are test helpers: the package itself
never needs them.
"""

import hashlib
import json

import numpy as np

from cascade_synth import SlhSystem
from cascade_synth.model import block_diag

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


def encode_real_matrix(a):
    """Rows of floats, one cell at a time."""
    return [[float(x) for x in row] for row in np.asarray(a, dtype=float)]


def encode_complex_matrix(a):
    """Rows of [re, im] pairs, one cell at a time."""
    return [
        [[float(z.real), float(z.imag)] for z in row]
        for row in np.asarray(a, dtype=complex)
    ]


def decode_real_matrix(obj, rows, cols):
    out = np.zeros((rows, cols))
    for i, row in enumerate(obj):
        for j, cell in enumerate(row):
            out[i, j] = float(cell)
    return out


def decode_complex_matrix(obj, rows, cols):
    out = np.zeros((rows, cols), dtype=complex)
    for i, row in enumerate(obj):
        for j, cell in enumerate(row):
            out[i, j] = complex(cell[0], cell[1])
    return out


def system_json(doc):
    """Canonical JSON of a SystemDocument, built with the cell-by-cell
    encoders."""
    data = {
        "schema_version": "1",
        "form": doc.form,
        "n": doc.n,
        "m": doc.m,
        "S": encode_complex_matrix(doc.s),
    }
    if doc.form == "general":
        data["K"] = encode_complex_matrix(doc.k)
        data["R"] = encode_real_matrix(doc.r)
    else:
        data["K_tilde"] = encode_complex_matrix(doc.k_tilde)
        data["R_tilde"] = encode_complex_matrix(doc.r_tilde)
    return canonical_json(data)


def realization_json(doc):
    """Canonical JSON of a RealizationDocument, built with the cell-by-cell
    encoders."""
    data = {
        "schema_version": "1",
        "input_digest": doc.input_digest,
        "stages": [
            {
                "S": encode_complex_matrix(st.s),
                "K": encode_complex_matrix(st.k),
                "R": encode_real_matrix(st.r),
            }
            for st in doc.stages
        ],
        "reports": dict(doc.reports),
    }
    if doc.v is not None:
        data["V"] = encode_real_matrix(doc.v)
    if doc.residual_r is not None:
        data["residual_R"] = encode_real_matrix(doc.residual_r)
    return canonical_json(data)


def canonical_json(data):
    return json.dumps(data, sort_keys=True, separators=(",", ":"), allow_nan=False)


def document_digest(data):
    """sha256 hex digest of the canonical JSON of data: the oracle of the
    documents' digest()."""
    return hashlib.sha256(canonical_json(data).encode("utf-8")).hexdigest()


def identity_system(m):
    """The zero-mode system (I_m, nothing, 0): identity of the series product
    and of concatenation with m = 0."""
    return SlhSystem(
        s=np.eye(m, dtype=complex),
        k=np.zeros((m, 0), dtype=complex),
        r=np.zeros((0, 0)),
    )


def leaning_passive_data():
    """The JSON data of a passive document whose R_tilde, with
    R_tilde[0][1] = (1 + i)/sqrt(2), R_tilde[1][0] its conjugate plus 0.9e-9
    and 0.5 on the diagonal, is non-Hermitian by 0.9e-9 of its largest
    modulus but by 1.27e-9 of its largest real or imaginary part, which is
    the scale of the symmetry of its R."""
    h = 1.0 / np.sqrt(2.0)
    return {
        "schema_version": "1",
        "form": "passive",
        "n": 2,
        "m": 1,
        "S": [[[1.0, 0.0]]],
        "K_tilde": [[[1.0, 0.0], [0.5, 0.0]]],
        "R_tilde": [[[0.5, 0.0], [h, h]], [[h + 0.9e-9, -h], [0.5, 0.0]]],
    }


def series_fold(stages):
    """(S, K, R) of the series product folded over the stages, input end
    first, as plain arrays, so that nothing is judged: each step feeds the
    chain so far, (S1, K1, R1), into the next stage (S2, K2, R2), giving
    S = S2 S1, K = [S2 K1  K2] and R = [[R1, C^T], [C, R2]] with
    C = Im(K2^dag S2 K1)."""
    s, k, r = stages[0].s, stages[0].k, stages[0].r
    for g in stages[1:]:
        coupling = np.imag(g.k.conj().T @ g.s @ k)
        r = np.block([[r, coupling.T], [coupling, g.r]])
        s, k = g.s @ s, np.hstack([g.s @ k, g.k])
    return s, k, r


def concatenation(g1, g2):
    """Side-by-side composition: block-diagonal S, K, R with no interaction.
    The result acts on x = (x_g1, x_g2) and m = m1 + m2 independent fields."""
    return SlhSystem(
        s=block_diag(g1.s, g2.s), k=block_diag(g1.k, g2.k), r=block_diag(g1.r, g2.r)
    )


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


def triangularity_oracle(sys, tol):
    """(is_triangular, max_upper_residual, scale) of the drift
    A = 2 Theta (R + Im(K^dag K)) with the loop-built Theta, the residual
    taken block by block over the strictly upper 2x2 blocks."""
    a = 2.0 * symplectic_form(sys.n) @ (sys.r + np.imag(sys.k.conj().T @ sys.k))
    worst = 0.0
    for j in range(sys.n):
        for k in range(j + 1, sys.n):
            worst = max(worst, float(np.abs(a[2 * j : 2 * j + 2, 2 * k : 2 * k + 2]).max()))
    scale = float(np.abs(a).max()) if a.size else 0.0
    return worst <= tol * scale, worst, scale


def chain_sigma(systems):
    """sigma = max |R|_max + (max |K|_max)^2 over the systems taken together:
    the scale every stage of a chain is judged passive at, and a lone
    system's own."""
    r_max = max(float(np.abs(x.r).max(initial=0.0)) for x in systems)
    k_max = max(float(np.abs(x.k).max(initial=0.0)) for x in systems)
    return r_max + k_max**2


def passivity_oracle(sys, tol, scale_of=None):
    """The passivity verdict from the loop-built Sigma: the dropped parts
    |K Sigma^T|_max and |R - Re(Sigma^dag (8 Sigma R Sigma^dag) Sigma)|_max
    against tol * sqrt(sigma) and tol * sigma, sigma the chain_sigma of the
    systems scale_of (sys alone by default)."""
    sg = annihilation_map(sys.n)
    k_defect = np.abs(sys.k @ sg.T).max(initial=0.0)
    r_tilde = 8 * sg @ sys.r @ sg.conj().T
    r_defect = np.abs(sys.r - (sg.conj().T @ r_tilde @ sg).real).max(initial=0.0)
    sigma = chain_sigma((sys,) if scale_of is None else scale_of)
    return bool(k_defect <= tol * np.sqrt(sigma) and r_defect <= tol * sigma)


def mode_measures_oracle(k, r):
    """The per-mode measures of one system's K (m, 2n) and R (2n, 2n), entry
    by entry: per column pair j, (max over fields of |K[f, 2j] + i K[f, 2j+1]| / 2,
    max of |K[f, 2j]| and |K[f, 2j+1]|), and per 2x2 block (j, l),
    (max(|R_qq - R_pp|, |R_qp + R_pq|) / 2, the largest |entry|), returned as
    the arrays (k_defect, r_defect, k_max, r_max).  The K arrays take Python's
    complex modulus, which may differ from numpy's in the last bit."""
    n, m = r.shape[0] // 2, k.shape[0]
    k_defect, k_max = np.zeros(n), np.zeros(n)
    for j in range(n):
        for f in range(m):
            q, p = complex(k[f, 2 * j]), complex(k[f, 2 * j + 1])
            k_defect[j] = max(k_defect[j], abs(q + 1j * p) / 2.0)
            k_max[j] = max(k_max[j], abs(q), abs(p))
    r_defect, r_max = np.zeros((n, n)), np.zeros((n, n))
    for j in range(n):
        for l in range(n):
            (qq, qp), (pq, pp) = r[2 * j : 2 * j + 2, 2 * l : 2 * l + 2].tolist()
            r_defect[j, l] = max(abs(qq - pp), abs(qp + pq)) / 2.0
            r_max[j, l] = max(abs(qq), abs(qp), abs(pq), abs(pp))
    return k_defect, r_defect, k_max, r_max


def reduction_oracle(k, r):
    """(k_tilde, r_tilde) of one system, entry by entry in Python complex
    arithmetic: k_tilde[f, j] = K[f, 2j] - i K[f, 2j+1], and r_tilde[j, l] =
    2 (R_qq + R_pp) + 2i (R_pq - R_qp) of the 2x2 block (j, l) of R."""
    n, m = r.shape[0] // 2, k.shape[0]
    k_tilde = np.zeros((m, n), dtype=complex)
    for f in range(m):
        for j in range(n):
            k_tilde[f, j] = complex(k[f, 2 * j]) - 1j * complex(k[f, 2 * j + 1])
    r_tilde = np.zeros((n, n), dtype=complex)
    for j in range(n):
        for l in range(n):
            (qq, qp), (pq, pp) = r[2 * j : 2 * j + 2, 2 * l : 2 * l + 2].tolist()
            r_tilde[j, l] = 2.0 * (qq + pp) + 2j * (pq - qp)
    return k_tilde, r_tilde


def dropped_parts(k, r):
    """(k_defect, r_defect, |K|_max, |R|_max) over stacks k (..., m, 2n) and
    r (..., 2n, 2n), in one vectorized pass over the whole of each matrix:
    |K[:, 0::2] + i K[:, 1::2]|_max / 2, and the largest of R_qq - R_pp and
    R_qp + R_pq over the rows of each 2x2 block, halved.  The maxima of the
    per-mode measures must equal these bit for bit."""
    n = r.shape[-1] // 2
    blocks = r.reshape(r.shape[:-2] + (n, 2, n, 2))
    r_dropped = blocks[..., 0, :, :] - blocks[..., 1, :, ::-1] * np.array([1.0, -1.0])
    return (
        np.maximum.reduce(np.abs(k[..., 0::2] + 1j * k[..., 1::2]), axis=(-2, -1), initial=0.0)
        / 2.0,
        np.maximum.reduce(np.abs(r_dropped), axis=(-3, -2, -1), initial=0.0) / 2.0,
        np.maximum.reduce(np.abs(k), axis=(-2, -1), initial=0.0),
        np.maximum.reduce(np.abs(r), axis=(-2, -1), initial=0.0),
    )


def defective_passive_form(n, w):
    """A passive (R_tilde, K_tilde) whose mode matrix is -J/4 rotated by the
    unitary w, for the Jordan block J = 1.5 I + N (N the upper shift): the
    Hermitian part (J + J^dag)/2 is positive definite and becomes
    K_tilde^dag K_tilde through its Cholesky factor, and the rest is
    -i R_tilde.  M is defective: one eigenvalue, one eigenvector."""
    j = 1.5 * np.eye(n) + np.eye(n, k=1)
    k_tilde = np.linalg.cholesky((j + j.T) / 2).conj().T
    r_tilde = -0.5j * (j - j.T)
    return w @ r_tilde @ w.conj().T, k_tilde @ w.conj().T
