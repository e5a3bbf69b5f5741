"""Dense reference for the stage-2 linear system, kept only as a test oracle.

The stacked system A_hat vec(P) = b_hat is built entry by entry from explicit
Kronecker products and solved with a dense least-squares solve and a full SVD,
the way ``gpcpd.stage2.assemble_stage2`` did before it worked on the factors.
"""

import numpy as np

from gpcpd import InconsistentSystemError
from gpcpd.linalg import least_squares_min_norm, null_space_basis, residual_is_zero
from gpcpd.stage2 import _pairs
from gpcpd.tensors import vec


def _split_slice(rt, k):
    """T_k^1 (n2 x n2) and T_k^2 (n2 x (r-n2)): transposed row blocks of T_k."""
    n2 = rt.slice_cols
    tk = rt.slice(k)
    return tk[:n2, :].T, tk[n2:, :].T


def dims_d1_d2(rt):
    r, n2, n3 = rt.rank, rt.slice_cols, rt.n_slices
    return r * n2 * (n3 - 1) * (n3 - 2) // 2, r * (r - n2) * (n3 - 1)


def build_commuting_linear_system(rt):
    """Linear block: rows for each pair (i, j), i < j, in lexicographic order.

    For n3 < 3 there are no pairs and the block is empty (0 rows).
    """
    r, n2, n3 = rt.rank, rt.slice_cols, rt.n_slices
    d1, d2 = dims_d1_d2(rt)
    width = r * (r - n2)
    a = np.zeros((d1, d2), dtype=np.complex128)
    b = np.zeros(d1, dtype=np.complex128)
    block = r * n2
    for row, (i, j) in enumerate(_pairs(n3)):
        ti1, ti2 = _split_slice(rt, i)
        tj1, tj2 = _split_slice(rt, j)
        rows = slice(row * block, (row + 1) * block)
        a[rows, (i - 2) * width : (i - 1) * width] = np.kron(tj2, np.eye(r))
        a[rows, (j - 2) * width : (j - 1) * width] = -np.kron(ti2, np.eye(r))
        b[rows] = vec(rt.slice(j) @ ti1.T - rt.slice(i) @ tj1.T)
    return a, b


def build_partial_eig_system(rt, found):
    """Eigenrow block: S^p P_k = D_k S^p[:, n2:] for each k = 2 .. n3."""
    r, n2, n3 = rt.rank, rt.slice_cols, rt.n_slices
    p = found.p
    d2 = r * (r - n2) * (n3 - 1)
    rows_per_k = (r - n2) * p
    a = np.zeros((rows_per_k * (n3 - 1), d2), dtype=np.complex128)
    b = np.zeros(rows_per_k * (n3 - 1), dtype=np.complex128)
    tail = found.S[:, n2:]
    width = r * (r - n2)
    blk = np.kron(np.eye(r - n2), found.S)
    for idx in range(n3 - 1):  # slice k = idx + 2
        rows = slice(idx * rows_per_k, (idx + 1) * rows_per_k)
        a[rows, idx * width : (idx + 1) * width] = blk
        b[rows] = vec(np.diag(found.lambdas[idx]) @ tail)
    return a, b


def dense_system(rt, found):
    """The stacked (A_hat, b_hat) of both linear families."""
    a, b = build_commuting_linear_system(rt)
    at, bt = build_partial_eig_system(rt, found)
    return np.vstack([a, at]), np.concatenate([b, bt])


def dense_solve(rt, found):
    """(vec(P0), N) from dense lstsq and SVD; InconsistentSystemError as in assembly."""
    a_hat, b_hat = dense_system(rt, found)
    p_vec, _ = least_squares_min_norm(a_hat, b_hat)
    residual = float(np.linalg.norm(a_hat @ p_vec - b_hat))
    scale = max(float(np.linalg.norm(b_hat)), 1e-300)
    if not residual_is_zero(residual, scale):
        raise InconsistentSystemError(f"dense residual {residual:.3e} vs scale {scale:.3e}")
    return p_vec, null_space_basis(a_hat)
