"""Stage 2: complete the generating matrices M_k = [T_k P_k] when stage 1 stalls.

The unknown tails P_k (k = 2 .. n3, each r x (r - n2)) must satisfy

* the commuting linear equations, for every pair i < j:
      P_i (T_j^2)^T - P_j (T_i^2)^T = T_j (T_i^1)^T - T_i (T_j^1)^T,
  where T_k^1 / T_k^2 are the transposed top n2 and bottom r - n2 row blocks
  of the slice T_k;
* the partial eigenrow equations S^p P_k = D_k S^p[:, n2:] contributed by the
  p rows already found in stage 1;
* the quadratic commutation equations [T_i P_i] P_j = [T_j P_j] P_i.

With P = [P_2 ... P_n3] (r x m, m = (r - n2)(n3 - 1)) the two linear families
read P K = R and S^p P = E, i.e. the Kronecker-structured system
[K^T (x) I_r ; I_m (x) S^p] vec(P) = [vec(R) ; vec(E)]. It is solved from the
SVDs of the small factors K and S^p (Van Loan, "The ubiquitous Kronecker
product", 2000), and its solution set is parametrized as vec(P) = vec(P0) + N x
over a null-space basis N; the quadratic ones become the least-squares
objective g(x).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import InconsistentSystemError, Stage2FailureError
from .linalg import RANK_REL_TOL, as_rng, complex_normal, residual_is_zero
# no longer called here; perfbench/tracer.py looks these names up in this module
from .linalg import least_squares_min_norm, null_space_basis  # noqa: F401
from .lm import minimize
from .options import Deadline
from .preprocess import ReducedTensor
from .stage1 import STARTS, EigRowSet, accept_row
from .tensors import vec


def _pairs(n3: int):
    return [(i, j) for i in range(2, n3 + 1) for j in range(i + 1, n3 + 1)]


@dataclass(frozen=True)
class Stage2System:
    """The affine solution set vec(P) = vec(P0) + N x of both linear families.

    ``A_hat`` holds the commuting factor K (m x q), the matrix whose SVD
    (with that of the small S^p) yields P0 and N; the dense stacked system
    [K^T (x) I_r ; I_m (x) S^p] is never formed. ``P0[k - 2]`` is the
    particular P_k, and row block k - 2 of N (r (r - n2) rows) holds vec(P_k).
    """

    A_hat: np.ndarray
    P0: np.ndarray  # (n3 - 1, r, r - n2) particular solution
    N: np.ndarray  # (r m) x d orthonormal null-space basis

    @property
    def d(self) -> int:
        return self.N.shape[1]

    def pk_from_x(self, x: np.ndarray) -> np.ndarray:
        """The P_k at x as an (n3 - 1, r, r - n2) stack, one product per row block of N."""
        blocks, r, t = self.P0.shape
        x = np.asarray(x, dtype=np.complex128).reshape(-1)
        vecs = (self.N.reshape(blocks, r * t, self.d) @ x).reshape(blocks, t, r)
        vecs += self.P0.transpose(0, 2, 1)  # in place: each P_k stays column-major, as vec(P_k) is
        return vecs.transpose(0, 2, 1)


def commuting_factor(rt: ReducedTensor) -> tuple[np.ndarray, np.ndarray]:
    """K (m x q) and R (r x q) of the commuting equations P K = R.

    The n2 columns of pair (i, j) hold (T_j^2)^T in row block i and
    -(T_i^2)^T in row block j; for n3 < 3 there are no pairs (q = 0).
    """
    r, n2, n3 = rt.rank, rt.slice_cols, rt.n_slices
    t = r - n2
    pairs = _pairs(n3)
    k = np.zeros((n3 - 1, t, len(pairs), n2), dtype=np.complex128)
    rhs = np.empty((len(pairs), r, n2), dtype=np.complex128)
    for c, (i, j) in enumerate(pairs):
        ti, tj = rt.slice(i), rt.slice(j)
        k[i - 2, :, c] = tj[n2:, :]
        k[j - 2, :, c] = -ti[n2:, :]
        rhs[c] = tj @ ti[:n2, :] - ti @ tj[:n2, :]
    q = len(pairs) * n2
    return k.reshape((n3 - 1) * t, q), rhs.transpose(1, 0, 2).reshape(r, q)


def eigenrow_factor(rt: ReducedTensor, found: EigRowSet) -> tuple[np.ndarray, np.ndarray]:
    """S^p (p x r) and E (p x m) of the eigenrow equations S^p P = E.

    Block k of E is diag(lambda_k) S^p[:, n2:].
    """
    r, n2, n3 = rt.rank, rt.slice_cols, rt.n_slices
    sp = found.stacked()
    if found.p == 0:
        return sp, np.zeros((0, (r - n2) * (n3 - 1)), dtype=np.complex128)
    lam = found.lambda_matrix()[1:]  # (n3 - 1, p)
    e = lam[:, :, None] * sp[None, :, n2:]
    return sp, e.transpose(1, 0, 2).reshape(found.p, -1)


def _padded(values: np.ndarray, size: int) -> np.ndarray:
    out = np.zeros(size)
    out[: values.size] = values
    return out


def assemble_stage2(rt: ReducedTensor, found: EigRowSet) -> Stage2System:
    """Minimum-norm P0 and null-space basis N of P K = R, S^p P = E.

    With K = U_K diag(s_K) V_K^H and S^p = U_S diag(s_S) V_S^H (full U_K, V_S),
    the coordinates Pt = V_S^H P U_K make the stacked system diagonal: entry
    (a, b) of Pt meets s_K[b] Pt_ab = Rt_ab and s_S[a] Pt_ab = Et_ab, with
    Rt = V_S^H R V_K and Et = U_S^H E U_K, so its singular value is
    hypot(s_K[b], s_S[a]) (both padded with zeros). Entries at or below
    RANK_REL_TOL times the largest value are dropped: they are zero in P0 and
    each one gives the null-space column conj(U_K[:, b]) (x) V_S[:, a].

    Raises InconsistentSystemError when P0 leaves a nonzero residual
    (a corrupted eigenrow does this).
    """
    r, n2, n3 = rt.rank, rt.slice_cols, rt.n_slices
    t = r - n2
    k, rhs = commuting_factor(rt)
    sp, e = eigenrow_factor(rt, found)
    m = k.shape[0]
    u_k, s_k, vh_k = np.linalg.svd(k)
    u_s, s_s, vh_s = np.linalg.svd(sp)
    v_s = vh_s.conj().T
    nk, ns = s_k.size, s_s.size
    r_rot = np.zeros((r, m), dtype=np.complex128)
    r_rot[:, :nk] = vh_s @ rhs @ vh_k[:nk].conj().T
    e_rot = np.zeros((r, m), dtype=np.complex128)
    e_rot[:ns] = (u_s.conj().T @ e @ u_k)[:ns]
    sk, ss = _padded(s_k, m), _padded(s_s, r)
    sigma = np.hypot(ss[:, None], sk[None, :])
    keep = sigma > RANK_REL_TOL * sigma.max(initial=0.0)
    num = sk[None, :] * r_rot + ss[:, None] * e_rot
    pt = np.divide(num, sigma**2, out=np.zeros_like(num), where=keep)
    p0_mat = v_s @ pt @ u_k.conj().T
    lls_residual = float(np.hypot(np.linalg.norm(p0_mat @ k - rhs), np.linalg.norm(sp @ p0_mat - e)))
    scale = max(float(np.hypot(np.linalg.norm(rhs), np.linalg.norm(e))), 1e-300)
    if not residual_is_zero(lls_residual, scale):
        raise InconsistentSystemError(
            f"combined linear system inconsistent: residual {lls_residual:.3e} vs scale {scale:.3e}"
        )
    a_idx, b_idx = np.nonzero(~keep)
    # column c is conj(U_K[:, b_c]) (x) V_S[:, a_c]; C-contiguous so row blocks reshape as views
    n = (u_k[:, b_idx].conj()[:, None, :] * v_s[:, a_idx][None, :, :]).reshape(m * r, a_idx.size)
    return Stage2System(A_hat=k, P0=p0_mat.reshape(r, n3 - 1, t).transpose(1, 0, 2), N=n)


def _m_matrices(rt: ReducedTensor, pks: np.ndarray) -> list:
    return [np.concatenate([rt.slice(k), pks[k - 2]], axis=1) for k in range(2, rt.n_slices + 1)]


def eval_g(x: np.ndarray, sys: Stage2System, rt: ReducedTensor) -> np.ndarray:
    """Stacked quadratic commutation residuals over pairs (i, j), i < j."""
    pks = sys.pk_from_x(x)
    ms = _m_matrices(rt, pks)
    parts = [
        vec(ms[i - 2] @ pks[j - 2] - ms[j - 2] @ pks[i - 2])
        for (i, j) in _pairs(rt.n_slices)
    ]
    if not parts:
        return np.zeros(0, dtype=np.complex128)
    return np.concatenate(parts)


def jac_g(x: np.ndarray, sys: Stage2System, rt: ReducedTensor) -> np.ndarray:
    """Analytic Jacobian of ``eval_g`` chained through the null-space blocks.

    Block (i, j) is d_Pi N_i + d_Pj N_j with d_Pi = P_j[n2:]^T (x) I_r - I (x) M_j
    and d_Pj = I (x) M_i - P_i[n2:]^T (x) I_r. With N_k viewed as (r-n2, r, d),
    [c, a] holding entry (a, c) of P_k, (B^T (x) I_r) N_k is B contracted with
    the first axis of N_k and (I (x) M) N_k is M @ N_k: no Kronecker factor is
    formed.
    """
    r, n2, n3, d = rt.rank, rt.slice_cols, rt.n_slices, sys.d
    t = r - n2
    pks = sys.pk_from_x(x)
    ms = _m_matrices(rt, pks)
    nks = sys.N.reshape(n3 - 1, t, r, d)
    pair_list = _pairs(n3)
    out = np.empty((len(pair_list), t, r, d), dtype=np.complex128)
    for row, (i, j) in enumerate(pair_list):
        ni, nj = nks[i - 2], nks[j - 2]
        out[row] = (
            np.tensordot(pks[j - 2][n2:, :], ni, axes=(0, 0))
            - np.tensordot(pks[i - 2][n2:, :], nj, axes=(0, 0))
            + ms[i - 2] @ nj
            - ms[j - 2] @ ni
        )
    return out.reshape(len(pair_list) * t * r, d)


def _start_scales(sys: Stage2System, count: int) -> list:
    """Start-scale ladder: the zero of g sits near the particular solution's
    magnitude (the tails inherit the eigenbasis conditioning), which unit-scale
    Gaussians miss entirely on conditioned instances."""
    base = max(1.0, float(np.linalg.norm(np.concatenate([vec(p) for p in sys.P0]))) / np.sqrt(2.0 * max(sys.d, 1)))
    ladder = [0.0, 1.0]
    step = base
    while len(ladder) < count:
        ladder.extend([step, 3.0 * step])
        step *= 10.0
    return ladder[:count]


def _solve_system(sys: Stage2System, rt: ReducedTensor, rng, deadline: Deadline, endpoints: list) -> list | None:
    """Multi-start LM on g; the M_k of a zero, or None.

    Failed starts' (residual, x) go to ``endpoints``.
    """
    scale = rt.norm() ** 2
    if sys.d == 0:
        g0 = eval_g(np.zeros(0, dtype=np.complex128), sys, rt)
        if g0.size and not residual_is_zero(float(np.linalg.norm(g0)), scale):
            return None
        return _m_matrices(rt, sys.pk_from_x(np.zeros(0, dtype=np.complex128)))
    for start_scale in _start_scales(sys, STARTS):
        if deadline.exceeded():
            return None
        x0 = start_scale * complex_normal(rng, sys.d)
        outcome = minimize(
            lambda x: eval_g(x, sys, rt),
            lambda x: jac_g(x, sys, rt),
            x0,
            scale=scale,
            deadline=deadline,
        )
        if residual_is_zero(outcome.residual_norm, scale):
            return _m_matrices(rt, sys.pk_from_x(outcome.x_final))
        endpoints.append((outcome.residual_norm, outcome.x_final))
    return None


def harvest_rows(sys: Stage2System, rt: ReducedTensor, found: EigRowSet, endpoints, rng) -> EigRowSet:
    """``found`` plus the eigenrows polished out of failed stage-2 end points.

    A start that stalls at a spurious minimum of g still leaves M_k whose
    left eigenvectors are mostly close to true common eigenrows (8 of 9 on a
    planted 9x4x4 at p = 0); each eigenvector of a random combination of the
    M_k is handed to ``accept_row``, best end point first.
    """
    rows = EigRowSet(rows=list(found.rows), target=found.target)
    for _, x in sorted(endpoints, key=lambda e: e[0]):
        if rows.complete:
            break
        ms = np.array(_m_matrices(rt, sys.pk_from_x(x)))
        mix = np.tensordot(complex_normal(rng, len(ms)), ms, axes=1)
        _, vecs = np.linalg.eig(mix.T)  # column t: left eigenvector s with s mix = w_t s
        for s_row in vecs.T:
            row = accept_row(s_row, rows, rt, _HARVEST_REFINE_ITERS)
            if row is not None:
                rows.rows.append(row)
                if rows.complete:
                    break
    return rows


_LIFO_LEVELS = 4  # eigenrow counts tried: p, p-1, ..., then straight to 0
# Gauss-Newton steps from a harvested eigenvector: with the stage-1 default of 3,
# accepted rows can sit at the residual cutoff and make the grown system inconsistent
_HARVEST_REFINE_ITERS = 10


def run_stage2(rt: ReducedTensor, found: EigRowSet, rng, deadline: Deadline = Deadline(None)) -> list:
    """Assemble and solve for the P_k, dropping eigenrows last-in-first-out.

    Returns the generating matrices M_k = [T_k P_k], k = 2 .. n3.

    A drop happens when the combined system is inconsistent at assembly: a
    slightly wrong stage-1 row should not doom the solve, and p = 0 is always
    a valid (larger) search space. The descent is bounded: after a few
    single-row drops it falls straight to p = 0. The first consistent level is
    the only one optimized: when its starts find no zero of g, the eigenrows
    harvested from their end points (``harvest_rows``) join the row set and
    the smaller system is solved, for as long as that adds rows. A smaller
    level is never tried: it rarely succeeds and costs slower starts, while
    the caller's next attempt redraws the reduction and the stage-1 rows.
    Success means ||g|| is zero against ||T||_F^2 (``residual_is_zero``).
    """
    rng = as_rng(rng)
    levels = [p for p in range(found.p, max(found.p - _LIFO_LEVELS, 0), -1)]
    if 0 not in levels:
        levels.append(0)
    sys = None
    for level in levels:
        if deadline.exceeded():
            break
        working = found.truncated(level)
        try:
            sys = assemble_stage2(rt, working)
            break
        except InconsistentSystemError:
            if level == 0:
                raise  # even the bare commuting system has no solution
    while sys is not None:
        endpoints = []
        result = _solve_system(sys, rt, rng, deadline, endpoints)
        if result is not None:
            return result
        grown = harvest_rows(sys, rt, working, endpoints, rng)
        if grown.p == working.p:
            break
        working = grown
        try:
            sys = assemble_stage2(rt, working)
        except InconsistentSystemError:
            break
    raise Stage2FailureError(f"no zero-residual solution in {STARTS} starts")
