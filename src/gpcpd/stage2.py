"""Stage 2: complete the generating matrices M_k = [T_k P_k] when stage 1 stalls.

The unknown tails P_k (k = 2 .. n3, each r x (r - n2)) must satisfy

* the commuting linear equations, for every pair i < j:
      P_i (T_j^2)^T - P_j (T_i^2)^T = T_j (T_i^1)^T - T_i (T_j^1)^T,
  where T_k^1 / T_k^2 are the transposed top n2 and bottom r - n2 row blocks
  of the slice T_k;
* the partial eigenrow equations S^p P_k = D_k S^p[:, n2:] contributed by the
  p rows already found in stage 1;
* the quadratic commutation equations [T_i P_i] P_j = [T_j P_j] P_i.

The two linear families are stacked into one system A_hat vec(P) = b_hat,
whose solution set is parametrized as vec(P) = vec(P0) + N x over a null-space
basis N; the quadratic ones become the least-squares objective g(x).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

from .exceptions import InconsistentSystemError, Stage2FailureError
from .linalg import as_rng, complex_normal, least_squares_min_norm, null_space_basis
from .lm import minimize
from .options import SolveOptions
from .preprocess import ReducedTensor
from .stage1 import EigRowSet
from .tensors import unvec, vec


def _pairs(n3: int):
    return [(i, j) for i in range(2, n3 + 1) for j in range(i + 1, n3 + 1)]


def _split_slice(rt: ReducedTensor, k: int):
    """T_k^1 (n2 x n2) and T_k^2 (n2 x (r-n2)): transposed row blocks of T_k."""
    n2 = rt.slice_cols
    tk = rt.slice(k)
    return tk[:n2, :].T, tk[n2:, :].T


def dims_d1_d2(rt: ReducedTensor) -> tuple[int, int]:
    r, n2, n3 = rt.rank, rt.slice_cols, rt.n_slices
    return r * n2 * (n3 - 1) * (n3 - 2) // 2, r * (r - n2) * (n3 - 1)


@dataclass(frozen=True)
class Stage2System:
    A_hat: np.ndarray
    b_hat: np.ndarray
    P0: list  # particular solution, r x (r-n2) matrices for k = 2 .. n3
    N: np.ndarray  # d2 x d orthonormal null-space basis
    N_blocks: list  # per-k row blocks of N
    lls_residual: float
    rank: int
    n2: int
    n3: int

    @property
    def d(self) -> int:
        return self.N.shape[1]

    def pk_from_x(self, x: np.ndarray) -> list:
        r, n2 = self.rank, self.n2
        x = np.asarray(x, dtype=np.complex128).reshape(-1)
        return [
            unvec(vec(p0) + nk @ x, (r, r - n2))
            for p0, nk in zip(self.P0, self.N_blocks)
        ]


@dataclass(frozen=True)
class PkSet:
    """Solved tails P_k and the resulting generating matrices M_k = [T_k P_k]."""

    P: list  # k = 2 .. n3
    M: list  # k = 2 .. n3, each r x r

    def commutator_bound(self) -> float:
        """Worst pairwise ||M_i M_j - M_j M_i|| / (||M_i|| ||M_j||)."""
        worst = 0.0
        for a in range(len(self.M)):
            for b in range(a + 1, len(self.M)):
                mi, mj = self.M[a], self.M[b]
                denom = max(np.linalg.norm(mi) * np.linalg.norm(mj), 1e-300)
                worst = max(worst, float(np.linalg.norm(mi @ mj - mj @ mi)) / denom)
        return worst


def build_commuting_linear_system(rt: ReducedTensor) -> tuple[np.ndarray, np.ndarray]:
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


def build_partial_eig_system(rt: ReducedTensor, found: EigRowSet) -> tuple[np.ndarray, np.ndarray]:
    """Eigenrow block: S^p P_k = D_k S^p[:, n2:] for each k = 2 .. n3."""
    r, n2, n3 = rt.rank, rt.slice_cols, rt.n_slices
    p = found.p
    d2 = r * (r - n2) * (n3 - 1)
    rows_per_k = (r - n2) * p
    a = np.zeros((rows_per_k * (n3 - 1), d2), dtype=np.complex128)
    b = np.zeros(rows_per_k * (n3 - 1), dtype=np.complex128)
    if p == 0:
        return a, b
    sp = found.stacked()
    tail = sp[:, n2:]
    lam = found.lambda_matrix()  # (n3, p) with first row ones
    width = r * (r - n2)
    blk = np.kron(np.eye(r - n2), sp)
    for idx in range(n3 - 1):
        k = idx + 2
        rows = slice(idx * rows_per_k, (idx + 1) * rows_per_k)
        a[rows, idx * width : (idx + 1) * width] = blk
        b[rows] = vec(np.diag(lam[k - 1]) @ tail)
    return a, b


def assemble_stage2(rt: ReducedTensor, found: EigRowSet, tol) -> Stage2System:
    """Stack both linear families, solve for P0, and parametrize the null space.

    Raises InconsistentSystemError when the minimum-norm solution leaves a
    residual above tolerance (a corrupted eigenrow does this).
    """
    r, n2, n3 = rt.rank, rt.slice_cols, rt.n_slices
    a, b = build_commuting_linear_system(rt)
    at, bt = build_partial_eig_system(rt, found)
    a_hat = np.vstack([a, at])
    b_hat = np.concatenate([b, bt])
    d1, d2 = dims_d1_d2(rt)
    assert a_hat.shape == (d1 + (r - n2) * (n3 - 1) * found.p, d2)
    p_vec, lls_residual = least_squares_min_norm(a_hat, b_hat, tol)
    scale = max(float(np.linalg.norm(b_hat)), 1e-300)
    if lls_residual > tol.residual_zero_tol * scale:
        raise InconsistentSystemError(
            f"combined linear system inconsistent: residual {lls_residual:.3e} vs scale {scale:.3e}"
        )
    n = np.ascontiguousarray(null_space_basis(a_hat, tol))  # row blocks reshape as views
    width = r * (r - n2)
    p0 = [unvec(p_vec[(k - 2) * width : (k - 1) * width], (r, r - n2)) for k in range(2, n3 + 1)]
    n_blocks = [n[(k - 2) * width : (k - 1) * width, :] for k in range(2, n3 + 1)]
    return Stage2System(
        A_hat=a_hat,
        b_hat=b_hat,
        P0=p0,
        N=n,
        N_blocks=n_blocks,
        lls_residual=lls_residual,
        rank=r,
        n2=n2,
        n3=n3,
    )


def dump_system(sys: Stage2System, out_dir: str | os.PathLike):
    """Debug dump of A_hat, b_hat and N as row-major [re, im] matrix JSON."""

    def rows(m):
        m = np.atleast_2d(np.asarray(m, dtype=np.complex128))
        return [[[float(z.real), float(z.imag)] for z in row] for row in m]

    os.makedirs(out_dir, exist_ok=True)
    for name, mat in (("A_hat", sys.A_hat), ("b_hat", sys.b_hat.reshape(-1, 1)), ("N", sys.N)):
        with open(os.path.join(out_dir, f"{name}.json"), "w") as fh:
            json.dump({"shape": list(np.atleast_2d(mat).shape), "data": rows(mat)}, fh)


def _m_matrices(rt: ReducedTensor, pks: list) -> list:
    return [np.concatenate([rt.slice(k), pks[k - 2]], axis=1) for k in range(2, rt.n_slices + 1)]


def eval_g(x: np.ndarray, sys: Stage2System, rt: ReducedTensor) -> np.ndarray:
    """Stacked quadratic commutation residuals over pairs (i, j), i < j."""
    pks = sys.pk_from_x(x)
    ms = _m_matrices(rt, pks)
    parts = [
        vec(ms[i - 2] @ pks[j - 2] - ms[j - 2] @ pks[i - 2])
        for (i, j) in _pairs(sys.n3)
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
    r, n2, d = sys.rank, sys.n2, sys.d
    t = r - n2
    pks = sys.pk_from_x(x)
    ms = _m_matrices(rt, pks)
    nks = [nk.reshape(t, r, d) for nk in sys.N_blocks]
    pair_list = _pairs(sys.n3)
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


def _solve_system(sys: Stage2System, rt: ReducedTensor, opts: SolveOptions, rng, deadline) -> PkSet | None:
    scale = rt.norm() ** 2
    accept_tol = opts.tolerances.residual_zero_tol * scale
    if sys.d == 0:
        g0 = eval_g(np.zeros(0, dtype=np.complex128), sys, rt)
        if g0.size and float(np.linalg.norm(g0)) > accept_tol:
            return None
        pks = sys.pk_from_x(np.zeros(0, dtype=np.complex128))
        return PkSet(P=pks, M=_m_matrices(rt, pks))
    for start_scale in _start_scales(sys, opts.starts):
        if deadline is not None and deadline.exceeded():
            return None
        x0 = start_scale * complex_normal(rng, sys.d)
        outcome = minimize(
            lambda x: eval_g(x, sys, rt),
            lambda x: jac_g(x, sys, rt),
            x0,
            opts.lm,
            scale=scale,
        )
        if outcome.residual_norm <= accept_tol:
            pks = sys.pk_from_x(outcome.x_final)
            return PkSet(P=pks, M=_m_matrices(rt, pks))
    return None


_LIFO_LEVELS = 4  # eigenrow counts tried: p, p-1, ..., then straight to 0


def run_stage2(rt: ReducedTensor, found: EigRowSet, opts: SolveOptions, rng, deadline=None) -> PkSet:
    """Assemble and solve for the P_k, dropping eigenrows last-in-first-out.

    A drop happens when the combined system is inconsistent at assembly: a
    slightly wrong stage-1 row should not doom the solve, and p = 0 is always
    a valid (larger) search space. The descent is bounded: after a few
    single-row drops it falls straight to p = 0. The first consistent level is
    the only one optimized: when its starts find no zero of g, a smaller level
    rarely does and costs a larger assembly and slower starts, while the
    caller's next attempt redraws the reduction and the stage-1 rows. Success
    means ||g|| <= residual_zero_tol * ||T||_F^2.
    """
    rng = as_rng(rng)
    tol = opts.tolerances
    levels = [p for p in range(found.p, max(found.p - _LIFO_LEVELS, 0), -1)]
    if 0 not in levels:
        levels.append(0)
    for level in levels:
        if deadline is not None and deadline.exceeded():
            break
        working = found.truncated(level)
        try:
            sys = assemble_stage2(rt, working, tol)
        except InconsistentSystemError:
            if level == 0:
                raise  # even the bare commuting system has no solution
            continue
        result = _solve_system(sys, rt, opts, rng, deadline)
        if result is not None:
            return result
        break
    raise Stage2FailureError(f"no zero-residual solution in {opts.starts} starts")
