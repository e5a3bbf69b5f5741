"""Stage 1: sequential search for generalized left common eigenvectors.

A row s (written as a column vector) is a generalized left common eigenvector
of the reduced slices T_2, ..., T_{n3} when T_k^T s = lambda_k * s[:n2] for
every k. Candidates are parametrized in a rotated frame, xbar = Q [x; 1], and
found as zeros of the projected residual

    f_Q(x) = vec( (I - u u^T / (u^T u)) (xbar^T x_1 T) ),   u = xbar[:n2],

whose projector uses the plain bilinear square u^T u, not the norm. After a
row is accepted, the next frame Q comes from the QR factorization of the
stacked rows' transpose, which forces every later candidate out of their span;
the trailing columns of Q are re-randomized per start so restarts can reach
eigenvectors with little weight on the deterministic last column.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .exceptions import DomainGuardViolation
from .linalg import as_rng, complex_normal, qr_full, random_unitary, rank_deficient, residual_is_zero
from .lm import minimize
from .options import Deadline, SolveOptions
from .preprocess import ReducedTensor

STARTS = 12  # LM multi-starts per stage-1 row search and per stage-2 solve
_EPS_ISO = 1e-8  # guard on the bilinear square of the projector axis


@dataclass(frozen=True)
class CommonEigRow:
    """One accepted eigenvector row (unit norm) with its eigenvalues for k >= 2.

    lambda_{.,1} = 1 implicitly: the first reduced slice is (I_r)[:, :n2], so
    T_1^T s = s[:n2] for every s.
    """

    s: np.ndarray
    lambdas: np.ndarray  # shape (n3 - 1,), entries for k = 2 .. n3


@dataclass
class EigRowSet:
    rows: list[CommonEigRow] = field(default_factory=list)
    target: int = 0

    @property
    def p(self) -> int:
        return len(self.rows)

    @property
    def complete(self) -> bool:
        return self.p == self.target

    def stacked(self) -> np.ndarray:
        """S^p: p x r matrix whose rows are the found eigenvectors."""
        if not self.rows:
            return np.zeros((0, self.target), dtype=np.complex128)
        return np.array([row.s for row in self.rows])

    def lambda_matrix(self) -> np.ndarray:
        """(n3 x p) eigenvalue table including the implicit all-ones first row."""
        if not self.rows:
            return np.zeros((0, 0), dtype=np.complex128)
        lams = np.array([row.lambdas for row in self.rows]).T  # (n3-1, p)
        ones = np.ones((1, self.p), dtype=np.complex128)
        return np.concatenate([ones, lams], axis=0)

    def truncated(self, p: int) -> "EigRowSet":
        return EigRowSet(rows=list(self.rows[:p]), target=self.target)


@dataclass(frozen=True)
class SearchFrame:
    """Unitary frame Q for one row search, with the slices rotated into it.

    With tq[a] = sum_i Q[i, a] T[i, :, :], W = xbar^T x_1 T = sum_a y_a tq[a]
    for xbar = Q y, y = [x; 1]. The other fields are the fixed blocks of tq
    that f_Q and its Jacobian read, laid out once per frame:

    * ``qu`` = Q[:n2, :r-1] and ``qu_last`` = Q[:n2, r-1], so u = qu x + qu_last;
    * ``dw`` = d vec(W)/dx ((n2 n3) x (r-1), vec column-stacking) and
      ``w_last`` = vec(tq[r-1]), so vec(W) = dw x + w_last;
    * ``tq_u`` (n2 x n3 (r-1)), entry (i, k (r-1) + j) = tq[j, i, k], so
      u @ tq_u holds u^T tq[j] for every j.

    ``last`` is the one mutable slot: the point ``eval_fQ`` was last called
    at (its bytes) and the state it formed there, which ``jac_fQ`` reuses
    at the same point instead of recomputing it.
    """

    Q: np.ndarray
    qu: np.ndarray
    qu_last: np.ndarray
    dw: np.ndarray
    w_last: np.ndarray
    tq_u: np.ndarray
    last: list = field(default_factory=list, compare=False, repr=False)

    @classmethod
    def from_q(cls, q: np.ndarray, rt: ReducedTensor) -> "SearchFrame":
        tq = np.tensordot(q, rt.T.data, axes=([0], [0]))  # (r, n2, n3)
        r, n2, n3 = tq.shape
        lead = tq[: r - 1]
        return cls(
            Q=q,
            qu=np.ascontiguousarray(q[:n2, : r - 1]),
            qu_last=q[:n2, r - 1].copy(),
            dw=lead.transpose(2, 1, 0).reshape(n3 * n2, r - 1),
            w_last=tq[r - 1].T.reshape(-1),
            tq_u=lead.transpose(1, 2, 0).reshape(n2, n3 * (r - 1)),
        )


def build_frame(rt: ReducedTensor, found: EigRowSet, rng) -> SearchFrame:
    """Frame for searching row p+1 from the deflating QR of the found rows.

    The first p columns of Q span the found rows; the trailing r - p columns
    are re-randomized by a unitary acting on the orthogonal complement. At
    p = 0 the QR of the empty r x 0 stack is I_r, so Q is a random unitary.
    """
    r = rt.rank
    rng = as_rng(rng)
    q, _ = qr_full(found.stacked().T)
    p = found.p
    if r - p > 0:
        q = q.copy()
        q[:, p:] = q[:, p:] @ random_unitary(r - p, rng)
    return SearchFrame.from_q(q, rt)


def _guard(u: np.ndarray) -> complex:
    """Bilinear square u^T u, guarded against the projector's true singularity."""
    nrm2 = np.vdot(u, u).real
    s = u @ u
    if nrm2 == 0.0 or abs(s) < _EPS_ISO * nrm2:
        raise DomainGuardViolation("projector axis is numerically isotropic")
    return s


def _fq_state(x: np.ndarray, frame: SearchFrame) -> tuple:
    """(u, u^T u, W^T, u^T W) at x: u = xbar[:n2], W^T is (n3, n2)."""
    u = frame.qu @ x + frame.qu_last
    s = _guard(u)
    wt = (frame.dw @ x + frame.w_last).reshape(-1, u.size)
    return u, s, wt, wt @ u


def eval_fQ(x: np.ndarray, frame: SearchFrame, rt: ReducedTensor) -> np.ndarray:
    """Projected residual vec(Z W), zero exactly at generalized common eigenvectors."""
    state = _fq_state(x, frame)
    frame.last[:] = (x.tobytes(), state)
    u, s, wt, uw = state
    return (wt - np.outer(uw / s, u)).reshape(-1)


def jac_fQ(x: np.ndarray, frame: SearchFrame, rt: ReducedTensor) -> np.ndarray:
    """Analytic Jacobian of ``eval_fQ`` w.r.t. x (holomorphic, no conjugation).

    Column j differentiates along du = qu[:, j], dW = tq[j]: with Z = I - u u^T / s,
    s = u^T u and ds = 2 u^T du,
    d(Z W) = dW - du (u^T W) / s - u (du^T W + u^T dW) / s + u (u^T W) ds / s^2
           = dW - (du - u ds / s) (u^T W) / s - u (du^T W + u^T dW) / s,
    formed for all r - 1 columns at once as an (n3, n2, r-1) stack. The point
    state (u, s, W, u^T W) is the one ``eval_fQ`` last formed when x is that
    point, bit for bit, as it is at every LM iterate; otherwise it is formed here.
    """
    qu = frame.qu
    if frame.last and frame.last[0] == x.tobytes():
        u, s, wt, uw = frame.last[1]
    else:
        u, s, wt, uw = _fq_state(x, frame)
    n3, m = wt.shape[0], qu.shape[1]
    ds = 2.0 * (u @ qu)  # (r-1,)
    du_s = (qu - u[:, None] * (ds / s)) / s  # (n2, r-1): (du - u ds / s) / s
    cw = (u @ frame.tq_u).reshape(n3, m)
    cw += wt @ qu
    cw /= s  # (n3, r-1): (du^T W + u^T dW) / s
    dzw = np.multiply.outer(uw, du_s)
    dzw += cw[:, None, :] * u[:, None]
    return frame.dw - dzw.reshape(-1, m)


def extract_eigenvalues(s_row: np.ndarray, rt: ReducedTensor) -> np.ndarray:
    """Eigenvalues lambda_k = u^T (T_k^T s) / (u^T u) for k = 2 .. n3.

    The bilinear ratio is degree-0 homogeneous in s, so any nonzero scaling of
    the row yields the same eigenvalues.
    """
    s_row = np.asarray(s_row, dtype=np.complex128).reshape(-1)
    n2 = rt.slice_cols
    u = s_row[:n2]
    denom = _guard(u)
    w = np.tensordot(s_row, rt.T.data, axes=([0], [0]))  # (n2, n3)
    lams = (u @ w) / denom
    return lams[1:]


def eig_residual(s_row: np.ndarray, lambdas: np.ndarray, rt: ReducedTensor) -> float:
    """max_k || T_k^T s - lambda_k s[:n2] || with lambda_1 = 1: the largest block norm of ``eval_eig``."""
    return _max_block_norm(eval_eig(s_row, lambdas, rt), rt.slice_cols)


def _max_block_norm(res: np.ndarray, n2: int) -> float:
    """Largest norm among the length-n2 blocks of an ``eval_eig`` residual."""
    return float(np.max(np.linalg.norm(res.reshape(-1, n2), axis=1)))


def eval_eig(s_row: np.ndarray, lambdas: np.ndarray, rt: ReducedTensor) -> np.ndarray:
    """Raw eigen-equation residual vec(T_k^T s - lambda_k s[:n2]), k = 1 .. n3, lambda_1 = 1."""
    s_row = np.asarray(s_row, dtype=np.complex128).reshape(-1)
    r, n2, n3 = rt.T.data.shape
    lam_full = np.concatenate([[1.0], np.asarray(lambdas, dtype=np.complex128)])
    w = (s_row @ rt.T.data.reshape(r, n2 * n3)).reshape(n2, n3)  # W = sum_a s_a T[a]: column k is T_k^T s
    return (w.T - np.outer(lam_full, s_row[:n2])).reshape(-1)


def jac_eig(s_row: np.ndarray, lambdas: np.ndarray, rt: ReducedTensor) -> np.ndarray:
    """Analytic Jacobian of ``eval_eig`` w.r.t. (s, lambda_2 .. lambda_n3).

    Row block k holds T_k^T - lambda_k [I_n2 0] in the s columns and -s[:n2]
    in the column of lambda_k (none for the fixed lambda_1).
    """
    s_row = np.asarray(s_row, dtype=np.complex128).reshape(-1)
    r, n2, n3 = rt.T.data.shape
    lam_full = np.concatenate([[1.0], np.asarray(lambdas, dtype=np.complex128)])
    j = np.zeros((n3, n2, r + n3 - 1), dtype=np.complex128)  # (block k, row, column)
    j[:, :, :r] = rt.T.data.transpose(2, 1, 0)
    i = np.arange(n2)
    j[:, i, i] -= lam_full[:, None]
    k = np.arange(1, n3)
    j[k, :, r - 1 + k] = -s_row[:n2]
    return j.reshape(n2 * n3, -1)


def _gn_step(j: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Least-squares solution of j delta = b through the normal equations of j's smaller side.

    Tall j: (J^H J) delta = J^H b. Wide j: delta = J^H (J J^H)^{-1} b, the
    minimum-norm solution (Bjorck, Numerical Methods for Least Squares
    Problems, 1996, sections 1.1-1.2). SVD-based gelsd only when the small
    system is exactly singular.
    """
    jh = j.conj().T
    try:
        if j.shape[0] >= j.shape[1]:
            return np.linalg.solve(jh @ j, jh @ b)
        return jh @ np.linalg.solve(j @ jh, b)
    except np.linalg.LinAlgError:
        return np.linalg.lstsq(j, b, rcond=None)[0]


def refine_row(
    s_row: np.ndarray, lambdas: np.ndarray, rt: ReducedTensor, iters: int = 3
) -> tuple[np.ndarray, np.ndarray, float]:
    """Gauss-Newton polish of (s, lambda) on the raw eigen-equations.

    The eigenvalue of a row with a small leading part s[:n2] is poorly
    determined by the projected residual alone; a few joint refinement steps
    push both the direction and the eigenvalues to the round-off floor, which
    stage 2 needs when it reuses the row.

    Each step solves the eigen-equations of blocks k = 2 .. n3 (rows of
    ``jac_eig``) and a gauge row s^H delta_s = 0, which keeps the step tangent
    to the unit sphere, by ``_gn_step``. Block k = 1, T_1^T s - s[:n2], is
    zero by construction (T_1 = I_r[:, :n2], lambda_1 = 1); its rows hold
    only round-off and would make the system numerically rank deficient. The
    system has n2 (n3 - 1) + 1 rows and r + n3 - 1 unknowns, so it is tall on
    20x6x6 and wide on 12x5x3, where the step is the minimum-norm one.
    The row is renormalized after each step. One ``eval_eig`` per iterate
    gives both the next right-hand side and the acceptance value, its largest
    block norm (``eig_residual``). Steps stop at the first that does not
    lower it; the best iterate is returned with its residual.
    """
    r, n2 = rt.rank, rt.slice_cols
    s = np.asarray(s_row, dtype=np.complex128).copy()
    lam = np.asarray(lambdas, dtype=np.complex128).copy()
    res = eval_eig(s, lam, rt)
    best = (s, lam, _max_block_norm(res, n2))
    for _ in range(iters):
        # rows n2 - 1 onward: the last row of block 1 is overwritten by the gauge row
        j = jac_eig(s, lam, rt)[n2 - 1 :]
        j[0, :r] = s.conj()
        j[0, r:] = 0.0
        b = -res[n2 - 1 :]
        b[0] = 0.0
        delta = _gn_step(j, b)
        s = s + delta[:r]
        nrm = np.linalg.norm(s)
        if not 0.0 < nrm < np.inf:
            break
        s = s / nrm
        lam = lam + delta[r:]
        res = eval_eig(s, lam, rt)
        residual = _max_block_norm(res, n2)
        if residual < best[2]:
            best = (s, lam, residual)
        else:
            break
    return best


def accept_row(s_row: np.ndarray, found: EigRowSet, rt: ReducedTensor, iters: int = 3) -> CommonEigRow | None:
    """Polish a candidate row into the next eigenvector row, or None.

    The row is accepted when its eigen-equation residual is at most
    zero against ||T||_F (``residual_is_zero``) after ``refine_row`` and it is numerically
    independent of the rows already found.
    """
    s_row = s_row / np.linalg.norm(s_row)
    try:
        lams = extract_eigenvalues(s_row, rt)
    except DomainGuardViolation:
        return None
    s_row, lams, residual = refine_row(s_row, lams, rt, iters)
    if not residual_is_zero(residual, rt.norm()):
        return None
    if rank_deficient(np.vstack([found.stacked(), s_row])):
        return None  # numerically dependent on the found rows
    return CommonEigRow(s=s_row, lambdas=lams)


def find_next_row(rt: ReducedTensor, found: EigRowSet, rng, deadline: Deadline = Deadline(None)) -> CommonEigRow | None:
    """Multi-start LM search for the next eigenvector row; None when all starts fail."""
    rng = as_rng(rng)
    r = rt.rank
    scale = rt.norm()
    for _ in range(STARTS):
        frame = build_frame(rt, found, rng)
        x0 = complex_normal(rng, r - 1)
        try:
            outcome = minimize(
                lambda x: eval_fQ(x, frame, rt),
                lambda x: jac_fQ(x, frame, rt),
                x0,
                scale=scale,
                deadline=deadline,
            )
        except DomainGuardViolation:
            continue
        if not residual_is_zero(outcome.residual_norm, scale):
            continue
        row = accept_row(frame.Q @ np.concatenate([outcome.x_final, [1.0]]), found, rt)
        if row is not None:
            return row
    return None


def run_stage1(rt: ReducedTensor, opts: SolveOptions, rng, deadline: Deadline = Deadline(None)) -> EigRowSet:
    """Find rows sequentially until one search fails or all r rows are found."""
    rng = as_rng(rng)
    found = EigRowSet(rows=[], target=rt.rank)
    max_rows = rt.rank if opts.stage1_max_rows is None else min(opts.stage1_max_rows, rt.rank)
    while found.p < max_rows:
        if deadline.exceeded():
            break
        row = find_next_row(rt, found, rng, deadline)
        if row is None:
            break
        found.rows.append(row)
    return found
