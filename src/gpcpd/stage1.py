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
from .options import SolveOptions
from .preprocess import ReducedTensor

STARTS = 12  # LM multi-starts per stage-1 row search and per stage-2 solve
_EPS_ISO = 1e-8  # guard on the bilinear square of the projector axis


@dataclass(frozen=True)
class CommonEigRow:
    """One accepted eigenvector row (unit norm) with its eigenvalues for k >= 2.

    lambda_{.,1} = 1 implicitly: the first reduced slice is (I_r)[:, :n2], so
    T_1^T s = s[:n2] for every s. ``residual`` is the worst eigen-equation
    residual over the slices, relative to nothing (absolute, rows unit norm).
    """

    s: np.ndarray
    lambdas: np.ndarray  # shape (n3 - 1,), entries for k = 2 .. n3
    residual: float


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

    tq[a] = sum_i Q[i, a] T[i, :, :], so xbar^T x_1 T = sum_a y_a tq[a] for
    xbar = Q y.
    """

    Q: np.ndarray
    tq: np.ndarray

    @classmethod
    def from_q(cls, q: np.ndarray, rt: ReducedTensor) -> "SearchFrame":
        return cls(Q=q, tq=np.tensordot(q, rt.T.data, axes=([0], [0])))


def build_frame(rt: ReducedTensor, found: EigRowSet, rng) -> SearchFrame:
    """Frame for searching row p+1: random unitary at p=0, deflating QR after.

    For p >= 1 the first p columns of Q span the found rows; the trailing
    r - p columns are re-randomized by a unitary acting on the orthogonal
    complement.
    """
    r = rt.rank
    rng = as_rng(rng)
    if found.p == 0:
        return SearchFrame.from_q(random_unitary(r, rng), rt)
    q, _ = qr_full(found.stacked().T)
    p = found.p
    if r - p > 0:
        q = q.copy()
        q[:, p:] = q[:, p:] @ random_unitary(r - p, rng)
    return SearchFrame.from_q(q, rt)


def _guard(u: np.ndarray) -> complex:
    """Bilinear square u^T u, guarded against the projector's true singularity."""
    nrm2 = float(np.real(np.vdot(u, u)))
    s = complex(u @ u)
    if nrm2 == 0.0 or abs(s) < _EPS_ISO * nrm2:
        raise DomainGuardViolation("projector axis is numerically isotropic")
    return s


def eval_fQ(x: np.ndarray, frame: SearchFrame, rt: ReducedTensor) -> np.ndarray:
    """Projected residual, zero exactly at generalized common eigenvectors."""
    n2 = rt.slice_cols
    y = np.concatenate([np.asarray(x, dtype=np.complex128).reshape(-1), [1.0]])
    xbar = frame.Q @ y
    u = xbar[:n2]
    s = _guard(u)
    w = y @ frame.tq.swapaxes(0, 1)  # (n2, n3) = xbar^T x_1 T
    zw = w - np.outer(u, (u @ w)) / s
    return zw.reshape(-1, order="F")


def jac_fQ(x: np.ndarray, frame: SearchFrame, rt: ReducedTensor) -> np.ndarray:
    """Analytic Jacobian of ``eval_fQ`` w.r.t. x (holomorphic, no conjugation).

    Column j differentiates along du = Q[:n2, j], dw = tq[j]:
    d(Z W) = dZ W + Z dW with Z = I - u u^T / s and ds = 2 u^T du; all r - 1
    columns are formed at once as an (r-1, n2, n3) stack.
    """
    r = rt.rank
    n2 = rt.slice_cols
    n3 = rt.n_slices
    y = np.concatenate([np.asarray(x, dtype=np.complex128).reshape(-1), [1.0]])
    xbar = frame.Q @ y
    u = xbar[:n2]
    s = _guard(u)
    w = y @ frame.tq.swapaxes(0, 1)
    uw = u @ w  # (n3,)
    du = frame.Q[:n2, : r - 1].T  # (r-1, n2)
    dw = frame.tq[: r - 1]  # (r-1, n2, n3): d(xbar^T x_1 T)/dx_j
    ds = 2.0 * (du @ u)  # (r-1,)
    dzw = (
        dw
        - (du[:, :, None] * uw + u[:, None] * (du @ w + u @ dw)[:, None, :]) / s
        + (ds / s**2)[:, None, None] * np.outer(u, uw)
    )
    return dzw.transpose(2, 1, 0).reshape(n2 * n3, r - 1)


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
    """max_k || T_k^T s - lambda_k s[:n2] || with lambda_1 = 1."""
    s_row = np.asarray(s_row, dtype=np.complex128).reshape(-1)
    n2 = rt.slice_cols
    w = np.tensordot(s_row, rt.T.data, axes=([0], [0]))
    lam_full = np.concatenate([[1.0], np.asarray(lambdas, dtype=np.complex128)])
    res = w - np.outer(s_row[:n2], lam_full)
    return float(np.max(np.linalg.norm(res, axis=0)))


def _unfolded(rt: ReducedTensor) -> np.ndarray:
    """(n2 n3) x r matrix B with B s = vec(T^T s): block k is T_k^T."""
    r, n2, n3 = rt.T.data.shape
    return rt.T.data.transpose(2, 1, 0).reshape(n2 * n3, r)


def eval_eig(s_row: np.ndarray, lambdas: np.ndarray, rt: ReducedTensor) -> np.ndarray:
    """Raw eigen-equation residual vec(T_k^T s - lambda_k s[:n2]), k = 1 .. n3, lambda_1 = 1."""
    s_row = np.asarray(s_row, dtype=np.complex128).reshape(-1)
    lam_full = np.concatenate([[1.0], np.asarray(lambdas, dtype=np.complex128)])
    return _unfolded(rt) @ s_row - np.outer(lam_full, s_row[: rt.slice_cols]).reshape(-1)


def jac_eig(s_row: np.ndarray, lambdas: np.ndarray, rt: ReducedTensor) -> np.ndarray:
    """Analytic Jacobian of ``eval_eig`` w.r.t. (s, lambda_2 .. lambda_n3).

    Row block k holds T_k^T - lambda_k [I_n2 0] in the s columns and -s[:n2]
    in the column of lambda_k (none for the fixed lambda_1).
    """
    s_row = np.asarray(s_row, dtype=np.complex128).reshape(-1)
    r, n2, n3 = rt.T.data.shape
    lam_full = np.concatenate([[1.0], np.asarray(lambdas, dtype=np.complex128)])
    j = np.zeros((n2 * n3, r + n3 - 1), dtype=np.complex128)
    j[:, :r] = _unfolded(rt)
    rows = np.arange(n2 * n3)
    j[rows, rows % n2] -= np.repeat(lam_full, n2)
    tail = rows[n2:]
    j[tail, r - 1 + tail // n2] = -np.tile(s_row[:n2], n3 - 1)
    return j


def refine_row(
    s_row: np.ndarray, lambdas: np.ndarray, rt: ReducedTensor, iters: int = 3
) -> tuple[np.ndarray, np.ndarray, float]:
    """Gauss-Newton polish of (s, lambda) on the raw eigen-equations.

    The eigenvalue of a row with a small leading part s[:n2] is poorly
    determined by the projected residual alone; a few joint refinement steps
    push both the direction and the eigenvalues to the round-off floor, which
    stage 2 needs when it reuses the row. Keeps the row unit norm.
    """
    r = rt.rank
    s = np.asarray(s_row, dtype=np.complex128).copy()
    lam = np.asarray(lambdas, dtype=np.complex128).copy()
    best = (s, lam, eig_residual(s, lam, rt))
    for _ in range(iters):
        # gauge row: move within the unit sphere's tangent space
        j = np.vstack([jac_eig(s, lam, rt), np.concatenate([s.conj(), np.zeros(lam.size)])])
        rhs = -np.concatenate([eval_eig(s, lam, rt), [0.0]])
        delta, _, _, _ = np.linalg.lstsq(j, rhs, rcond=None)
        s = s + delta[:r]
        nrm = np.linalg.norm(s)
        if nrm == 0.0:
            break
        s = s / nrm
        lam = lam + delta[r:]
        residual = eig_residual(s, lam, rt)
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
    return CommonEigRow(s=s_row, lambdas=lams, residual=residual)


def find_next_row(rt: ReducedTensor, found: EigRowSet, rng) -> CommonEigRow | None:
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
            )
        except DomainGuardViolation:
            continue
        if not residual_is_zero(outcome.residual_norm, scale):
            continue
        row = accept_row(frame.Q @ np.concatenate([outcome.x_final, [1.0]]), found, rt)
        if row is not None:
            return row
    return None


def run_stage1(rt: ReducedTensor, opts: SolveOptions, rng, deadline=None) -> EigRowSet:
    """Find rows sequentially until one search fails or all r rows are found."""
    rng = as_rng(rng)
    found = EigRowSet(rows=[], target=rt.rank)
    max_rows = rt.rank if opts.stage1_max_rows is None else min(opts.stage1_max_rows, rt.rank)
    while found.p < max_rows:
        if deadline is not None and deadline.exceeded():
            break
        row = find_next_row(rt, found, rng)
        if row is None:
            break
        found.rows.append(row)
    return found
