"""Factor assembly and top-level orchestration of the decomposition pipeline.

A complete eigenmatrix S of the reduced slices yields factors of the original
tensor directly: U2 = (S[:, :n2])^T, U3 stacks the eigenvalue rows (first row
all ones), and U1 solves the mode-1 least-squares system
(U2 kr U3) U1^T = Flatten(F, 1)^T. The pipeline routes by rank:

* r <= n2: eigendecomposition of a random combination of the square reduced
  slices (generalized-eigenvalue style);
* n2 < r <= n1: stage 1 (sequential eigenvector search); if it stalls, stage 2
  (commutation solve) completes the eigenmatrix.

Each retry draws fresh stage randomness and a new augmentation C, and mixes
modes 1 and 3 by random unitaries.
"""

from __future__ import annotations

import time

import numpy as np

from .exceptions import (
    AssemblyError,
    ConditioningError,
    DecompositionError,
    DegenerateInputError,
    DomainGuardViolation,
    GenericityError,
    InconsistentSystemError,
    SingularMatrixError,
    Stage2FailureError,
    UnsupportedRankError,
)
from .linalg import as_rng, complex_normal, least_squares_min_norm, left_eigendecomposition, rank_deficient
from .options import Deadline, SolveOptions, is_int
from .preprocess import (
    ReducedTensor,
    build_reduced_tensor,
    build_reduced_tensor_lowrank,
    random_mode_mixing,
)
from .stage1 import CommonEigRow, EigRowSet, run_stage1
from .stage2 import run_stage2
from .tensors import (
    DecompReport,
    FactorTriple,
    Tensor3,
    khatri_rao,
    mode_k_flatten,
    relative_error,
)

_EIG_COMBO_TRIES = 4
OFFDIAG_TOL = 1e-6  # off-diagonal mass of S M_k S^{-1}, relative, still counted diagonal
_MAX_RETRIES = 5  # attempts after the first; every retry mixes modes 1 and 3


def recover_U1_lls(u2: np.ndarray, u3: np.ndarray, f: Tensor3) -> tuple[np.ndarray, float]:
    """Solve (U2 kr U3) X = Flatten(f, 1)^T for U1 = X^T; returns (U1, rel residual)."""
    a = khatri_rao(u2, u3)
    b = mode_k_flatten(f, 1).T
    x, residual, deficient = least_squares_min_norm(a, b)
    if deficient:
        raise AssemblyError("Khatri-Rao matrix of U2, U3 is column rank deficient")
    rel = residual / max(float(np.linalg.norm(b)), 1e-300)
    return x.T, rel


def decomposition_from_eigmatrix(rows: EigRowSet, f: Tensor3, rt: ReducedTensor) -> FactorTriple:
    """Turn a complete eigenmatrix into factors of the original tensor."""
    if not rows.complete:
        raise AssemblyError(f"eigenmatrix incomplete: {rows.p} of {rows.target} rows")
    s = rows.stacked()
    if rank_deficient(s):
        raise AssemblyError("stacked eigenmatrix is numerically singular")
    n2 = rt.slice_cols
    u2 = s[:, :n2].T
    u3 = rows.lambda_matrix()
    u1, _ = recover_U1_lls(u2, u3, f)
    return FactorTriple(u1, u2, u3, rows.target)


def eigmatrix_from_pkset(ms: list, rt: ReducedTensor, rng=None) -> EigRowSet:
    """Simultaneously diagonalize the generating matrices M_2 .. M_n3 into an eigenmatrix.

    Tries M_2 first, then random complex combinations of all M_k (tie-broken
    eigenvalues), validating that every S M_k S^{-1} is diagonal to OFFDIAG_TOL.
    A lone M_2 (n3 = 2) is tried once: its combinations are multiples of it,
    with the same eigenvectors.
    """
    rng = as_rng(rng)
    r = rt.rank
    n3 = rt.n_slices
    candidates = [ms[0]]
    if len(ms) > 1:
        for _ in range(_EIG_COMBO_TRIES - 1):
            alpha = complex_normal(rng, len(ms))
            candidates.append(sum(a * m for a, m in zip(alpha, ms)))
    last_error = "no candidate eigenbasis tried"
    for source in candidates:
        eig = left_eigendecomposition(source)
        if eig.s_min <= 1e-8:
            last_error = f"eigenbasis ill-conditioned (s_min = {eig.s_min:.2e})"
            continue
        s = eig.S
        try:
            s_inv = np.linalg.inv(s)
        except np.linalg.LinAlgError:
            last_error = "eigenbasis singular"
            continue
        lambdas = np.empty((r, n3 - 1), dtype=np.complex128)
        ok = True
        for idx, m in enumerate(ms):
            e = s @ m @ s_inv
            diag = np.diag(np.diagonal(e))
            off = float(np.linalg.norm(e - diag))
            if off > OFFDIAG_TOL * max(float(np.linalg.norm(e)), 1e-300):
                ok = False
                last_error = f"off-diagonal mass {off:.2e} too large for slice {idx + 2}"
                break
            lambdas[:, idx] = np.diagonal(e)
        if not ok:
            continue
        return EigRowSet(rows=[CommonEigRow(s=s[i, :], lambdas=lambdas[i, :]) for i in range(r)], target=r)
    raise AssemblyError(f"simultaneous diagonalization failed: {last_error}")


def _factors_from_reduced_eigmatrix(rows: EigRowSet, f: Tensor3, r: int) -> FactorTriple:
    """Low-rank assembly: the reduced slices are square, so S gives the leading
    r x r block of U2; U1 then comes from mode-1 least squares on f[:, :r, :]
    and the full U2 from mode-2 least squares on f."""
    s = rows.stacked()
    u2_lead = s.T  # r x r
    u3 = rows.lambda_matrix()
    sub = Tensor3(f.data[:, :r, :])
    u1, _ = recover_U1_lls(u2_lead, u3, sub)
    a = khatri_rao(u1, u3)  # mode-2 system: Flatten(f, 2)^T = (U1 kr U3) U2^T
    x, _, deficient = least_squares_min_norm(a, mode_k_flatten(f, 2).T)
    if deficient:
        raise AssemblyError("mode-2 Khatri-Rao matrix rank deficient")
    return FactorTriple(u1, x.T, u3, r)


def gevd_lowrank_decompose(f: Tensor3, r: int, rng=None) -> FactorTriple:
    """Low-rank path (r <= n2): eigendecompose a random combination of slices."""
    rng = as_rng(rng)
    rt = build_reduced_tensor_lowrank(f, r)
    n3 = rt.n_slices
    ms = [rt.slice(k) for k in range(2, n3 + 1)]
    if ms:
        rows = eigmatrix_from_pkset(ms, rt, rng)
    else:  # single slice: T_1 = I_r, any basis diagonalizes it
        rows = EigRowSet(
            rows=[
                CommonEigRow(s=np.eye(r, dtype=np.complex128)[i], lambdas=np.zeros(0, dtype=np.complex128))
                for i in range(r)
            ],
            target=r,
        )
    return _factors_from_reduced_eigmatrix(rows, f, r)


def _middle_rank_attempt(f: Tensor3, r: int, opts: SolveOptions, rng, deadline) -> tuple[FactorTriple, str]:
    rt = build_reduced_tensor(f, r, seed=rng)
    found = run_stage1(rt, opts, rng, deadline)
    if found.complete:
        return decomposition_from_eigmatrix(found, f, rt), "stage1"
    ms = run_stage2(rt, found, rng, deadline)
    rows = eigmatrix_from_pkset(ms, rt, rng)
    return decomposition_from_eigmatrix(rows, f, rt), "stage2"


_RECOVERABLE = (
    AssemblyError,
    ConditioningError,
    DomainGuardViolation,
    GenericityError,
    InconsistentSystemError,
    SingularMatrixError,
    Stage2FailureError,
)


def decompose(f: Tensor3, r: int, opts: SolveOptions | None = None) -> tuple[FactorTriple, DecompReport]:
    """Compute a rank-r CP decomposition of an order-3 tensor.

    Modes are sorted so the working dims are descending; output factors are
    permuted back. Ranks above the largest dimension are out of scope.
    On exhausted retries the best candidate found is returned with a failure
    report; if no attempt produced factors at all, DecompositionError is raised.
    """
    opts = opts or SolveOptions()
    start = time.perf_counter()
    deadline = Deadline(opts.time_limit)
    dims = f.dims
    if not (is_int(r) and 1 <= r <= max(dims)):
        raise UnsupportedRankError(f"rank {r!r} unsupported for dims {dims}: need an integer 1 <= r <= {max(dims)}")
    order = tuple(np.argsort([-d for d in dims], kind="stable"))
    work0 = f.permute_modes(order)
    # unit RMS entry scale keeps the Gaussian augmentation block commensurate
    sigma = work0.norm() / np.sqrt(work0.data.size)
    if sigma == 0.0:
        raise DegenerateInputError("cannot decompose the zero tensor")
    work0 = Tensor3(work0.data / sigma)
    n2 = work0.dims[1]
    lowrank = r <= n2

    master = np.random.SeedSequence(opts.seed)
    best: tuple[float, FactorTriple, str] | None = None
    attempts = 0
    for attempt in range(_MAX_RETRIES + 1):
        if attempt > 0 and deadline.exceeded():
            break
        attempts = attempt + 1
        rng = np.random.default_rng(master.spawn(1)[0])
        mix = attempt > 0
        if mix:
            work, w1, v3 = random_mode_mixing(work0, seed=rng)
        else:
            work, w1, v3 = work0, None, None
        try:
            if lowrank:
                factors, stage = gevd_lowrank_decompose(work, r, rng), "lowrank-gevd"
            else:
                factors, stage = _middle_rank_attempt(work, r, opts, rng, deadline)
        except _RECOVERABLE:
            continue
        if mix:
            factors = FactorTriple(
                w1.conj().T @ factors.U1, factors.U2, v3.conj().T @ factors.U3, r
            )
        err = relative_error(work0, factors)
        if best is None or err < best[0]:
            best = (err, factors, stage)
        if err <= opts.success_tol:
            break

    if best is None:
        raise DecompositionError(f"no candidate decomposition after {attempts} attempts")
    err, factors, stage = best
    # undo normalization and mode sorting
    factors = FactorTriple(factors.U1 * sigma, factors.U2, factors.U3, r)
    inverse = tuple(np.argsort(order))
    mats = [factors.U1, factors.U2, factors.U3]
    factors = FactorTriple(mats[inverse[0]], mats[inverse[1]], mats[inverse[2]], r)
    report = DecompReport(
        err_rel=err,
        stage_used=stage,
        retries=attempts - 1,
        elapsed=time.perf_counter() - start,
        seed=opts.seed,
        success=err <= opts.success_tol,
    )
    return factors, report
