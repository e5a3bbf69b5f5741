"""Factor assembly and top-level orchestration of the decomposition pipeline.

A complete eigenmatrix S of the reduced slices yields factors of the original
tensor directly: U2 = (S[:, :n2])^T, U3 stacks the eigenvalue rows (first row
all ones), and U1 solves the mode-1 least-squares system
(U2 kr U3) U1^T = Flatten(F, 1)^T; on the low-rank route S is square and U1
and U2 are read through S^{-1} instead. The pipeline routes by rank:

* r <= n2: eigendecomposition of a random combination of the square reduced
  slices (generalized-eigenvalue style);
* n2 < r <= n1: stage 1 (sequential eigenvector search); if it stalls, stage 2
  (commutation solve) completes the eigenmatrix.

Each retry draws fresh stage randomness and a new augmentation C, and mixes
modes 1 and 3 by random unitaries; on the low-rank route it mixes mode 2 too.
"""

from __future__ import annotations

import time

import numpy as np

from .exceptions import (
    AssemblyError,
    ConditioningError,
    DecompositionError,
    DegenerateInputError,
    GenericityError,
    InconsistentSystemError,
    Stage2FailureError,
    UnsupportedRankError,
)
from .linalg import (
    CERTIFIED_COND_MAX, as_rng, complex_normal, least_squares_min_norm, left_eigendecomposition, rank_deficient
)
from .options import Deadline, SolveOptions, is_int
from .preprocess import (
    ReducedTensor,
    build_reduced_tensor,
    build_reduced_tensor_lowrank,
    random_mode_mixing,
)
from .stage1 import EigRowSet, run_stage1
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
_MAX_RETRIES = 5  # attempts after the first, each on randomly mixed modes


def recover_U1_lls(u2: np.ndarray, u3: np.ndarray, f: Tensor3) -> np.ndarray:
    """Solve (U2 kr U3) X = Flatten(f, 1)^T for U1 = X^T."""
    x, deficient = least_squares_min_norm(khatri_rao(u2, u3), mode_k_flatten(f, 1).T)
    if deficient:
        raise AssemblyError("Khatri-Rao matrix is column rank deficient")
    return x.T


def decomposition_from_eigmatrix(rows: EigRowSet, f: Tensor3, rt: ReducedTensor) -> FactorTriple:
    """Turn a complete eigenmatrix into factors of the original tensor."""
    r = rt.rank
    if not rows.complete:
        raise AssemblyError(f"eigenmatrix incomplete: {rows.p} of {r} rows")
    if rank_deficient(rows.S):
        raise AssemblyError("stacked eigenmatrix is numerically singular")
    u2 = rows.S[:, : rt.slice_cols].T
    u3 = np.concatenate([np.ones((1, r), dtype=np.complex128), rows.lambdas])
    u1 = recover_U1_lls(u2, u3, f)
    return FactorTriple(u1, u2, u3, r)


def _simdiag(ms: list, rng) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Simultaneously diagonalize M_2 .. M_n3: (S, U3, S^{-1}), U3 the (n3 x r) eigenvalue table (first row ones).

    Tries M_2 first, then random complex combinations of all M_k (tie-broken
    eigenvalues), each drawn only after the previous candidate failed,
    validating that every S M_k S^{-1} is diagonal to OFFDIAG_TOL. A lone M_2
    (n3 = 2) is tried once: its combinations are multiples of it, with the
    same eigenvectors.
    """
    stack = np.array(ms)
    r = stack.shape[1]
    last_error = "no candidate eigenbasis tried"
    for attempt in range(_EIG_COMBO_TRIES if len(ms) > 1 else 1):
        source = ms[0] if attempt == 0 else np.tensordot(complex_normal(rng, len(ms)), stack, axes=1)
        eig = left_eigendecomposition(source)
        if eig.s_min <= 1e-8:
            last_error = f"eigenbasis ill-conditioned (s_min = {eig.s_min:.2e})"
            continue
        e = eig.S @ stack @ eig.S_inv  # S M_k S^{-1} for every k at once
        diag = np.diagonal(e, axis1=1, axis2=2)  # (n3 - 1, r)
        off = np.linalg.norm(e - diag[:, :, None] * np.eye(r), axis=(1, 2))
        bad = np.flatnonzero(off > OFFDIAG_TOL * np.maximum(np.linalg.norm(e, axis=(1, 2)), 1e-300))
        if bad.size:
            last_error = f"off-diagonal mass {off[bad[0]]:.2e} too large for slice {bad[0] + 2}"
            continue
        return eig.S, np.concatenate([np.ones((1, r), dtype=np.complex128), diag]), eig.S_inv
    raise AssemblyError(f"simultaneous diagonalization failed: {last_error}")


def eigmatrix_from_pkset(ms: list, rng=None) -> EigRowSet:
    """Simultaneously diagonalize the generating matrices M_2 .. M_n3 into an eigenmatrix (see ``_simdiag``)."""
    s, u3, _ = _simdiag(ms, as_rng(rng))
    return EigRowSet(s, u3[1:])


def _factors_from_reduced_eigmatrix(u3: np.ndarray, s_inv: np.ndarray, f: Tensor3, r: int) -> FactorTriple:
    """Low-rank assembly through the eigenbasis S = U2[:r]^T of the square reduced slices.

    f[:, :r, k] S^{-1} = U1 diag(U3[k]) and, with U1 = Q1 R1,
    R1^{-1} Q1^H f[:, :, k] = diag(U3[k]) U2^T; column j of U1 (of U2) is the
    least-squares fit over k in the scalar U3[k, j], exact for a rank-r f.
    """
    w = u3.conj() / np.sum(np.abs(u3) ** 2, axis=0)  # U3's first row is all ones
    # U1[:, j] = sum_{i, k} f[:, i, k] S^{-1}[i, j] w[k, j]
    u1 = f.data[:, :r, :].reshape(f.dims[0], -1) @ khatri_rao(w, s_inv)
    q1, r1 = np.linalg.qr(u1)
    try:
        x = np.linalg.solve(r1, q1.conj().T)  # R1^{-1} Q1^H
    except np.linalg.LinAlgError:
        raise AssemblyError("U1 is column rank deficient") from None
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowing (inf or nan) bound goes to the SVD
        cond_bound = np.linalg.norm(r1) * np.linalg.norm(x)  # >= cond(R1), since ||x||_F = ||R1^{-1}||_F
    if not cond_bound < CERTIFIED_COND_MAX and rank_deficient(r1):  # an SVD only where the bound cannot settle it
        raise AssemblyError("U1 is column rank deficient")
    g = np.tensordot(x, f.data, axes=([1], [0]))  # R1^{-1} Q1^H f[:, :, k]
    return FactorTriple(u1, np.einsum("jbk,kj->bj", g, w), u3, r)


def gevd_lowrank_decompose(f: Tensor3, r: int, rng=None) -> FactorTriple:
    """Low-rank path (r <= n2): eigendecompose a random combination of slices."""
    rt = build_reduced_tensor_lowrank(f, r)
    if rt.n_slices > 1:
        _, u3, s_inv = _simdiag([rt.slice(k) for k in range(2, rt.n_slices + 1)], as_rng(rng))
    else:  # single slice: T_1 = I_r, any basis diagonalizes it
        u3, s_inv = np.ones((1, r), dtype=np.complex128), np.eye(r, dtype=np.complex128)
    return _factors_from_reduced_eigmatrix(u3, s_inv, f, r)


def _middle_rank_attempt(f: Tensor3, r: int, opts: SolveOptions, rng, deadline) -> tuple[FactorTriple, str]:
    rt = build_reduced_tensor(f, r, seed=rng)
    found = run_stage1(rt, opts, rng, deadline)
    if found.complete:
        return decomposition_from_eigmatrix(found, f, rt), "stage1"
    ms = run_stage2(rt, found, rng, deadline)
    rows = eigmatrix_from_pkset(ms, rng)
    return decomposition_from_eigmatrix(rows, f, rt), "stage2"


_RECOVERABLE = (
    AssemblyError,
    ConditioningError,
    GenericityError,
    InconsistentSystemError,
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
    amax = float(np.max(np.abs(work0.data)))
    if amax == 0.0:
        raise DegenerateInputError("cannot decompose the zero tensor")
    # norm() squares entries: pre-scale by max|x| only where that over- or underflows
    prescale = not 2.0**-400 < amax < 2.0**400
    if prescale:
        work0 = Tensor3(work0.data / amax)
    lowrank = r <= work0.dims[1]
    # a unit RMS entry keeps the Gaussian augmentation C commensurate; the
    # low-rank reduction inv(F[:r, :r, 0]) x_1 F[:r, :r, :] is scale-free
    sigma = 1.0
    if not lowrank:
        sigma = work0.norm() / np.sqrt(work0.data.size)
        work0 = Tensor3(work0.data / sigma)

    master = np.random.SeedSequence(opts.seed)
    best: tuple[float, FactorTriple, str] | None = None
    attempts = 0
    last_error: Exception | None = None
    for attempt in range(_MAX_RETRIES + 1):
        if attempt > 0 and deadline.exceeded():
            break
        attempts = attempt + 1
        rng = np.random.default_rng(master.spawn(1)[0])
        mix = attempt > 0
        if mix:
            # the GEVD reads only the leading r x r block of mode 2, so that mode is mixed too
            work, w1, w2, w3 = random_mode_mixing(work0, seed=rng, mode2=lowrank)
        else:
            work = work0
        try:
            if lowrank:
                factors, stage = gevd_lowrank_decompose(work, r, rng), "lowrank-gevd"
            else:
                factors, stage = _middle_rank_attempt(work, r, opts, rng, deadline)
        except _RECOVERABLE as exc:
            last_error = exc
            continue
        if mix:
            u2 = factors.U2 if w2 is None else w2.conj().T @ factors.U2
            factors = FactorTriple(w1.conj().T @ factors.U1, u2, w3.conj().T @ factors.U3, r)
        err = relative_error(work0, factors)
        if best is None or err < best[0]:
            best = (err, factors, stage)
        if err <= opts.success_tol:
            break

    if best is None:
        last = f"{type(last_error).__name__}: {last_error}"
        raise DecompositionError(f"no candidate decomposition after {attempts} attempts; last error {last}")
    err, factors, stage = best
    # undo normalization and mode sorting
    u1 = factors.U1 * sigma
    mats = [u1 * amax if prescale else u1, factors.U2, factors.U3]
    factors = FactorTriple(*(mats[i] for i in np.argsort(order)), r)
    report = DecompReport(
        err_rel=err,
        stage_used=stage,
        retries=attempts - 1,
        elapsed=time.perf_counter() - start,
        seed=opts.seed,
        success=err <= opts.success_tol,
    )
    return factors, report
