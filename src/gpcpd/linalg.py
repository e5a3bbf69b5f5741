"""Dense complex factorizations and solves, defined by contract over numpy.linalg.

All transposes in the algorithmic formulas elsewhere in the package are plain
(bilinear); conjugation appears only inside the factorization contracts and
norms implemented here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import SingularMatrixError


# singular values at or below RANK_REL_TOL * sigma_max count as zero
RANK_REL_TOL = 1e-10
# a residual at or below RESIDUAL_ZERO_TOL times its scale counts as zero
RESIDUAL_ZERO_TOL = 1e-8


def rank_deficient(a: np.ndarray) -> bool:
    """True when a's smallest singular value is numerically zero (or a is empty or zero)."""
    s = np.linalg.svd(np.asarray(a, dtype=np.complex128), compute_uv=False)
    return s.size == 0 or s[0] == 0.0 or s[-1] <= RANK_REL_TOL * s[0]


def residual_is_zero(residual: float, scale: float) -> bool:
    return residual <= RESIDUAL_ZERO_TOL * scale


def as_rng(seed_or_rng) -> np.random.Generator:
    """Accept an int seed, a Generator, or None (fresh entropy)."""
    if isinstance(seed_or_rng, np.random.Generator):
        return seed_or_rng
    return np.random.default_rng(seed_or_rng)


def complex_normal(rng: np.random.Generator, shape) -> np.ndarray:
    """Standard complex Gaussian: unit total variance per entry."""
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def qr_full(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Full QR: a = Q R with Q square unitary, R upper triangular."""
    a = np.asarray(a, dtype=np.complex128)
    return np.linalg.qr(a, mode="complete")


def null_space_basis(a: np.ndarray) -> np.ndarray:
    """Orthonormal basis N (n x d) of the numerical null space of a (m x n)."""
    a = np.asarray(a, dtype=np.complex128)
    m, n = a.shape
    if m == 0:
        return np.eye(n, dtype=np.complex128)
    # vh is n x n either way; the full m x m U of a tall matrix is never needed
    _, s, vh = np.linalg.svd(a, full_matrices=(m < n))
    if s.size and s[0] > 0.0:
        rank = int(np.sum(s > RANK_REL_TOL * s[0]))
    else:
        rank = 0
    return vh[rank:, :].conj().T


def least_squares_min_norm(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, float]:
    """Minimum-norm least-squares solution of a x = b; returns (x, ||ax - b||_F)."""
    a = np.asarray(a, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128)
    x, _, _, _ = np.linalg.lstsq(a, b, rcond=RANK_REL_TOL)
    residual = float(np.linalg.norm(a @ x - b))
    return x, residual


@dataclass(frozen=True)
class LeftEig:
    """Left eigendecomposition S m = diag(values) S (rowwise), rows unit-norm.

    ``s_min`` is the smallest singular value of S; a tiny value flags a
    defective or near-defective input for the caller to act on.
    """

    S: np.ndarray
    values: np.ndarray
    s_min: float


def left_eigendecomposition(m: np.ndarray) -> LeftEig:
    m = np.asarray(m, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise SingularMatrixError(f"square matrix required, got {m.shape}")
    values, v = np.linalg.eig(m)
    try:
        s = np.linalg.inv(v)
    except np.linalg.LinAlgError:
        s = np.linalg.pinv(v)
    norms = np.linalg.norm(s, axis=1)
    norms[norms == 0.0] = 1.0
    s = s / norms[:, None]
    sv = np.linalg.svd(s, compute_uv=False)
    return LeftEig(S=s, values=values, s_min=float(sv[-1]))


def random_unitary(r: int, seed_or_rng=None) -> np.ndarray:
    """Haar-distributed r x r unitary: QR of a complex Gaussian with phase-fixed R."""
    if r < 1:
        raise ValueError("r must be >= 1")
    rng = as_rng(seed_or_rng)
    z = complex_normal(rng, (r, r))
    q, rr = np.linalg.qr(z)
    d = np.diagonal(rr).copy()
    d[d == 0.0] = 1.0
    return q * (d / np.abs(d))


def condition_estimate(a: np.ndarray) -> float:
    """sigma_max / sigma_min via SVD (inf when singular)."""
    s = np.linalg.svd(np.asarray(a, dtype=np.complex128), compute_uv=False)
    if s.size == 0 or s[-1] == 0.0:
        return float("inf")
    return float(s[0] / s[-1])
