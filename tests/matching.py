"""Equivalence testing of CP decompositions up to column permutation and scaling.

Columns are compared with the scale-invariant correlation |u^H v| / (||u|| ||v||),
which is 1 exactly when the columns are complex-collinear (for real data it
equals the plain normalized bilinear correlation). Assignment is greedy on the
pairwise correlation matrix of the third factor, then validated on the others.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from gpcpd.exceptions import DimensionMismatchError
from gpcpd.tensors import FactorTriple, khatri_rao


def correlation_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """C[i, j] = |a[:, i]^H b[:, j]| / (||a[:, i]|| ||b[:, j]||)."""
    a = np.asarray(a, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128)
    na = np.linalg.norm(a, axis=0)
    nb = np.linalg.norm(b, axis=0)
    na[na == 0.0] = 1.0
    nb[nb == 0.0] = 1.0
    return np.abs(a.conj().T @ b) / np.outer(na, nb)


def greedy_assign(corr: np.ndarray) -> np.ndarray:
    """perm[i] = column of b matched to column i of a, best correlations first."""
    n = corr.shape[0]
    if corr.shape[1] != n:
        raise DimensionMismatchError("greedy assignment needs a square correlation matrix")
    work = corr.copy()
    perm = np.full(n, -1, dtype=int)
    for _ in range(n):
        i, j = np.unravel_index(np.argmax(work), work.shape)
        perm[i] = j
        work[i, :] = -1.0
        work[:, j] = -1.0
    return perm


@dataclass(frozen=True)
class MatchResult:
    permutation: np.ndarray  # b-column matched to each a-column
    corr_u1: np.ndarray
    corr_u2: np.ndarray
    corr_u3: np.ndarray

    @property
    def min_correlation(self) -> float:
        return float(min(self.corr_u1.min(), self.corr_u2.min(), self.corr_u3.min()))


def match_factor_triples(a: FactorTriple, b: FactorTriple) -> MatchResult:
    """Match b's columns to a's (by U3 correlation, then U2 tie-breaks via product)."""
    if a.rank != b.rank:
        raise DimensionMismatchError(f"ranks differ: {a.rank} vs {b.rank}")
    c3 = correlation_matrix(a.U3, b.U3)
    c2 = correlation_matrix(a.U2, b.U2)
    perm = greedy_assign(c3 * c2)
    idx = np.arange(a.rank)
    c1 = correlation_matrix(a.U1, b.U1)
    return MatchResult(
        permutation=perm,
        corr_u1=c1[idx, perm],
        corr_u2=c2[idx, perm],
        corr_u3=c3[idx, perm],
    )


def triples_equivalent(a: FactorTriple, b: FactorTriple, tol: float = 1e-6) -> bool:
    return match_factor_triples(a, b).min_correlation >= 1.0 - tol


def kr_columns(f: FactorTriple) -> np.ndarray:
    """Columns u3_j kron u2_j, the rank-one directions seen by the first mode."""
    return khatri_rao(f.U2, f.U3)


def unmatched_kr_columns(a: FactorTriple, b: FactorTriple, tol: float = 1e-6) -> np.ndarray:
    """Indices of b's Khatri-Rao columns with no collinear partner among a's."""
    corr = correlation_matrix(kr_columns(a), kr_columns(b))
    return np.where(corr.max(axis=0) < 1.0 - tol)[0]


def essentially_distinct(a: FactorTriple, b: FactorTriple, tol: float = 1e-6) -> bool:
    """Distinct decompositions differ in at least one rank-one direction."""
    return unmatched_kr_columns(a, b, tol).size > 0
