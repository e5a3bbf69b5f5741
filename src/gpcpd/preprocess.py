"""Reduction of a rank-r tensor to a canonical form with identity-like first slice.

Middle-rank case (n2 < r <= n1): the first r mode-1 rows are kept, the first
slice F[0:r, :, 0] is augmented by a random complex Gaussian block C to a
nonsingular square matrix Fhat, and the reduced tensor is T = inv(Fhat) x_1
F[0:r, :, :], whose first slice equals the first n2 columns of I_r.

Low-rank case (r <= n2): T = inv(F[0:r, 0:r, 0]) x_1 F[0:r, 0:r, :] with
square r x r slices and first slice exactly I_r.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import ConditioningError, DimensionMismatchError, GenericityError
from .linalg import as_rng, complex_normal, condition_estimate, random_unitary, rank_deficient, spectrum_deficient
from .tensors import Tensor3, mode_t_matrix_product

_COND_CAP = 1e8
_MAX_REDRAWS = 10


@dataclass(frozen=True)
class ReducedTensor:
    """Preprocessed tensor T with its mixing data.

    T has dims (r, m, n3) where m = n2 in the middle-rank case and m = r in
    the low-rank case. P is the r x r mixing matrix (inverse of the augmented
    first slice), C the r x (r - n2) augmentation (empty for low rank).
    """

    T: Tensor3
    P: np.ndarray
    C: np.ndarray
    rank: int
    cond_fhat: float

    @property
    def n_slices(self) -> int:
        return self.T.dims[2]

    @property
    def slice_cols(self) -> int:
        return self.T.dims[1]

    def slice(self, k: int) -> np.ndarray:
        """Slice T_k, 1-based as in the math."""
        return self.T.data[:, :, k - 1]

    def norm(self) -> float:
        return self.T.norm()


def build_reduced_tensor(f: Tensor3, r: int, seed=None) -> ReducedTensor:
    """Middle-rank reduction; redraws C (<= 10 times) until cond(Fhat) <= 1e8."""
    n1, n2, n3 = f.dims
    if not (n2 < r <= n1):
        raise DimensionMismatchError(f"middle-rank reduction needs n2 < r <= n1, got r={r}, dims={f.dims}")
    rng = as_rng(seed)
    front = f.data[:r, :, 0]
    if rank_deficient(front):
        raise GenericityError("first slice of the leading sub-tensor is column rank deficient")
    fhat = None
    cond = np.inf
    c = np.zeros((r, 0), dtype=np.complex128)
    for _ in range(_MAX_REDRAWS):
        c = complex_normal(rng, (r, r - n2))
        cand = np.concatenate([front, c], axis=1)
        cond = condition_estimate(cand)
        if cond <= _COND_CAP:
            fhat = cand
            break
    if fhat is None:
        raise ConditioningError(f"augmented first slice stayed ill-conditioned (cond ~ {cond:.2e})")
    p = np.linalg.inv(fhat)
    t = Tensor3(np.tensordot(p, f.data[:r, :, :], axes=([1], [0])))
    return ReducedTensor(T=t, P=p, C=c, rank=r, cond_fhat=float(cond))


def build_reduced_tensor_lowrank(f: Tensor3, r: int) -> ReducedTensor:
    """Low-rank reduction (r <= n2): square r x r slices, first slice I_r."""
    n1, n2, n3 = f.dims
    if not (1 <= r <= n2):
        raise DimensionMismatchError(f"low-rank reduction needs 1 <= r <= n2, got r={r}, dims={f.dims}")
    lead = f.data[:r, :r, 0]
    sv = np.linalg.svd(lead, compute_uv=False)
    if spectrum_deficient(sv):
        raise GenericityError("leading r x r block of the first slice is numerically singular")
    p = np.linalg.inv(lead)
    t = Tensor3(np.tensordot(p, f.data[:r, :r, :], axes=([1], [0])))
    return ReducedTensor(
        T=t,
        P=p,
        C=np.zeros((r, 0), dtype=np.complex128),
        rank=r,
        cond_fhat=float(sv[0] / sv[-1]),
    )


def random_mode_mixing(f: Tensor3, seed=None, mode2: bool = False):
    """Mix modes 1 and 3, and mode 2 when ``mode2``, by random unitaries to restore genericity.

    Returns (g, W1, W2, W3) with g = W1 x_1 (W2 x_2 (W3 x_3 f)); W2 is None
    when mode 2 is left alone. Factors of g map back to factors of f via
    U_k = W_k^{-1} U_k' (here W_k unitary, so the inverses are conjugate
    transposes). W2 is drawn after W1 and W3, so mixing it leaves their draws
    unchanged.
    """
    rng = as_rng(seed)
    n1, n2, n3 = f.dims
    w1 = random_unitary(n1, rng)
    w3 = random_unitary(n3, rng)
    w2 = random_unitary(n2, rng) if mode2 else None
    g = mode_t_matrix_product(w3, f, mode=3)
    if w2 is not None:
        g = mode_t_matrix_product(w2, g, mode=2)
    return mode_t_matrix_product(w1, g, mode=1), w1, w2, w3
