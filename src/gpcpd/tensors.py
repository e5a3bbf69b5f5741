"""Dense order-3 complex tensors and the multilinear primitives built on them.

Conventions used throughout the package:

* entries are complex double precision, 1-based (i1, i2, i3) in the math and
  0-based in code; the canonical storage order is i3-fastest lexicographic
  (plain C order of a (n1, n2, n3) array);
* ``mode_k_flatten`` orders its columns with the non-k modes ascending and the
  first of them varying fastest, so ``flatten(t, 1) = U1 @ khatri_rao(U2, U3).T``
  for a tensor with factors (U1, U2, U3);
* ``khatri_rao(a, b)`` is the reverse-order product: column j is
  ``kron(b[:, j], a[:, j])``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import DegenerateInputError, DimensionMismatchError


def _as_complex(a) -> np.ndarray:
    return np.asarray(a, dtype=np.complex128)


class Tensor3:
    """Immutable dense order-3 tensor over the complex numbers."""

    __slots__ = ("data",)

    def __init__(self, data):
        arr = np.array(data, dtype=np.complex128)
        if arr.ndim != 3:
            raise DimensionMismatchError(f"expected 3 modes, got shape {arr.shape}")
        if min(arr.shape) < 1:
            raise DimensionMismatchError(f"dimensions must be positive, got {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise DegenerateInputError("tensor entries must be finite")
        arr.flags.writeable = False
        self.data = arr

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.data.shape

    def norm(self) -> float:
        """Frobenius norm, sum of |entry|^2 under the conjugated inner product."""
        return float(np.linalg.norm(self.data))

    def permute_modes(self, perm) -> "Tensor3":
        """Reorder modes; ``perm[i]`` is the source mode of new mode i (0-based)."""
        if tuple(perm) == (0, 1, 2):
            return self  # immutable, so the identity needs no copy
        return Tensor3(np.transpose(self.data, perm))

    def is_real(self) -> bool:
        return not np.any(self.data.imag)

    def __eq__(self, other):
        return isinstance(other, Tensor3) and self.dims == other.dims and np.array_equal(
            self.data, other.data
        )

    def __repr__(self):
        return f"Tensor3(dims={self.dims})"


@dataclass(frozen=True)
class FactorTriple:
    """A CP decomposition U1 (n1 x r), U2 (n2 x r), U3 (n3 x r) of declared rank r."""

    U1: np.ndarray
    U2: np.ndarray
    U3: np.ndarray
    rank: int

    def __post_init__(self):
        for name in ("U1", "U2", "U3"):
            u = _as_complex(getattr(self, name))
            if u.ndim != 2 or u.shape[1] != self.rank:
                raise DimensionMismatchError(
                    f"{name} must have {self.rank} columns, got shape {u.shape}"
                )
            if not np.all(np.isfinite(u)):
                raise DegenerateInputError(f"{name} entries must be finite")
            if self.rank > 0 and bool(np.any(np.all(u == 0, axis=0))):
                raise DegenerateInputError(f"{name} has a zero column; represented rank < {self.rank}")
            u.flags.writeable = False
            object.__setattr__(self, name, u)
        if self.rank < 1:
            raise DimensionMismatchError("rank must be >= 1")

    @property
    def dims(self) -> tuple[int, int, int]:
        return (self.U1.shape[0], self.U2.shape[0], self.U3.shape[0])


@dataclass(frozen=True)
class DecompReport:
    """Outcome record of one decomposition run."""

    err_rel: float
    stage_used: str  # "lowrank-gevd" | "stage1" | "stage2"
    retries: int
    elapsed: float
    seed: int | None
    success: bool


def _cpd_array(f: FactorTriple) -> np.ndarray:
    """sum_j U1[:, j] (outer) U2[:, j] (outer) U3[:, j] as one GEMM.

    Row b n3 + c of khatri_rao(U3, U2) is U2[b] * U3[c], so U1 times its
    transpose is the (n1, n2 n3) C-order unfolding of the tensor.
    """
    return (f.U1 @ khatri_rao(f.U3, f.U2).T).reshape(f.dims)


def cpd_to_tensor(f: FactorTriple) -> Tensor3:
    """Evaluate sum_j U1[:, j] (outer) U2[:, j] (outer) U3[:, j]."""
    return Tensor3(_cpd_array(f))


_MODE_ORDER = {1: (0, 2, 1), 2: (1, 2, 0), 3: (2, 1, 0)}


def mode_k_flatten(t: Tensor3, k: int) -> np.ndarray:
    """Mode-k flattening, n_k x (n1 n2 n3 / n_k).

    Column index of entry (i1, i2, i3) is sum over the non-k modes, taken in
    ascending order, of (i_l - 1) times the product of the earlier non-k
    dimensions; the first non-k mode varies fastest.
    """
    if k not in (1, 2, 3):
        raise DimensionMismatchError(f"mode must be 1, 2 or 3, got {k}")
    axes = _MODE_ORDER[k]
    n1, n2, n3 = t.dims
    nk = t.dims[k - 1]
    return np.transpose(t.data, axes).reshape(nk, (n1 * n2 * n3) // nk)


def unflatten_mode_k(m: np.ndarray, dims, k: int) -> Tensor3:
    """Inverse of :func:`mode_k_flatten` for the given full tensor dims."""
    if k not in (1, 2, 3):
        raise DimensionMismatchError(f"mode must be 1, 2 or 3, got {k}")
    m = _as_complex(m)
    n1, n2, n3 = dims
    axes = _MODE_ORDER[k]
    shape = tuple(dims[a] for a in axes)
    if m.shape != (dims[k - 1], (n1 * n2 * n3) // dims[k - 1]):
        raise DimensionMismatchError(f"flattening shape {m.shape} does not match dims {dims}")
    return Tensor3(np.transpose(m.reshape(shape), np.argsort(axes)))


def mode_t_matrix_product(v: np.ndarray, t: Tensor3, mode: int) -> Tensor3:
    """Apply v to every mode fiber: result dims replace n_mode by v.shape[0]."""
    if mode not in (1, 2, 3):
        raise DimensionMismatchError(f"mode must be 1, 2 or 3, got {mode}")
    v = _as_complex(v)
    if v.ndim != 2 or v.shape[1] != t.dims[mode - 1]:
        raise DimensionMismatchError(
            f"matrix shape {v.shape} incompatible with mode-{mode} size {t.dims[mode - 1]}"
        )
    out = np.tensordot(v, t.data, axes=([1], [mode - 1]))
    return Tensor3(np.moveaxis(out, 0, mode - 1))


def khatri_rao(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Reverse-order Khatri-Rao product: column j is kron(b[:, j], a[:, j])."""
    a = _as_complex(a)
    b = _as_complex(b)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[1]:
        raise DimensionMismatchError(f"column counts differ: {a.shape} vs {b.shape}")
    # (b row-block) * (a broadcast): entry ((ib, ia), j) = b[ib, j] a[ia, j]
    m, n = a.shape
    p = b.shape[0]
    return (b[:, None, :] * a[None, :, :]).reshape(p * m, n)


def vec(m: np.ndarray) -> np.ndarray:
    """Column-stacking vectorization (matches vec(AXB) = (B^T kron A) vec(X))."""
    return np.asarray(m).reshape(-1, order="F")


def relative_error(t: Tensor3, f: FactorTriple) -> float:
    """Relative backward error ||t - cpd(f)||_F / ||t||_F."""
    if f.dims != t.dims:
        raise DimensionMismatchError(f"factor dims {f.dims} do not match tensor dims {t.dims}")
    denom = t.norm()
    if denom == 0.0:
        raise DegenerateInputError("relative error undefined for the zero tensor")
    return float(np.linalg.norm(t.data - _cpd_array(f))) / denom
