"""Plain alternating least squares CP baseline.

Each sweep solves the three Khatri-Rao least-squares problems in cyclic order,
so the fit residual is nonincreasing per sweep. No line search, no
regularization: a deliberately plain baseline.
"""

from __future__ import annotations

import numpy as np

from .exceptions import DecompositionError
from .linalg import as_rng
from .tensors import FactorTriple, Tensor3, khatri_rao, mode_k_flatten

_MAX_RESTARTS = 3
_MAX_SWEEPS = 500
_REL_CHANGE_TOL = 1e-10  # stop once a sweep lowers err-rel by at most this, relative


def _init_factors(dims, r, real_input, rng):
    mats = []
    for n in dims:
        m = rng.standard_normal((n, r))
        if not real_input:
            m = m + 1j * rng.standard_normal((n, r))
        mats.append(m.astype(np.complex128))
    return mats


def als_decompose(f: Tensor3, r: int, seed=None) -> tuple[FactorTriple, np.ndarray]:
    """Run ALS from a random init; returns (factors, per-sweep err-rel trace).

    ``seed`` (an int, a Generator or None) draws the initial factors. A run
    stops after 500 sweeps or once a sweep lowers err-rel by at most 1e-10 of
    itself. A rank-deficient Khatri-Rao system mid-sweep triggers a fresh restart
    (at most 3); the trace covers the returned run only.
    """
    if r < 1:
        raise DecompositionError("rank must be >= 1")
    rng = as_rng(seed)
    flats = [mode_k_flatten(f, k).T for k in (1, 2, 3)]
    fnorm = f.norm()
    real_input = f.is_real()

    for _ in range(_MAX_RESTARTS + 1):
        u1, u2, u3 = _init_factors(f.dims, r, real_input, rng)
        trace = []
        deficient = False
        prev = None
        for _ in range(_MAX_SWEEPS):
            for mode in (1, 2, 3):
                if mode == 1:
                    a, target = khatri_rao(u2, u3), flats[0]
                elif mode == 2:
                    a, target = khatri_rao(u1, u3), flats[1]
                else:
                    a, target = khatri_rao(u1, u2), flats[2]
                x, _, rank, _ = np.linalg.lstsq(a, target, rcond=None)
                if rank < r:
                    deficient = True
                    break
                if mode == 1:
                    u1 = x.T
                elif mode == 2:
                    u2 = x.T
                else:
                    u3 = x.T
            if deficient:
                break
            err = float(np.linalg.norm(flats[0] - khatri_rao(u2, u3) @ u1.T)) / fnorm
            trace.append(err)
            if prev is not None and prev - err <= _REL_CHANGE_TOL * max(err, 1e-300):
                break
            prev = err
        if not deficient:
            try:
                return FactorTriple(u1, u2, u3, r), np.asarray(trace)
            except Exception:
                continue  # collapsed column; restart
    raise DecompositionError("ALS restarts exhausted (rank-deficient Khatri-Rao systems)")
