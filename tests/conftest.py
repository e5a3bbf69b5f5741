import numpy as np
import pytest

from gpcpd import FactorTriple, cpd_to_tensor


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


def random_triple(rng, n1, n2, n3, r, complex_entries=False):
    mats = []
    for n in (n1, n2, n3):
        m = rng.standard_normal((n, r))
        if complex_entries:
            m = (m + 1j * rng.standard_normal((n, r))) / np.sqrt(2)
        mats.append(m.astype(np.complex128))
    return FactorTriple(mats[0], mats[1], mats[2], r)


def planted_instance(rng, n1, n2, n3, r, complex_entries=False):
    triple = random_triple(rng, n1, n2, n3, r, complex_entries)
    return cpd_to_tensor(triple), triple


def planted_generating_data(tensor, triple, rt):
    """Ground-truth eigen/generating structure of a planted middle-rank instance.

    Returns (S_rows, lambda_table, M_list) for the reduced tensor rt built from
    ``tensor``: M_k = Uhat1 diag(U3[k]/U3[0]) Uhat1^{-1} for k = 2..n3, and the
    rows of S = Uhat1^{-1} are the generalized left common eigenvectors.
    """
    r = rt.rank
    uhat1 = rt.P @ triple.U1[:r, :]
    lam = triple.U3 / triple.U3[0:1, :]
    uinv = np.linalg.inv(uhat1)
    ms = [uhat1 @ np.diag(lam[k]) @ uinv for k in range(1, tensor.dims[2])]
    return uinv, lam, ms


def commutator_bound(ms):
    """Worst pairwise ||M_i M_j - M_j M_i|| / (||M_i|| ||M_j||) over generating matrices."""
    worst = 0.0
    for a in range(len(ms)):
        for b in range(a + 1, len(ms)):
            mi, mj = ms[a], ms[b]
            denom = max(np.linalg.norm(mi) * np.linalg.norm(mj), 1e-300)
            worst = max(worst, float(np.linalg.norm(mi @ mj - mj @ mi)) / denom)
    return worst
