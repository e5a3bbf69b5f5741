import numpy as np
import pytest

from gpcpd import EigRowSet, FactorTriple, cpd_to_tensor
from gpcpd.linalg import RESIDUAL_ZERO_TOL
from gpcpd.stage1 import eig_residual


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


def planted_rowset(s_rows, lam, p):
    """The first p planted eigenrows as an ``EigRowSet``: rows scaled to unit norm, eigenvalues for k >= 2."""
    s = s_rows[:p]
    return EigRowSet(s / np.linalg.norm(s, axis=1)[:, None], lam[1:, :p].copy())


def assert_rowset_valid(rows, rt):
    """Shapes agree with p, rows have unit norm and each row meets its eigen-equations."""
    assert rows.S.shape == (rows.p, rt.rank) and rows.lambdas.shape == (rt.n_slices - 1, rows.p)
    assert np.allclose(np.linalg.norm(rows.S, axis=1), 1.0, rtol=0.0, atol=1e-12)
    for s, lams in zip(rows.S, rows.lambdas.T):
        assert eig_residual(s, lams, rt) <= RESIDUAL_ZERO_TOL * rt.norm()


def commutator_bound(ms):
    """Worst pairwise ||M_i M_j - M_j M_i|| / (||M_i|| ||M_j||) over generating matrices."""
    worst = 0.0
    for a in range(len(ms)):
        for b in range(a + 1, len(ms)):
            mi, mj = ms[a], ms[b]
            denom = max(np.linalg.norm(mi) * np.linalg.norm(mj), 1e-300)
            worst = max(worst, float(np.linalg.norm(mi @ mj - mj @ mi)) / denom)
    return worst
