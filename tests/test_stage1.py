import numpy as np
import pytest

import gpcpd.stage1 as stage1
from gpcpd import DomainGuardViolation, SolveOptions, fixture_example41, fixture_example42
from gpcpd.linalg import RESIDUAL_ZERO_TOL, complex_normal
from gpcpd.preprocess import ReducedTensor, build_reduced_tensor
from gpcpd.stage1 import (
    CommonEigRow,
    EigRowSet,
    SearchFrame,
    build_frame,
    eig_residual,
    eval_fQ,
    extract_eigenvalues,
    eval_eig,
    find_next_row,
    jac_eig,
    jac_fQ,
    run_stage1,
)
from gpcpd.lm import finite_difference_check
from gpcpd.tensors import Tensor3

from conftest import planted_generating_data, planted_instance


def jac_fQ_loop(x, frame, rt):
    """Reference: the column-by-column Jacobian of eval_fQ, four outer products per column."""
    r, n2, n3 = rt.rank, rt.slice_cols, rt.n_slices
    y = np.concatenate([x, [1.0]])
    u = (frame.Q @ y)[:n2]
    s = u @ u
    w = np.tensordot(y, frame.tq, axes=([0], [0]))
    uw = u @ w
    cols = np.empty((n2 * n3, r - 1), dtype=np.complex128)
    for j in range(r - 1):
        du = frame.Q[:n2, j]
        dw = frame.tq[j]
        ds = 2.0 * (u @ du)
        dzw = (
            -(np.outer(du, uw) + np.outer(u, du @ w)) / s
            + np.outer(u, uw) * (ds / s**2)
            + dw
            - np.outer(u, (u @ dw)) / s
        )
        cols[:, j] = dzw.reshape(-1, order="F")
    return cols


def eval_fQ_direct(x, frame, rt):
    """Reference: f_Q from its definition, xbar = Q [x; 1] and W = xbar^T x_1 T."""
    n2 = rt.slice_cols
    y = np.concatenate([x, [1.0]])
    u = (frame.Q @ y)[:n2]
    w = np.tensordot(y, frame.tq, axes=([0], [0]))
    return (w - np.outer(u, u @ w) / (u @ u)).reshape(-1, order="F")


def jac_eig_loop(s, lam, rt):
    """Reference: the slice-by-slice Jacobian of the raw eigen-equations."""
    t = rt.T.data
    r, n2, n3 = t.shape
    lam_full = np.concatenate([[1.0], lam])
    j = np.zeros((n2 * n3, r + n3 - 1), dtype=np.complex128)
    for k in range(n3):
        block = slice(k * n2, (k + 1) * n2)
        jk = t[:, :, k].T.copy()
        jk[:, :n2] -= lam_full[k] * np.eye(n2)
        j[block, :r] = jk
        if k >= 1:
            j[block, r + k - 1] = -s[:n2]
    return j


# (n1, n2, n3, r, rows found before the frame is built)
ORACLE_SHAPES = [
    (9, 4, 4, 9, 0),
    (20, 6, 6, 20, 0),
    (30, 8, 8, 30, 0),
    (9, 4, 4, 9, 3),
    (5, 3, 2, 4, 0),
    (7, 4, 2, 6, 2),  # n3 = 2: one slice beside the identity-like first
    (9, 4, 4, 9, 8),  # p = r - 1: a single free frame column
]


def x_for_row(frame, s_row):
    """Coordinates x with Q [x; 1] proportional to the given row."""
    y = frame.Q.conj().T @ s_row
    return y[:-1] / y[-1]


def make_rt(rng, n1, n2, n3, r):
    tensor, triple = planted_instance(rng, n1, n2, n3, r)
    rt = build_reduced_tensor(tensor, r, seed=rng)
    return tensor, triple, rt


class TestEvalFQ:
    def test_zero_at_planted_row(self, rng):
        tensor, triple, rt = make_rt(rng, 6, 3, 3, 5)
        s_rows, _, _ = planted_generating_data(tensor, triple, rt)
        frame = build_frame(rt, EigRowSet(rows=[], target=5), rng)
        x = x_for_row(frame, s_rows[2, :])
        val = eval_fQ(x, frame, rt)
        # f is linear in the row's scaling; compare at the frame's scaling
        xbar_norm = np.linalg.norm(frame.Q @ np.concatenate([x, [1.0]]))
        assert np.linalg.norm(val) <= 1e-10 * rt.norm() * xbar_norm

    def test_single_slice_residual_vanishes(self, rng):
        # one slice: the projector kills its own axis, x^T T_1 = u
        tensor, _, rt_full = make_rt(rng, 4, 2, 2, 3)
        single = ReducedTensor(
            T=Tensor3(rt_full.T.data[:, :, :1]),
            P=rt_full.P,
            C=rt_full.C,
            rank=3,
            cond_fhat=rt_full.cond_fhat,
        )
        for _ in range(5):
            frame = build_frame(single, EigRowSet(rows=[], target=3), rng)
            x = complex_normal(rng, 2)
            assert np.linalg.norm(eval_fQ(x, frame, single)) <= 1e-12 * single.norm()

    def test_generic_nonvanishing(self, rng):
        _, _, rt = make_rt(rng, 6, 3, 3, 5)
        frame = build_frame(rt, EigRowSet(rows=[], target=5), rng)
        assert np.linalg.norm(eval_fQ(complex_normal(rng, 4), frame, rt)) > 1e-6

    def test_domain_guard_raises(self, rng):
        _, _, rt = make_rt(rng, 6, 3, 3, 5)
        q = np.eye(5, dtype=complex)  # xbar = [x; 1]: choose x making u isotropic
        frame = SearchFrame.from_q(q, rt)
        x = np.array([1.0, 1j, 0.0, 0.0], dtype=complex)  # u = (1, i, 0): u^T u = 0
        with pytest.raises(DomainGuardViolation):
            eval_fQ(x, frame, rt)


def oracle_frame(rng, n1, n2, n3, r, p):
    """Frame of the search for row p + 1 after p planted rows were found."""
    tensor, triple, rt = make_rt(rng, n1, n2, n3, r)
    found = EigRowSet(rows=[], target=r)
    if p:
        s_rows, lam, _ = planted_generating_data(tensor, triple, rt)
        for i in range(p):
            s = s_rows[i, :] / np.linalg.norm(s_rows[i, :])
            found.rows.append(CommonEigRow(s=s, lambdas=lam[1:, i]))
    return rt, build_frame(rt, found, rng)


@pytest.mark.parametrize("n1, n2, n3, r, p", ORACLE_SHAPES)
def test_eval_fQ_matches_direct_reference(rng, n1, n2, n3, r, p):
    rt, frame = oracle_frame(rng, n1, n2, n3, r, p)
    for _ in range(3):
        x = complex_normal(rng, r - 1)
        want = eval_fQ_direct(x, frame, rt)
        got = eval_fQ(x, frame, rt)
        assert got.shape == want.shape == (n2 * n3,)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


class TestJacFQ:
    def test_finite_difference_agreement(self, rng):
        _, _, rt = make_rt(rng, 6, 3, 3, 5)
        frame = build_frame(rt, EigRowSet(rows=[], target=5), rng)
        worst = 0.0
        for _ in range(20):
            x = complex_normal(rng, 4)
            worst = max(
                worst,
                finite_difference_check(
                    lambda v: eval_fQ(v, frame, rt), lambda v: jac_fQ(v, frame, rt), x
                ),
            )
        assert worst <= 1e-6

    def test_xbar_moves_inside_leading_frame_columns(self, rng):
        _, _, rt = make_rt(rng, 6, 3, 3, 5)
        frame = build_frame(rt, EigRowSet(rows=[], target=5), rng)
        x = complex_normal(rng, 4)
        h = 1e-7
        for j in range(4):
            xp = x.copy()
            xp[j] += h
            dxbar = (frame.Q @ np.concatenate([xp, [1.0]]) - frame.Q @ np.concatenate([x, [1.0]])) / h
            # direction lies in the span of the first r-1 columns
            proj = frame.Q[:, :4] @ (frame.Q[:, :4].conj().T @ dxbar)
            assert np.linalg.norm(dxbar - proj) <= 1e-9

    def test_stationarity_at_planted_zero(self, rng):
        tensor, triple, rt = make_rt(rng, 6, 3, 3, 5)
        s_rows, _, _ = planted_generating_data(tensor, triple, rt)
        frame = build_frame(rt, EigRowSet(rows=[], target=5), rng)
        x = x_for_row(frame, s_rows[0, :])
        j = jac_fQ(x, frame, rt)
        f = eval_fQ(x, frame, rt)
        assert np.linalg.norm(j.conj().T @ f) <= 1e-8 * max(1.0, np.linalg.norm(j)) * rt.norm()


    @pytest.mark.parametrize("n1, n2, n3, r, p", ORACLE_SHAPES)
    def test_matches_loop_reference(self, rng, n1, n2, n3, r, p):
        rt, frame = oracle_frame(rng, n1, n2, n3, r, p)
        for _ in range(3):
            x = complex_normal(rng, r - 1)
            want = jac_fQ_loop(x, frame, rt)
            got = jac_fQ(x, frame, rt)
            assert got.shape == want.shape == (n2 * n3, r - 1)
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


class TestJacEig:
    @pytest.mark.parametrize("n1, n2, n3, r", [shape[:4] for shape in ORACLE_SHAPES if not shape[4]])
    def test_matches_loop_reference(self, rng, n1, n2, n3, r):
        _, _, rt = make_rt(rng, n1, n2, n3, r)
        s = complex_normal(rng, r)
        lam = complex_normal(rng, n3 - 1)
        want = jac_eig_loop(s, lam, rt)
        got = jac_eig(s, lam, rt)
        assert got.shape == want.shape == (n2 * n3, r + n3 - 1)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    def test_finite_difference_agreement(self, rng):
        _, _, rt = make_rt(rng, 9, 4, 4, 9)
        worst = 0.0
        for _ in range(20):
            z = complex_normal(rng, 9 + 3)
            worst = max(
                worst,
                finite_difference_check(
                    lambda v: eval_eig(v[:9], v[9:], rt), lambda v: jac_eig(v[:9], v[9:], rt), z
                ),
            )
        assert worst <= 1e-6

    def test_residual_blocks_match_eig_residual(self, rng):
        tensor, triple, rt = make_rt(rng, 6, 3, 3, 5)
        s = complex_normal(rng, 5)
        lam = complex_normal(rng, 2)
        blocks = eval_eig(s, lam, rt).reshape(3, 3)  # one row per slice k
        assert np.isclose(np.max(np.linalg.norm(blocks, axis=1)), eig_residual(s, lam, rt), rtol=1e-12)
        s_rows, lam_true, _ = planted_generating_data(tensor, triple, rt)
        assert np.linalg.norm(eval_eig(s_rows[0, :], lam_true[1:, 0], rt)) <= 1e-9 * rt.norm() * np.linalg.norm(s_rows[0, :])


class TestExtractEigenvalues:
    def test_planted_ratio(self, rng):
        tensor, triple, rt = make_rt(rng, 6, 3, 3, 5)
        s_rows, lam, _ = planted_generating_data(tensor, triple, rt)
        for i in range(5):
            s = s_rows[i, :] / np.linalg.norm(s_rows[i, :])
            got = extract_eigenvalues(s, rt)
            assert np.max(np.abs(got - lam[1:, i])) <= 1e-8

    def test_zero_slice_gives_zero(self):
        t = np.zeros((3, 2, 2), dtype=complex)
        t[:, :, 0] = np.eye(3)[:, :2]
        rt = ReducedTensor(
            T=Tensor3(t), P=np.eye(3, dtype=complex), C=np.zeros((3, 1), dtype=complex),
            rank=3, cond_fhat=1.0,
        )
        lams = extract_eigenvalues(np.array([1.0, 0.5, 0.25], dtype=complex), rt)
        assert np.array_equal(lams, np.zeros(1, dtype=complex))

    def test_scale_invariance(self, rng):
        tensor, triple, rt = make_rt(rng, 6, 3, 3, 5)
        s_rows, _, _ = planted_generating_data(tensor, triple, rt)
        s = s_rows[1, :]
        assert np.allclose(extract_eigenvalues(s, rt), extract_eigenvalues(2.0 * s, rt))


class TestFindNextRow:
    def test_example41_first_row(self, rng):
        tensor, _ = fixture_example41()
        rt = build_reduced_tensor(tensor, 5, seed=rng)
        row = find_next_row(rt, EigRowSet(rows=[], target=5), rng)
        assert row is not None
        assert eig_residual(row.s, row.lambdas, rt) <= RESIDUAL_ZERO_TOL * rt.norm()

    def test_planted_full_sequence(self, rng):
        tensor, _, rt = make_rt(rng, 9, 4, 4, 9)
        opts = SolveOptions()
        found = run_stage1(rt, opts, rng)
        assert found.p == 9
        sv = np.linalg.svd(found.stacked(), compute_uv=False)
        assert sv[-1] > 1e-10 * sv[0]

    def test_wrong_rank_input_not_found(self, rng):
        # full-rank random data has no common eigenstructure at this rank
        data = rng.standard_normal((5, 3, 3))
        rt = build_reduced_tensor(Tensor3(data), 4, seed=rng)
        row = find_next_row(rt, EigRowSet(rows=[], target=4), rng)
        assert row is None


class TestRunStage1:
    def test_example41_complete(self, rng):
        tensor, _ = fixture_example41()
        rt = build_reduced_tensor(tensor, 5, seed=rng)
        found = run_stage1(rt, SolveOptions(), rng)
        assert found.p == 5

    def test_example42_partial_progress_is_valid(self, rng):
        # rows of this fixture sit next to the projector's excluded domain;
        # the search finds a prefix and the commutation stage finishes the job
        tensor, _ = fixture_example42()
        rt = build_reduced_tensor(tensor, 8, seed=rng)
        found = run_stage1(rt, SolveOptions(), rng)
        assert 1 <= found.p <= 8
        scale = rt.norm()
        for row in found.rows:
            assert eig_residual(row.s, row.lambdas, rt) <= 1e-8 * scale

    def test_tiny_start_budget_keeps_rows_valid(self, rng, monkeypatch):
        monkeypatch.setattr(stage1, "STARTS", 1)
        tensor, _ = fixture_example42()
        rt = build_reduced_tensor(tensor, 8, seed=rng)
        found = run_stage1(rt, SolveOptions(), rng)
        assert found.p < 8
        for row in found.rows:
            assert eig_residual(row.s, row.lambdas, rt) <= RESIDUAL_ZERO_TOL * rt.norm()

    def test_deflation_soundness_and_frame_property(self, rng):
        tensor, _, rt = make_rt(rng, 7, 3, 3, 6)
        found = EigRowSet(rows=[], target=6)
        while found.p < 6:
            row = find_next_row(rt, found, rng)
            assert row is not None
            found.rows.append(row)
            stacked = found.stacked()
            sv = np.linalg.svd(stacked, compute_uv=False)
            assert sv[-1] > 1e-10 * sv[0]
            for r_ in found.rows:
                assert eig_residual(r_.s, r_.lambdas, rt) <= 1e-8 * rt.norm()
            if found.p > 1:
                frame = build_frame(rt, found, rng)
                lead = frame.Q[:, : found.p]
                # principal angles between lead and the row span are ~0
                q2, _ = np.linalg.qr(stacked.T)
                overlap = np.linalg.svd(lead.conj().T @ q2, compute_uv=False)
                assert np.min(overlap) >= 1.0 - 1e-10


def test_zero_set_equivalence(rng):
    # ||f_Q|| small iff the per-slice eigen-residual (with optimal weights) is small
    tensor, triple, rt = make_rt(rng, 6, 3, 3, 5)
    s_rows, _, _ = planted_generating_data(tensor, triple, rt)
    frame = build_frame(rt, EigRowSet(rows=[], target=5), rng)
    tol = 1e-8 * rt.norm()

    def eig_gap(xbar):
        u = xbar[:3]
        w = np.tensordot(xbar, rt.T.data, axes=([0], [0]))
        lam = (u.conj() @ w) / (u.conj() @ u)
        return float(np.max(np.linalg.norm(w - np.outer(u, lam), axis=0)))

    points = [complex_normal(rng, 4) for _ in range(100)]
    points += [x_for_row(frame, s_rows[i, :]) for i in range(5)]
    for x in points:
        xbar = frame.Q @ np.concatenate([x, [1.0]])
        scale = np.linalg.norm(xbar)
        a = np.linalg.norm(eval_fQ(x, frame, rt))
        b = eig_gap(xbar)
        assert (a <= tol * scale) == (b <= 10 * tol * scale)
