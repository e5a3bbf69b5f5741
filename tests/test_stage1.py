import numpy as np
import pytest

import gpcpd.stage1 as stage1
from gpcpd import (
    DecompositionError,
    DecompReport,
    DomainGuardViolation,
    SolveOptions,
    decompose,
    fixture_example41,
    fixture_example42,
    gen_random_rank_r,
)
from gpcpd.linalg import RESIDUAL_ZERO_TOL, complex_normal
from gpcpd.preprocess import ReducedTensor, build_reduced_tensor
from gpcpd.stage1 import (
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
    refine_row,
    run_stage1,
)
from gpcpd.lm import finite_difference_check
from gpcpd.tensors import Tensor3

from conftest import assert_rowset_valid, planted_generating_data, planted_instance, planted_rowset


def rotated_slices(frame, rt):
    """tq[a] = sum_i Q[i, a] T[i, :, :]: the reduced slices in the frame's coordinates."""
    return np.tensordot(frame.Q, rt.T.data, axes=([0], [0]))


def jac_fQ_loop(x, frame, rt):
    """Reference: the column-by-column Jacobian of eval_fQ, four outer products per column."""
    r, n2, n3 = rt.rank, rt.slice_cols, rt.n_slices
    tq = rotated_slices(frame, rt)
    y = np.concatenate([x, [1.0]])
    u = (frame.Q @ y)[:n2]
    s = u @ u
    w = np.tensordot(y, tq, axes=([0], [0]))
    uw = u @ w
    cols = np.empty((n2 * n3, r - 1), dtype=np.complex128)
    for j in range(r - 1):
        du = frame.Q[:n2, j]
        dw = tq[j]
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
    w = np.tensordot(y, rotated_slices(frame, rt), axes=([0], [0]))
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
        frame = build_frame(rt, EigRowSet.empty(rt), rng)
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
            frame = build_frame(single, EigRowSet.empty(single), rng)
            x = complex_normal(rng, 2)
            assert np.linalg.norm(eval_fQ(x, frame, single)) <= 1e-12 * single.norm()

    def test_generic_nonvanishing(self, rng):
        _, _, rt = make_rt(rng, 6, 3, 3, 5)
        frame = build_frame(rt, EigRowSet.empty(rt), rng)
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
    s_rows, lam, _ = planted_generating_data(tensor, triple, rt)
    return rt, build_frame(rt, planted_rowset(s_rows, lam, p), rng)


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
        frame = build_frame(rt, EigRowSet.empty(rt), rng)
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
        frame = build_frame(rt, EigRowSet.empty(rt), rng)
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
        frame = build_frame(rt, EigRowSet.empty(rt), rng)
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


class TestSharedPointState:
    """jac_fQ reuses eval_fQ's state only at the same point; elsewhere it matches a fresh frame bit for bit."""

    @pytest.mark.parametrize("n1, n2, n3, r, p", [ORACLE_SHAPES[1], ORACLE_SHAPES[3]])
    def test_jacobian_after_evaluation_elsewhere(self, rng, n1, n2, n3, r, p):
        rt, frame = oracle_frame(rng, n1, n2, n3, r, p)
        x, y = complex_normal(rng, r - 1), complex_normal(rng, r - 1)
        eval_fQ(y, frame, rt)
        want = jac_fQ(x, SearchFrame.from_q(frame.Q, rt), rt)
        assert np.array_equal(jac_fQ(x, frame, rt), want)

    @pytest.mark.parametrize("n1, n2, n3, r, p", [ORACLE_SHAPES[1], ORACLE_SHAPES[3]])
    def test_jacobian_after_rejected_trial(self, rng, n1, n2, n3, r, p):
        # the LM order: residual at x, Jacobian at x, a trial x - delta that is not taken, Jacobian at x
        rt, frame = oracle_frame(rng, n1, n2, n3, r, p)
        fresh = SearchFrame.from_q(frame.Q, rt)
        x = complex_normal(rng, r - 1)
        f = eval_fQ(x, frame, rt)
        assert np.array_equal(f, eval_fQ(x, fresh, rt))
        want = jac_fQ(x, SearchFrame.from_q(frame.Q, rt), rt)
        assert np.array_equal(jac_fQ(x, frame, rt), want)
        eval_fQ(x - 0.5 * complex_normal(rng, r - 1), frame, rt)
        assert np.array_equal(jac_fQ(x, frame, rt), want)

    def test_point_changed_in_place_is_recomputed(self, rng):
        rt, frame = oracle_frame(rng, 9, 4, 4, 9, 0)
        x = complex_normal(rng, 8)
        eval_fQ(x, frame, rt)
        x[0] += 0.25
        want = jac_fQ(x, SearchFrame.from_q(frame.Q, rt), rt)
        assert np.array_equal(jac_fQ(x, frame, rt), want)


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


def perturbed_planted_row(rng, tensor, triple, rt, i, size=1e-6):
    """Planted row i (unit norm) moved by a complex perturbation of the given size, with its eigenvalues."""
    s_rows, lam, _ = planted_generating_data(tensor, triple, rt)
    s = s_rows[i, :] / np.linalg.norm(s_rows[i, :])
    s = s + size * complex_normal(rng, s.size)
    s /= np.linalg.norm(s)
    return s, lam[1:, i] + size * complex_normal(rng, rt.n_slices - 1)


def lstsq_first_step(s, lam, rt):
    """Reference step: gelsd on blocks k = 2 .. n3 of the eigen-equations plus the gauge row."""
    r, n2 = rt.rank, rt.slice_cols
    j = np.vstack([jac_eig(s, lam, rt)[n2:], np.concatenate([s.conj(), np.zeros(lam.size)])])
    b = -np.concatenate([eval_eig(s, lam, rt)[n2:], [0.0]])
    delta = np.linalg.lstsq(j, b, rcond=None)[0]
    s_new = s + delta[:r]
    return s_new / np.linalg.norm(s_new), lam + delta[r:]


# (n1, n2, n3, r, k >= 2 system is tall): n2 (n3 - 1) + 1 rows against r + n3 - 1 unknowns
REFINE_SHAPES = [(20, 6, 6, 20, True), (30, 8, 8, 30, True), (12, 5, 3, 12, False), (14, 5, 4, 14, False)]


class TestRefineRow:
    @pytest.mark.parametrize("n1, n2, n3, r, tall", REFINE_SHAPES)
    def test_perturbed_planted_rows_reach_floor(self, rng, n1, n2, n3, r, tall):
        tensor, triple, rt = make_rt(rng, n1, n2, n3, r)
        assert (n2 * (n3 - 1) + 1 >= r + n3 - 1) == tall
        for i in range(0, r, 3):
            s, lam = perturbed_planted_row(rng, tensor, triple, rt, i)
            s_out, lam_out, residual = refine_row(s, lam, rt)
            assert residual <= 1e-12 * rt.norm()
            assert residual == eig_residual(s_out, lam_out, rt)
            assert np.linalg.norm(s_out) == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("n1, n2, n3, r, tall", REFINE_SHAPES)
    def test_first_step_matches_lstsq(self, rng, n1, n2, n3, r, tall):
        tensor, triple, rt = make_rt(rng, n1, n2, n3, r)
        for i in range(0, r, 3):
            s, lam = perturbed_planted_row(rng, tensor, triple, rt, i)
            s_ref, lam_ref = lstsq_first_step(s, lam, rt)
            s_got, lam_got, _ = refine_row(s, lam, rt, iters=1)
            assert np.linalg.norm((s_got - s) - (s_ref - s)) <= 1e-8 * np.linalg.norm(s_ref - s)
            assert np.linalg.norm((lam_got - lam) - (lam_ref - lam)) <= 1e-8 * np.linalg.norm(lam_ref - lam)

    @pytest.mark.parametrize("n1, n2, n3, r, tall", REFINE_SHAPES)
    def test_row_at_floor_comes_back_no_worse(self, rng, n1, n2, n3, r, tall):
        tensor, triple, rt = make_rt(rng, n1, n2, n3, r)
        s, lam = perturbed_planted_row(rng, tensor, triple, rt, 0)
        s, lam, floor = refine_row(s, lam, rt, iters=10)
        s_out, lam_out, residual = refine_row(s, lam, rt)
        assert residual <= floor
        assert eig_residual(s_out, lam_out, rt) <= floor


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
        row = find_next_row(rt, EigRowSet.empty(rt), rng)
        assert row is not None
        assert eig_residual(*row, rt) <= RESIDUAL_ZERO_TOL * rt.norm()

    def test_planted_full_sequence(self, rng):
        tensor, _, rt = make_rt(rng, 9, 4, 4, 9)
        opts = SolveOptions()
        found = run_stage1(rt, opts, rng)
        assert found.p == 9
        sv = np.linalg.svd(found.S, compute_uv=False)
        assert sv[-1] > 1e-10 * sv[0]

    def test_wrong_rank_input_not_found(self, rng):
        # full-rank random data has no common eigenstructure at this rank
        data = rng.standard_normal((5, 3, 3))
        rt = build_reduced_tensor(Tensor3(data), 4, seed=rng)
        row = find_next_row(rt, EigRowSet.empty(rt), rng)
        assert row is None


class TestEigRowSet:
    def test_empty_grows_and_truncates_as_arrays(self, rng):
        _, _, rt = make_rt(rng, 6, 3, 3, 5)
        empty = EigRowSet.empty(rt)
        assert empty.p == 0 and not empty.complete
        assert empty.S.shape == (0, 5) and empty.lambdas.shape == (2, 0)
        rows = empty
        for _ in range(5):
            rows = rows.with_row(complex_normal(rng, 5), complex_normal(rng, 2))
        assert rows.p == 5 and rows.complete and empty.p == 0
        assert rows.S.shape == (5, 5) and rows.lambdas.shape == (2, 5)
        head = rows.truncated(2)
        assert head.p == 2 and not head.complete
        assert np.array_equal(head.S, rows.S[:2]) and np.array_equal(head.lambdas, rows.lambdas[:, :2])

    def test_run_stage1_rows_are_valid(self, rng):
        _, _, rt = make_rt(rng, 9, 4, 4, 9)
        found = run_stage1(rt, SolveOptions(), rng)
        assert found.complete
        assert_rowset_valid(found, rt)


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
        for s, lams in zip(found.S, found.lambdas.T):
            assert eig_residual(s, lams, rt) <= 1e-8 * scale

    def test_tiny_start_budget_keeps_rows_valid(self, rng, monkeypatch):
        monkeypatch.setattr(stage1, "STARTS", 1)
        tensor, _ = fixture_example42()
        rt = build_reduced_tensor(tensor, 8, seed=rng)
        found = run_stage1(rt, SolveOptions(), rng)
        assert found.p < 8
        for s, lams in zip(found.S, found.lambdas.T):
            assert eig_residual(s, lams, rt) <= RESIDUAL_ZERO_TOL * rt.norm()

    def test_deflation_soundness_and_frame_property(self, rng):
        tensor, _, rt = make_rt(rng, 7, 3, 3, 6)
        found = EigRowSet.empty(rt)
        while found.p < 6:
            row = find_next_row(rt, found, rng)
            assert row is not None
            found = found.with_row(*row)
            stacked = found.S
            sv = np.linalg.svd(stacked, compute_uv=False)
            assert sv[-1] > 1e-10 * sv[0]
            for s, lams in zip(found.S, found.lambdas.T):
                assert eig_residual(s, lams, rt) <= 1e-8 * rt.norm()
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
    frame = build_frame(rt, EigRowSet.empty(rt), rng)
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


@pytest.mark.parametrize("dims, r, cap", [((9, 4, 4), 9, None), ((12, 4, 4), 12, 9)])
def test_domain_guard_violation_stays_inside_stage1(monkeypatch, dims, r, cap):
    # a wide guard band makes the projector guard fire often, in the row search and the polish
    monkeypatch.setattr(stage1, "_EPS_ISO", 0.5)
    fired = []
    guard = stage1._guard

    def counting(u):
        try:
            return guard(u)
        except DomainGuardViolation:
            fired.append(1)
            raise

    monkeypatch.setattr(stage1, "_guard", counting)
    tensor, _ = gen_random_rank_r(*dims, r, seed=7)
    try:
        _, report = decompose(tensor, r, SolveOptions(seed=7, time_limit=2, stage1_max_rows=cap))
    except DecompositionError:
        pass  # no attempt produced factors: a typed failure, not a leaked guard violation
    else:
        assert isinstance(report, DecompReport)
    assert fired
