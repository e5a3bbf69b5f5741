import numpy as np
import pytest

from gpcpd import InconsistentSystemError, SolveOptions, Stage2FailureError, fixture_example41
from gpcpd.assembly import OFFDIAG_TOL
from gpcpd.linalg import complex_normal
from gpcpd.lm import finite_difference_check
from gpcpd.preprocess import build_reduced_tensor
from gpcpd.stage1 import EigRowSet, run_stage1
from gpcpd.stage2 import (
    Stage2System,
    _m_matrices,
    _pairs,
    assemble_stage2,
    commuting_factor,
    eigenrow_factor,
    eval_g,
    harvest_rows,
    jac_g,
    run_stage2,
)
from gpcpd.tensors import Tensor3, vec

from conftest import assert_rowset_valid, commutator_bound, planted_generating_data, planted_instance, planted_rowset
from dense_stage2 import (
    build_commuting_linear_system,
    build_partial_eig_system,
    dense_solve,
    dense_system,
    dims_d1_d2,
)


def jac_g_kron(x, sys2, rt):
    """Reference: the commutation Jacobian built pair by pair from dense Kronecker factors."""
    r, n2, n3 = rt.rank, rt.slice_cols, rt.n_slices
    pks = sys2.pk_from_x(x)
    ms = _m_matrices(rt, pks)
    eye_r = np.eye(r)
    eye_t = np.eye(r - n2)
    pair_list = _pairs(n3)
    block_rows = r * (r - n2)
    n_blocks = sys2.N.reshape(n3 - 1, block_rows, sys2.d)
    out = np.zeros((block_rows * len(pair_list), sys2.d), dtype=np.complex128)
    for row, (i, j) in enumerate(pair_list):
        pi, pj = pks[i - 2], pks[j - 2]
        mi, mj = ms[i - 2], ms[j - 2]
        d_pi = np.kron(pj[n2:, :].T, eye_r) - np.kron(eye_t, mj)
        d_pj = np.kron(eye_t, mi) - np.kron(pi[n2:, :].T, eye_r)
        rows = slice(row * block_rows, (row + 1) * block_rows)
        out[rows, :] = d_pi @ n_blocks[i - 2] + d_pj @ n_blocks[j - 2]
    return out


def random_system(rng, rt, d):
    """A Stage2System with random P0 and N: the Jacobian identity needs no assembly."""
    r, n2, n3 = rt.rank, rt.slice_cols, rt.n_slices
    n = complex_normal(rng, (r * (r - n2) * (n3 - 1), d))
    return Stage2System(
        A_hat=np.zeros(((r - n2) * (n3 - 1), 0), dtype=complex),
        P0=np.array([complex_normal(rng, (r, r - n2)) for _ in range(n3 - 1)]),
        N=n,
    )


def make_planted(rng, n1, n2, n3, r):
    tensor, triple = planted_instance(rng, n1, n2, n3, r)
    rt = build_reduced_tensor(tensor, r, seed=rng)
    s_rows, lam, ms = planted_generating_data(tensor, triple, rt)
    p_true = np.concatenate([vec(m[:, n2:]) for m in ms])
    return tensor, triple, rt, s_rows, lam, ms, p_true


def poisoned_last_row(found, rng):
    """``found`` with its last row pushed off the eigenrow by 5% noise, eigenvalues kept."""
    s = found.S.copy()
    s[-1] += 0.05 * complex_normal(rng, s.shape[1])
    return EigRowSet(s, found.lambdas)


class TestCommutingLinearSystem:
    def test_planted_substitution(self, rng):
        _, _, rt, _, _, _, p_true = make_planted(rng, 9, 4, 4, 9)
        a, b = build_commuting_linear_system(rt)
        gap = np.linalg.norm(a @ p_true - b)
        assert gap <= 1e-9 * max(1.0, np.linalg.norm(b))

    def test_pair_count_n3_three(self, rng):
        _, _, rt, _, _, _, _ = make_planted(rng, 6, 4, 3, 5)
        a, _ = build_commuting_linear_system(rt)
        d1, d2 = dims_d1_d2(rt)
        assert a.shape == (d1, d2)
        assert d1 == 5 * 4  # exactly one (i, j) pair

    def test_narrowest_width(self, rng):
        _, _, rt, _, _, _, _ = make_planted(rng, 5, 4, 4, 5)
        _, d2 = dims_d1_d2(rt)
        assert d2 == 5 * (4 - 1)  # r (r - n2) (n3 - 1) with r - n2 = 1

    def test_empty_for_two_slices(self, rng):
        tensor, _ = planted_instance(rng, 5, 3, 2, 4)
        rt = build_reduced_tensor(tensor, 4, seed=rng)
        a, b = build_commuting_linear_system(rt)
        assert a.shape[0] == 0 and b.shape[0] == 0


class TestPartialEigSystem:
    def test_empty_for_no_rows(self, rng):
        _, _, rt, s_rows, lam, _, _ = make_planted(rng, 6, 3, 3, 5)
        a, b = build_partial_eig_system(rt, planted_rowset(s_rows, lam, 0))
        assert a.shape == (0, 5 * 2 * 2) and b.shape == (0,)

    def test_planted_rows_satisfied(self, rng):
        _, _, rt, s_rows, lam, _, p_true = make_planted(rng, 6, 3, 3, 5)
        found = planted_rowset(s_rows, lam, 2)
        a, b = build_partial_eig_system(rt, found)
        assert a.shape[0] == (5 - 3) * 2 * 2  # (r - n2)(n3 - 1) p
        assert np.linalg.norm(a @ p_true - b) <= 1e-9 * max(1.0, np.linalg.norm(b))

    def test_row_scaling_leaves_solution_set(self, rng):
        _, _, rt, s_rows, lam, _, p_true = make_planted(rng, 6, 3, 3, 5)
        found = planted_rowset(s_rows, lam, 2)
        scaled = EigRowSet(2.0 * found.S, found.lambdas)
        a, b = build_partial_eig_system(rt, scaled)
        assert np.linalg.norm(a @ p_true - b) <= 1e-9 * max(1.0, np.linalg.norm(b))


class TestAssemble:
    def test_full_rowset_fully_determines(self, rng):
        _, _, rt, s_rows, lam, _, p_true = make_planted(rng, 6, 3, 3, 5)
        sys2 = assemble_stage2(rt, planted_rowset(s_rows, lam, 5))
        assert sys2.d == 0
        p0 = np.concatenate([vec(m) for m in sys2.P0])
        assert np.linalg.norm(p0 - p_true) <= 1e-8 * np.linalg.norm(p_true)
        assert eval_g(np.zeros(0, dtype=complex), sys2, rt).size == 5 * 2 * 1

    def test_affine_set_contains_planted(self, rng):
        _, _, rt, s_rows, lam, _, p_true = make_planted(rng, 6, 3, 3, 5)
        sys2 = assemble_stage2(rt, planted_rowset(s_rows, lam, 0))
        assert sys2.d > 0
        p0 = np.concatenate([vec(m) for m in sys2.P0])
        x_star = sys2.N.conj().T @ (p_true - p0)
        dist = np.linalg.norm(p0 + sys2.N @ x_star - p_true)
        assert dist <= 1e-8 * np.linalg.norm(p_true)

    def test_corrupted_eigenrow_detected(self, rng):
        _, _, rt, s_rows, lam, _, _ = make_planted(rng, 6, 3, 3, 5)
        poisoned = poisoned_last_row(planted_rowset(s_rows, lam, 3), rng)
        with pytest.raises(InconsistentSystemError):
            assemble_stage2(rt, poisoned)

    def test_dimension_identities(self, rng):
        _, _, rt, s_rows, lam, _, _ = make_planted(rng, 9, 4, 4, 9)
        for p in (0, 2, 5):
            found = planted_rowset(s_rows, lam, p)
            sys2 = assemble_stage2(rt, found)
            a_hat, _ = dense_system(rt, found)
            d1, d2 = dims_d1_d2(rt)
            assert d1 == 9 * 4 * 3 * 2 // 2
            assert d2 == 9 * 5 * 3
            assert a_hat.shape == (d1 + (9 - 4) * 3 * p, d2)
            assert sys2.A_hat.shape == ((9 - 4) * 3, 4 * 3 * 2 // 2)  # K: m x n2 C(n3-1, 2)
            assert sys2.N.shape[0] == d2


class TestFactors:
    """P K = R and S^p P = E are the dense blocks' equations, vec by vec."""

    @pytest.mark.parametrize("n1, n2, n3", [(9, 4, 4), (8, 5, 3), (9, 4, 2)])
    def test_commuting_factor_matches_dense_block(self, rng, n1, n2, n3):
        _, _, rt, _, _, _, _ = make_planted(rng, n1, n2, n3, n1)
        k, rhs = commuting_factor(rt)
        a, b = build_commuting_linear_system(rt)
        p = complex_normal(rng, (n1, k.shape[0]))
        assert np.linalg.norm(a @ vec(p) - vec(p @ k)) <= 1e-12 * max(np.linalg.norm(a @ vec(p)), 1.0)
        assert np.array_equal(b, vec(rhs))

    @pytest.mark.parametrize("p_rows", [0, 1, 4])
    def test_eigenrow_factor_matches_dense_block(self, rng, p_rows):
        _, _, rt, s_rows, lam, _, _ = make_planted(rng, 9, 4, 4, 9)
        found = planted_rowset(s_rows, lam, p_rows)
        sp, e = eigenrow_factor(rt, found)
        a, b = build_partial_eig_system(rt, found)
        assert sp.shape == (p_rows, 9) and e.shape == (p_rows, 5 * 3)
        p = complex_normal(rng, (9, 5 * 3))
        blocks = [sp @ p[:, c * 5 : (c + 1) * 5] for c in range(3)]
        assert np.allclose(a @ vec(p), np.concatenate([vec(x) for x in blocks]), rtol=1e-12, atol=1e-12)
        assert np.allclose(b, np.concatenate([vec(e[:, c * 5 : (c + 1) * 5]) for c in range(3)]), rtol=1e-14, atol=0)


AGREEMENT_SHAPES = [(9, 4, 4), (12, 4, 4), (14, 5, 4), (14, 6, 3), (16, 5, 5), (8, 5, 3), (9, 4, 2)]


def _p_levels(r):
    return sorted({0, 1, r // 2, r - 1, r})


class TestFactoredMatchesDense:
    """The factored assembly against the dense lstsq + SVD oracle."""

    @pytest.mark.parametrize(
        "n1, n2, n3, p",
        [(n1, n2, n3, p) for n1, n2, n3 in AGREEMENT_SHAPES for p in _p_levels(n1)],
    )
    def test_same_solution_set(self, rng, n1, n2, n3, p):
        _, _, rt, s_rows, lam, _, _ = make_planted(rng, n1, n2, n3, n1)
        found = planted_rowset(s_rows, lam, p)
        sys2 = assemble_stage2(rt, found)
        p_dense, n_dense = dense_solve(rt, found)
        assert sys2.d == n_dense.shape[1]
        p0 = np.concatenate([vec(m) for m in sys2.P0])
        assert np.linalg.norm(p0 - p_dense) <= 1e-10 * max(np.linalg.norm(p_dense), 1.0)
        proj = sys2.N @ sys2.N.conj().T - n_dense @ n_dense.conj().T
        assert np.linalg.norm(proj) <= 1e-10
        if p == 0:
            return
        poisoned = poisoned_last_row(found, rng)
        if n3 == 2:
            # no commuting equations: any p <= r eigenrows are satisfiable
            assemble_stage2(rt, poisoned)
            dense_solve(rt, poisoned)
            return
        with pytest.raises(InconsistentSystemError):
            assemble_stage2(rt, poisoned)
        with pytest.raises(InconsistentSystemError):
            dense_solve(rt, poisoned)

    def test_commuting_factor_is_empty_for_two_slices(self, rng):
        _, _, rt, _, _, _, _ = make_planted(rng, 9, 4, 2, 9)
        sys2 = assemble_stage2(rt, EigRowSet.empty(rt))
        assert sys2.A_hat.shape == (5, 0)
        assert sys2.d == 9 * 5


class TestLargeShapes:
    """Shapes whose dense system would not fit comfortably in memory."""

    def test_30x8x8_fully_determined_at_p0(self, rng):
        _, _, rt, _, _, _, p_true = make_planted(rng, 30, 8, 8, 30)
        sys2 = assemble_stage2(rt, EigRowSet.empty(rt))
        assert sys2.d == 0
        p0 = np.concatenate([vec(m) for m in sys2.P0])
        assert np.linalg.norm(p0 - p_true) <= 1e-8 * np.linalg.norm(p_true)

    def test_20x6x6_affine_set_contains_planted(self, rng):
        _, _, rt, _, _, _, p_true = make_planted(rng, 20, 6, 6, 20)
        sys2 = assemble_stage2(rt, EigRowSet.empty(rt))
        assert sys2.d > 0
        p0 = np.concatenate([vec(m) for m in sys2.P0])
        x_star = sys2.N.conj().T @ (p_true - p0)
        assert np.linalg.norm(p0 + sys2.N @ x_star - p_true) <= 1e-8 * np.linalg.norm(p_true)


class TestEvalG:
    def test_zero_at_planted_coordinates(self, rng):
        _, _, rt, s_rows, lam, _, p_true = make_planted(rng, 6, 3, 3, 5)
        sys2 = assemble_stage2(rt, planted_rowset(s_rows, lam, 0))
        p0 = np.concatenate([vec(m) for m in sys2.P0])
        x_star = sys2.N.conj().T @ (p_true - p0)
        assert np.linalg.norm(eval_g(x_star, sys2, rt)) <= 1e-8 * rt.norm() ** 2

    def test_identical_slices_cancel(self, rng):
        # duplicate slice data: the commutator of equal blocks vanishes identically
        base, _ = planted_instance(rng, 6, 3, 3, 5)
        data = base.data.copy()
        data[:, :, 2] = data[:, :, 1]
        rt = build_reduced_tensor(Tensor3(data), 5, seed=rng)
        sys2 = assemble_stage2(rt, EigRowSet.empty(rt))
        # force P_2 == P_3 by evaluating at a symmetric point: the particular
        # solution already satisfies the symmetric linear system
        x = np.zeros(sys2.d, dtype=complex)
        assert np.allclose(sys2.P0[0], sys2.P0[1], atol=1e-8)
        assert np.linalg.norm(eval_g(x, sys2, rt)) <= 1e-8 * rt.norm() ** 2

    def test_generic_nonzero(self, rng):
        _, _, rt, s_rows, lam, _, _ = make_planted(rng, 6, 3, 3, 5)
        sys2 = assemble_stage2(rt, planted_rowset(s_rows, lam, 0))
        assert np.linalg.norm(eval_g(complex_normal(rng, sys2.d), sys2, rt)) > 1e-6


class TestJacG:
    def test_finite_difference_agreement(self, rng):
        _, _, rt, s_rows, lam, _, _ = make_planted(rng, 6, 3, 3, 5)
        sys2 = assemble_stage2(rt, planted_rowset(s_rows, lam, 1))
        worst = 0.0
        for _ in range(20):
            x = complex_normal(rng, sys2.d)
            worst = max(
                worst,
                finite_difference_check(
                    lambda v: eval_g(v, sys2, rt), lambda v: jac_g(v, sys2, rt), x
                ),
            )
        assert worst <= 1e-6

    def test_empty_when_fully_determined(self, rng):
        _, _, rt, s_rows, lam, _, _ = make_planted(rng, 6, 3, 3, 5)
        sys2 = assemble_stage2(rt, planted_rowset(s_rows, lam, 5))
        j = jac_g(np.zeros(0, dtype=complex), sys2, rt)
        assert j.shape[1] == 0

    def test_stationarity_at_planted_zero(self, rng):
        _, _, rt, s_rows, lam, _, p_true = make_planted(rng, 6, 3, 3, 5)
        sys2 = assemble_stage2(rt, planted_rowset(s_rows, lam, 0))
        p0 = np.concatenate([vec(m) for m in sys2.P0])
        x_star = sys2.N.conj().T @ (p_true - p0)
        j = jac_g(x_star, sys2, rt)
        g = eval_g(x_star, sys2, rt)
        assert np.linalg.norm(j.conj().T @ g) <= 1e-7 * max(1.0, np.linalg.norm(j)) * rt.norm() ** 2


    @pytest.mark.parametrize(
        "n1, n2, n3, r, d",
        [(9, 4, 4, 9, 7), (20, 6, 6, 20, 7), (30, 8, 8, 30, 5), (5, 3, 2, 4, 6), (9, 4, 4, 9, 0)],
    )
    def test_matches_kron_reference(self, rng, n1, n2, n3, r, d):
        tensor, _ = planted_instance(rng, n1, n2, n3, r)
        rt = build_reduced_tensor(tensor, r, seed=rng)
        sys2 = random_system(rng, rt, d)
        x = complex_normal(rng, d)
        want = jac_g_kron(x, sys2, rt)
        got = jac_g(x, sys2, rt)
        assert got.shape == want.shape == (r * (r - n2) * len(_pairs(n3)), d)
        assert np.linalg.norm(got - want) <= 1e-12 * max(np.linalg.norm(want), 1e-300)

    @pytest.mark.parametrize("p", [0, 1, 3])
    def test_matches_kron_reference_on_assembled_system(self, rng, p):
        _, _, rt, s_rows, lam, _, _ = make_planted(rng, 9, 4, 4, 9)
        sys2 = assemble_stage2(rt, planted_rowset(s_rows, lam, p))
        assert sys2.d > 0
        for _ in range(3):
            x = complex_normal(rng, sys2.d)
            want = jac_g_kron(x, sys2, rt)
            assert np.linalg.norm(jac_g(x, sys2, rt) - want) <= 1e-12 * np.linalg.norm(want)


def near_planted_endpoint(rng, sys2, p_true, rel_noise):
    """Null-space coordinates of the planted tails, perturbed by rel_noise."""
    p0 = np.concatenate([vec(m) for m in sys2.P0])
    x_star = sys2.N.conj().T @ (p_true - p0)
    return x_star + rel_noise * np.linalg.norm(x_star) / np.sqrt(sys2.d) * complex_normal(rng, sys2.d)


class TestHarvestRows:
    def test_near_planted_endpoint_yields_every_row(self, rng):
        _, _, rt, s_rows, lam, _, p_true = make_planted(rng, 9, 4, 4, 9)
        sys2 = assemble_stage2(rt, EigRowSet.empty(rt))
        x = near_planted_endpoint(rng, sys2, p_true, 1e-4)
        rows = harvest_rows(sys2, rt, EigRowSet.empty(rt), [(1.0, x)], rng)
        assert rows.complete
        truth = s_rows / np.linalg.norm(s_rows, axis=1, keepdims=True)
        # each harvested row is a planted eigenrow up to a unimodular factor
        overlap = np.abs(rows.S.conj() @ truth.T)
        assert np.allclose(np.sort(overlap.max(axis=1)), 1.0, atol=1e-8)
        assert_rowset_valid(rows, rt)

    def test_grown_set_leaves_the_passed_set_unchanged(self, rng):
        _, _, rt, s_rows, lam, _, p_true = make_planted(rng, 6, 3, 3, 5)
        found = planted_rowset(s_rows, lam, 2)
        before = found.S.tobytes()
        sys2 = assemble_stage2(rt, found)
        rows = harvest_rows(sys2, rt, found, [(1.0, near_planted_endpoint(rng, sys2, p_true, 1e-4))], rng)
        assert rows.complete and np.array_equal(rows.S[:2], found.S)
        assert_rowset_valid(rows, rt)
        assert found.p == 2 and found.S.tobytes() == before

    def test_no_endpoints_keep_the_row_set(self, rng):
        _, _, rt, s_rows, lam, _, _ = make_planted(rng, 6, 3, 3, 5)
        found = planted_rowset(s_rows, lam, 2)
        sys2 = assemble_stage2(rt, found)
        rows = harvest_rows(sys2, rt, found, [], rng)
        assert rows.p == 2 and np.array_equal(rows.S, found.S) and np.array_equal(rows.lambdas, found.lambdas)


class TestRunStage2:
    def test_example41_truncated_to_two_rows(self, rng):
        tensor, _ = fixture_example41()
        rt = build_reduced_tensor(tensor, 5, seed=rng)
        found = run_stage1(rt, SolveOptions(), rng).truncated(2)
        ms = run_stage2(rt, found, rng)
        assert commutator_bound(ms) <= OFFDIAG_TOL
        t1 = np.eye(rt.rank)[:, : rt.slice_cols]
        for idx, m in enumerate(ms):
            assert np.linalg.norm(m @ t1 - rt.slice(idx + 2)) <= 1e-9 * max(1.0, np.linalg.norm(m))

    def test_planted_from_scratch(self, rng):
        _, _, rt, _, _, _, _ = make_planted(rng, 9, 4, 4, 9)
        ms = run_stage2(rt, EigRowSet.empty(rt), rng)
        assert commutator_bound(ms) <= OFFDIAG_TOL

    def test_fully_determined_shortcut(self, rng):
        _, _, rt, s_rows, lam, ms, _ = make_planted(rng, 6, 3, 3, 5)
        got_ms = run_stage2(rt, planted_rowset(s_rows, lam, 5), rng)
        for got, want in zip(got_ms, ms):
            assert np.linalg.norm(got - want) <= 1e-7 * np.linalg.norm(want)

    def test_solution_satisfies_combined_system(self, rng):
        _, _, rt, s_rows, lam, _, _ = make_planted(rng, 7, 3, 3, 6)
        found = planted_rowset(s_rows, lam, 2)
        ms = run_stage2(rt, found, rng)
        a_hat, b_hat = dense_system(rt, found)
        p_vec = np.concatenate([vec(m[:, rt.slice_cols :]) for m in ms])
        gap = np.linalg.norm(a_hat @ p_vec - b_hat)
        assert gap <= 1e-8 * max(1.0, np.linalg.norm(b_hat))


class TestEigenrowLevels:
    def record_levels(self, monkeypatch):
        import gpcpd.stage2 as stage2

        levels = []
        real = stage2.assemble_stage2

        def recording(rt, found):
            levels.append(found.p)
            return real(rt, found)

        monkeypatch.setattr(stage2, "assemble_stage2", recording)
        return levels

    def test_inconsistent_level_drops_last_row(self, rng, monkeypatch):
        _, _, rt, s_rows, lam, _, _ = make_planted(rng, 6, 3, 3, 5)
        found = poisoned_last_row(planted_rowset(s_rows, lam, 3), rng)
        levels = self.record_levels(monkeypatch)
        ms = run_stage2(rt, found, rng)
        assert levels == [3, 2]
        assert commutator_bound(ms) <= OFFDIAG_TOL

    def test_failed_level_is_resolved_with_harvested_rows(self, rng, monkeypatch):
        import gpcpd.stage2 as stage2

        _, _, rt, s_rows, lam, _, p_true = make_planted(rng, 6, 3, 3, 5)
        levels = self.record_levels(monkeypatch)
        real = stage2._solve_system

        def first_call_fails(sys2, rt_, rng_, deadline, endpoints):
            if len(levels) == 1:
                endpoints.append((1.0, near_planted_endpoint(rng_, sys2, p_true, 1e-4)))
                return None
            return real(sys2, rt_, rng_, deadline, endpoints)

        monkeypatch.setattr(stage2, "_solve_system", first_call_fails)
        found = planted_rowset(s_rows, lam, 2)
        before = found.S.tobytes()
        ms = run_stage2(rt, found, rng)
        assert levels == [2, 5]
        assert commutator_bound(ms) <= OFFDIAG_TOL
        assert found.p == 2 and found.S.tobytes() == before  # the harvest grew a new set

    def test_inconsistent_harvest_ends_stage2(self, rng, monkeypatch):
        import gpcpd.stage2 as stage2

        _, _, rt, s_rows, lam, _, _ = make_planted(rng, 6, 3, 3, 5)
        found = planted_rowset(s_rows, lam, 3)
        poisoned = poisoned_last_row(found, rng)
        levels = self.record_levels(monkeypatch)
        monkeypatch.setattr(stage2, "_solve_system", lambda *args: None)
        monkeypatch.setattr(stage2, "harvest_rows", lambda *args: poisoned)
        with pytest.raises(Stage2FailureError):
            run_stage2(rt, found.truncated(2), rng)
        assert levels == [2, 3]

    def test_unsolved_consistent_level_ends_stage2(self, rng, monkeypatch):
        # no smaller level after a consistent one whose starts found no zero:
        # the caller's next attempt redraws everything instead
        import gpcpd.stage2 as stage2

        _, _, rt, s_rows, lam, _, _ = make_planted(rng, 6, 3, 3, 5)
        levels = self.record_levels(monkeypatch)
        monkeypatch.setattr(stage2, "_solve_system", lambda *args: None)
        with pytest.raises(Stage2FailureError):
            run_stage2(rt, planted_rowset(s_rows, lam, 3), rng)
        assert levels == [3]

