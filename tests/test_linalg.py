import warnings

import numpy as np
import pytest

from gpcpd.linalg import (
    RANK_REL_TOL,
    complex_normal,
    condition_estimate,
    least_squares_min_norm,
    left_eigendecomposition,
    null_space_basis,
    qr_full,
    random_unitary,
    rank_deficient,
    residual_is_zero,
)
from gpcpd.tensors import khatri_rao


class TestQrFull:
    def test_identity(self):
        q, r = qr_full(np.eye(3))
        assert np.allclose(np.abs(q), np.eye(3))
        assert np.allclose(q @ r, np.eye(3))

    def test_reconstruction_and_unitarity(self, rng):
        a = complex_normal(rng, (5, 2))
        q, r = qr_full(a)
        assert q.shape == (5, 5) and r.shape == (5, 2)
        assert np.linalg.norm(q @ r - a) <= 1e-12 * np.linalg.norm(a)
        assert np.linalg.norm(q.conj().T @ q - np.eye(5)) <= 1e-12

    def test_zero_column_tolerated(self, rng):
        a = complex_normal(rng, (4, 2))
        a[:, 1] = 0.0
        q, r = qr_full(a)
        assert np.linalg.norm(q.conj().T @ q - np.eye(4)) <= 1e-12
        assert np.linalg.norm(q @ r - a) <= 1e-12 * max(np.linalg.norm(a), 1)


class TestNullSpaceBasis:
    def test_full_column_rank_gives_empty(self, rng):
        n = null_space_basis(complex_normal(rng, (5, 3)))
        assert n.shape == (3, 0)

    def test_hand_null_vector(self):
        n = null_space_basis(np.array([[1.0, 1.0]]))
        assert n.shape == (2, 1)
        direction = np.array([1.0, -1.0]) / np.sqrt(2)
        assert abs(abs(direction @ n[:, 0]) - 1.0) <= 1e-12

    def test_duplicate_rows_same_null_space(self, rng):
        a = complex_normal(rng, (2, 5))
        n1 = null_space_basis(a)
        n2 = null_space_basis(np.vstack([a, a, a]))
        assert n1.shape == n2.shape
        # same subspace: projections coincide
        p1 = n1 @ n1.conj().T
        p2 = n2 @ n2.conj().T
        assert np.linalg.norm(p1 - p2) <= 1e-10

    def test_orthonormal_and_annihilating(self, rng):
        a = complex_normal(rng, (3, 6))
        n = null_space_basis(a)
        s = np.linalg.svd(a, compute_uv=False)
        assert n.shape[1] == 6 - int(np.sum(s > RANK_REL_TOL * s[0]))
        assert np.linalg.norm(n.conj().T @ n - np.eye(n.shape[1])) <= 1e-12
        assert np.linalg.norm(a @ n) <= 1e-10 * np.linalg.norm(a)

    @pytest.mark.parametrize("m, n, rank", [(40, 24, 17), (12, 30, 9), (30, 30, 21), (0, 5, 0)])
    def test_projector_matches_full_svd(self, rng, m, n, rank):
        # reference: the null space read off the full SVD, square U included
        a = complex_normal(rng, (m, rank)) @ complex_normal(rng, (rank, n))
        if m:
            _, s, vh = np.linalg.svd(a, full_matrices=True)
            want = vh[int(np.sum(s > RANK_REL_TOL * s[0])) :, :].conj().T
        else:
            want = np.eye(n)
        got = null_space_basis(a)
        assert got.shape == want.shape == (n, n - rank)
        assert np.linalg.norm(got @ got.conj().T - want @ want.conj().T) <= 1e-12


class TestLeastSquaresMinNorm:
    def test_square_nonsingular(self, rng):
        a = complex_normal(rng, (4, 4)) + 2 * np.eye(4)
        b = complex_normal(rng, (4, 2))
        x, deficient = least_squares_min_norm(a, b)
        assert not deficient
        assert np.linalg.norm(a @ x - b) <= 1e-12 * np.linalg.norm(b)

    def test_plant_and_recover_overdetermined(self, rng):
        a = complex_normal(rng, (8, 3))
        x0 = complex_normal(rng, (3, 2))
        x, _ = least_squares_min_norm(a, a @ x0)
        assert np.linalg.norm(x - x0) <= 1e-10 * np.linalg.norm(x0)
        assert np.linalg.norm(a @ x - a @ x0) <= 1e-10 * np.linalg.norm(a @ x0)

    def test_zero_matrix_gives_zero_solution(self):
        x, deficient = least_squares_min_norm(np.zeros((3, 2)), np.ones(3))
        assert deficient
        assert np.array_equal(x, np.zeros(2))
        assert np.linalg.norm(np.zeros((3, 2)) @ x - np.ones(3)) == pytest.approx(np.sqrt(3.0))

    @pytest.mark.parametrize(
        "a",
        [
            np.diag([1.0, RANK_REL_TOL]),
            np.diag([1.0, 2.0 * RANK_REL_TOL]),
            np.zeros((3, 2)),
            np.ones((4, 3)),
            np.arange(12.0).reshape(3, 4),
            np.eye(3)[:, :2],
            np.vstack([np.diag([1.0, 0.5, RANK_REL_TOL]), np.zeros((4, 3))]),
            np.vstack([np.diag([1.0, 0.5, 2.0 * RANK_REL_TOL]), np.zeros((4, 3))]),
        ],
        ids=[
            "at-cutoff",
            "above-cutoff",
            "zero",
            "rank-one",
            "wide-rank-two",
            "tall-full",
            "tall-at-cutoff",
            "tall-above-cutoff",
        ],
    )
    def test_deficient_flag_matches_rank_deficient(self, a):
        _, deficient = least_squares_min_norm(a, np.ones(a.shape[0]))
        assert deficient == rank_deficient(a)

    @pytest.mark.parametrize(
        "rows, cols, rhs",
        [((8,), 3, None), ((50,), 20, 5), ((25, 12), 25, 60), ((60, 12), 25, 30)],
        ids=["tall-vector-rhs", "tall-50x20", "khatri-rao-300x25", "khatri-rao-720x25"],
    )
    def test_tall_full_rank_matches_gelsd(self, rng, rows, cols, rhs):
        # the QR path against numpy's SVD-based solver, on inconsistent systems;
        # two row factors make a Khatri-Rao matrix shaped like the factor solves'
        factors = [complex_normal(rng, (n, cols)) for n in rows]
        a = factors[0] if len(factors) == 1 else khatri_rao(*factors)
        b = complex_normal(rng, (a.shape[0],) if rhs is None else (a.shape[0], rhs))
        x, deficient = least_squares_min_norm(a, b)
        x_ref, _, rank, _ = np.linalg.lstsq(a, b, rcond=RANK_REL_TOL)
        res = np.linalg.norm(a @ x - b)
        res_ref = np.linalg.norm(a @ x_ref - b)
        assert not deficient and rank == cols
        assert x.shape == x_ref.shape
        assert np.linalg.norm(x - x_ref) <= 1e-12 * np.linalg.norm(x_ref)
        assert abs(res - res_ref) <= 1e-12 * res_ref

    def test_minimum_norm_among_solutions(self, rng):
        a = complex_normal(rng, (2, 5))
        b = complex_normal(rng, 2)
        x, _ = least_squares_min_norm(a, b)
        n = null_space_basis(a)
        # any movement along the null space grows the norm
        assert np.linalg.norm(n.conj().T @ x) <= 1e-10 * np.linalg.norm(x)


class TestLeftEigendecomposition:
    def test_diagonal_matrix(self):
        out = left_eigendecomposition(np.diag([1.0, 2.0, 3.0]))
        assert sorted(np.round(out.values.real).tolist()) == [1, 2, 3]
        assert np.allclose(np.abs(out.S), np.eye(3))

    def test_similarity_construction(self, rng):
        lam = np.array([1.0 + 0.5j, -2.0, 0.3 - 1.0j, 4.0])
        a = complex_normal(rng, (4, 4)) + 2 * np.eye(4)
        m = a @ np.diag(lam) @ np.linalg.inv(a)
        out = left_eigendecomposition(m)
        got = np.sort_complex(out.values)
        want = np.sort_complex(lam)
        assert np.max(np.abs(got - want)) <= 1e-8
        # rows are left eigenvectors with unit norm
        for i in range(4):
            row = out.S[i, :]
            assert abs(np.linalg.norm(row) - 1.0) <= 1e-12
            assert np.linalg.norm(row @ m - out.values[i] * row) <= 1e-8 * np.linalg.norm(m)

    def test_returns_inverse_of_eigenbasis(self, rng):
        q = random_unitary(6, rng)
        m = q @ np.diag(complex_normal(rng, 6)) @ q.conj().T
        out = left_eigendecomposition(m)
        assert np.linalg.norm(out.S @ out.S_inv - np.eye(6)) <= 1e-12
        assert np.linalg.norm(out.S @ m @ out.S_inv - np.diag(out.values)) <= 1e-12 * np.linalg.norm(m)

    def test_jordan_block_flags_conditioning(self):
        out = left_eigendecomposition(np.array([[1.0, 1.0], [0.0, 1.0]]))
        assert out.s_min <= 1e-7

    def test_nilpotent_block_reads_zero_without_warning(self):
        # eig returns an eigenvector matrix singular to about 1e-292: the row norms of its inverse overflow
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = left_eigendecomposition(np.array([[0.0, 1.0], [0.0, 0.0]]))
        assert out.s_min == 0.0

    def test_s_min_decides_the_gate_as_the_svd(self):
        # one or three pairs of eigenvectors delta apart sweep sigma_min(S) across the 1e-8 gate of
        # the simultaneous diagonalization; with three pairs 1/||S_inv||_F sits well below sigma_min,
        # so s_min takes that bound only above 1e-6 and the SVD's value elsewhere
        certified = gated = total = 0
        for seed in range(5):
            rng = np.random.default_rng(seed)
            for pairs in (1, 3):
                for delta in np.logspace(-4, -12, 33):
                    v = complex_normal(rng, (6, 6))
                    for j in range(1, 2 * pairs, 2):
                        v[:, j] = v[:, j - 1] + delta * complex_normal(rng, 6)
                    out = left_eigendecomposition(v @ np.diag(complex_normal(rng, 6)) @ np.linalg.inv(v))
                    exact = np.linalg.svd(out.S, compute_uv=False)[-1]
                    assert (out.s_min <= 1e-8) == (exact <= 1e-8)
                    assert out.s_min <= exact * (1 + 1e-6)  # a lower bound, up to rounding in S_inv
                    certified += out.s_min > 1e-6
                    gated += exact <= 1e-8
                    total += 1
        assert 0 < certified < total and 0 < gated < total
        jordan = left_eigendecomposition(np.array([[1.0, 1.0], [0.0, 1.0]]))
        assert jordan.s_min == np.linalg.svd(jordan.S, compute_uv=False)[-1] <= 1e-8

    def test_pinv_fallback_takes_s_min_from_the_svd(self, rng, monkeypatch):
        # S_inv is no inverse after the pseudo-inverse, so its norm bounds nothing
        def singular(a):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(np.linalg, "inv", singular)
        out = left_eigendecomposition(complex_normal(rng, (5, 5)))
        assert out.s_min == np.linalg.svd(out.S, compute_uv=False)[-1]


class TestRandomUnitary:
    def test_scalar_case(self):
        q = random_unitary(1, 0)
        assert abs(abs(q[0, 0]) - 1.0) <= 1e-12

    def test_unitarity(self):
        q = random_unitary(10, 3)
        assert np.linalg.norm(q.conj().T @ q - np.eye(10)) <= 1e-12

    def test_seed_determinism(self):
        assert np.array_equal(random_unitary(5, 42), random_unitary(5, 42))
        assert not np.array_equal(random_unitary(5, 42), random_unitary(5, 43))


class TestInverseAndCondition:
    def test_identity(self):
        assert condition_estimate(np.eye(4)) == pytest.approx(1.0)

    def test_near_singular_rejected(self):
        assert rank_deficient(np.diag([1.0, 1e-12]))

    def test_condition_matches_svd_ratio(self, rng):
        a = complex_normal(rng, (5, 5))
        s = np.linalg.svd(a, compute_uv=False)
        assert condition_estimate(a) == pytest.approx(s[0] / s[-1])


def test_null_space_plus_particular_solves_consistent_system(rng):
    a = complex_normal(rng, (3, 6))
    x_true = complex_normal(rng, 6)
    b = a @ x_true
    x, _ = least_squares_min_norm(a, b)
    n = null_space_basis(a)
    combo = x + n @ complex_normal(rng, n.shape[1])
    assert np.linalg.norm(a @ combo - b) <= 1e-10 * np.linalg.norm(b)


class TestRankDeficient:
    def test_cutoff_is_inclusive(self):
        assert rank_deficient(np.diag([1.0, RANK_REL_TOL]))
        assert not rank_deficient(np.diag([1.0, 2.0 * RANK_REL_TOL]))

    def test_empty_and_zero_matrices_flagged(self):
        assert rank_deficient(np.zeros((0, 3)))
        assert rank_deficient(np.zeros((3, 2)))

    def test_wide_and_tall_full_rank(self, rng):
        assert not rank_deficient(complex_normal(rng, (3, 7)))
        assert not rank_deficient(complex_normal(rng, (7, 3)))


def test_residual_is_zero_scales_with_its_reference():
    assert residual_is_zero(1e-9, 1.0)
    assert not residual_is_zero(1e-7, 1.0)
    assert residual_is_zero(1e-7, 100.0)
    assert not residual_is_zero(float("nan"), 1.0)
