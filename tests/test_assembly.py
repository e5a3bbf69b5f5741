import numpy as np
import pytest

from gpcpd import (
    AssemblyError,
    DecompositionError,
    FactorTriple,
    SolveOptions,
    Tensor3,
    UnsupportedRankError,
    cpd_to_tensor,
    decompose,
    fixture_example41,
    relative_error,
)
from gpcpd.assembly import (
    decomposition_from_eigmatrix,
    eigmatrix_from_pkset,
    gevd_lowrank_decompose,
    recover_U1_lls,
)
from gpcpd.linalg import complex_normal, random_unitary
from gpcpd.preprocess import build_reduced_tensor, build_reduced_tensor_lowrank
from gpcpd.stage1 import run_stage1
from gpcpd.tensors import mode_t_matrix_product

from conftest import planted_generating_data, planted_instance, random_triple
from matching import match_factor_triples, triples_equivalent


class TestRecoverU1:
    def test_planted_recovery(self, rng):
        tensor, triple = planted_instance(rng, 6, 4, 3, 4)
        u1, rel = recover_U1_lls(triple.U2, triple.U3, tensor)
        assert rel <= 1e-9
        assert np.linalg.norm(u1 - triple.U1) <= 1e-9 * np.linalg.norm(triple.U1)

    def test_rank_one(self, rng):
        tensor, triple = planted_instance(rng, 4, 3, 2, 1)
        u1, rel = recover_U1_lls(triple.U2, triple.U3, tensor)
        assert rel <= 1e-10
        assert np.linalg.norm(u1 - triple.U1) <= 1e-9 * np.linalg.norm(triple.U1)

    def test_wrong_factors_leave_large_residual(self, rng):
        tensor, _ = planted_instance(rng, 6, 4, 3, 4)
        wrong = random_triple(rng, 6, 4, 3, 4)
        _, rel = recover_U1_lls(wrong.U2, wrong.U3, tensor)
        assert rel > 1e-2


class TestDecompositionFromEigmatrix:
    def test_planted_equivalence(self, rng):
        # unique-decomposition regime: r = (n2 - 1)(n3 - 1)
        tensor, triple = planted_instance(rng, 7, 3, 3, 4)
        opts = SolveOptions()
        rt = build_reduced_tensor(tensor, 4, seed=rng)
        found = run_stage1(rt, opts, rng)
        assert found.complete
        factors = decomposition_from_eigmatrix(found, tensor, rt)
        assert relative_error(tensor, factors) <= 1e-6
        assert match_factor_triples(triple, factors).min_correlation >= 1.0 - 1e-6

    def test_incomplete_rowset_rejected(self, rng):
        tensor, _ = planted_instance(rng, 7, 3, 3, 6)
        rt = build_reduced_tensor(tensor, 6, seed=rng)
        found = run_stage1(rt, SolveOptions(), rng).truncated(2)
        with pytest.raises(AssemblyError):
            decomposition_from_eigmatrix(found, tensor, rt)


class TestEigmatrixFromPkset:
    def test_planted_matching(self, rng):
        tensor, triple = planted_instance(rng, 6, 3, 3, 5)
        rt = build_reduced_tensor(tensor, 5, seed=rng)
        s_true, lam, ms = planted_generating_data(tensor, triple, rt)
        rows = eigmatrix_from_pkset(ms, rt, rng)
        assert rows.complete
        got = rows.stacked()
        want = s_true / np.linalg.norm(s_true, axis=1)[:, None]
        corr = np.abs(got.conj() @ want.T)
        # every true row matched by exactly one recovered row
        assert np.allclose(np.sort(corr.max(axis=0)), np.ones(5), atol=1e-8)
        lam_got = rows.lambda_matrix()
        for i in range(5):
            j = int(np.argmax(corr[:, i]))
            assert np.max(np.abs(lam_got[1:, j] - lam[1:, i])) <= 1e-7

    def test_equal_matrices_any_basis_works(self, rng):
        tensor, triple = planted_instance(rng, 6, 3, 3, 5)
        rt = build_reduced_tensor(tensor, 5, seed=rng)
        _, _, ms = planted_generating_data(tensor, triple, rt)
        rows = eigmatrix_from_pkset([ms[0]] * 2, rt, rng)
        assert rows.complete

    def test_broken_commutators_rejected(self, rng):
        tensor, _ = planted_instance(rng, 6, 3, 3, 5)
        rt = build_reduced_tensor(tensor, 5, seed=rng)
        ms = [complex_normal(rng, (5, 5)) for _ in range(2)]
        with pytest.raises(AssemblyError):
            eigmatrix_from_pkset(ms, rt, rng)

    def test_lone_matrix_gets_one_eigenbasis(self, rng, monkeypatch):
        # n3 = 2: every combination of the one M_2 is a multiple with its eigenvectors
        import gpcpd.assembly as assembly

        tensor, _ = planted_instance(rng, 3, 2, 2, 2)
        rt = build_reduced_tensor_lowrank(tensor, 2)
        calls = []
        real = assembly.left_eigendecomposition

        def counting(m):
            calls.append(None)
            return real(m)

        monkeypatch.setattr(assembly, "left_eigendecomposition", counting)
        jordan = np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex)
        with pytest.raises(AssemblyError):
            eigmatrix_from_pkset([jordan], rt, rng)
        assert len(calls) == 1


class TestGevdLowrank:
    def test_planted_rank3(self, rng):
        tensor, triple = planted_instance(rng, 5, 4, 3, 3)
        factors = gevd_lowrank_decompose(tensor, 3, rng)
        assert relative_error(tensor, factors) <= 1e-8
        assert triples_equivalent(triple, factors)

    def test_rank_one(self, rng):
        tensor, _ = planted_instance(rng, 4, 3, 2, 1)
        factors = gevd_lowrank_decompose(tensor, 1, rng)
        assert relative_error(tensor, factors) <= 1e-10

    def test_already_diagonal_slices(self, rng):
        # U2 leading block = I makes every reduced slice exactly diagonal
        r = 3
        u1 = rng.standard_normal((5, r))
        u2 = np.vstack([np.eye(r), rng.standard_normal((1, r))])
        u3 = np.vstack([np.ones((1, r)), rng.standard_normal((2, r))])
        triple = FactorTriple(u1, u2, u3, r)
        tensor = cpd_to_tensor(triple)
        factors = gevd_lowrank_decompose(tensor, r, rng)
        assert relative_error(tensor, factors) <= 1e-9
        assert triples_equivalent(triple, factors)


class TestDecompose:
    def test_unsupported_rank(self, rng):
        tensor, _ = fixture_example41()
        with pytest.raises(UnsupportedRankError):
            decompose(tensor, 6, SolveOptions(seed=0))
        with pytest.raises(UnsupportedRankError):
            decompose(tensor, 0, SolveOptions(seed=0))
        with pytest.raises(UnsupportedRankError):
            decompose(tensor, 9.0, SolveOptions(seed=0))
        with pytest.raises(UnsupportedRankError):
            decompose(tensor, True, SolveOptions(seed=0))

    def test_numpy_integer_rank(self, rng):
        tensor, _ = planted_instance(rng, 6, 4, 3, 5)
        _, report = decompose(tensor, np.int64(5), SolveOptions(seed=3))
        assert report.success

    def test_middle_rank_route(self, rng):
        tensor, _ = planted_instance(rng, 6, 4, 3, 5)
        factors, report = decompose(tensor, 5, SolveOptions(seed=3))
        assert report.success and report.stage_used in ("stage1", "stage2")
        assert relative_error(tensor, factors) == pytest.approx(report.err_rel)

    def test_lowrank_route(self, rng):
        tensor, _ = planted_instance(rng, 6, 4, 3, 3)
        _, report = decompose(tensor, 3, SolveOptions(seed=3))
        assert report.success and report.stage_used == "lowrank-gevd"

    def test_success_flag_matches_threshold(self, rng):
        tensor, _ = planted_instance(rng, 6, 4, 3, 5)
        _, report = decompose(tensor, 5, SolveOptions(seed=3))
        assert report.success == (report.err_rel <= 1e-6)

    def test_wrong_rank_never_claims_success(self, rng):
        data = rng.standard_normal((4, 3, 3))  # generic: rank > 4
        try:
            _, report = decompose(Tensor3(data), 4, SolveOptions(seed=1))
            assert not report.success
        except DecompositionError:
            pass

    def test_dimension_sorting_transparency(self, rng):
        tensor, _ = planted_instance(rng, 6, 4, 3, 5)
        permuted = tensor.permute_modes((2, 0, 1))  # dims (3, 6, 4)
        f1, r1 = decompose(tensor, 5, SolveOptions(seed=5))
        f2, r2 = decompose(permuted, 5, SolveOptions(seed=5))
        assert r1.success and r2.success
        # factor of source mode m must match: new mode i holds source perm[i]
        back = FactorTriple(f2.U2, f2.U3, f2.U1, 5)  # inverse of (2,0,1)
        assert triples_equivalent(f1, back)

    def test_rescaled_columns_represent_same_tensor(self, rng):
        tensor, _ = planted_instance(rng, 6, 4, 3, 5)
        factors, _ = decompose(tensor, 5, SolveOptions(seed=3))
        c = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        scaled = factors.scale_columns(c, 1.0 / c, np.ones(5))
        a = cpd_to_tensor(factors)
        b = cpd_to_tensor(scaled)
        assert np.linalg.norm(a.data - b.data) <= 1e-12 * a.norm()

    def test_mixing_retry_on_degenerate_leading_block(self, rng):
        # leading rows of U1 made dependent: the unmixed attempt fails genericity
        r = 3
        u1 = rng.standard_normal((5, r))
        u1[1, :] = u1[0, :]
        u2 = rng.standard_normal((4, r))
        u3 = rng.standard_normal((3, r))
        u3[0, :] = 0.0  # also kill the first-slice weights
        u3[0, 0] = 0.0
        triple = FactorTriple(u1, u2, u3 + 1e-30, r)
        tensor = cpd_to_tensor(triple)
        factors, report = decompose(tensor, r, SolveOptions(seed=7))
        assert report.success
        assert relative_error(tensor, factors) <= 1e-6

    def test_seed_determinism(self, rng):
        tensor, _ = planted_instance(rng, 6, 4, 3, 5)
        f1, r1 = decompose(tensor, 5, SolveOptions(seed=11))
        f2, r2 = decompose(tensor, 5, SolveOptions(seed=11))
        assert np.array_equal(f1.U1, f2.U1)
        assert r1.err_rel == r2.err_rel
        assert r1.retries == r2.retries


INVARIANCE_CASES = {"9x4x4r9": ((9, 4, 4, 9), 31), "6x4x3r3-lowrank": ((6, 4, 3, 3), 32)}


def _scaled(c):
    return lambda tensor, rng: Tensor3(c * tensor.data)


def _unitary_mixed(tensor, rng):
    n1, _, n3 = tensor.dims
    inner = mode_t_matrix_product(random_unitary(n3, rng), tensor, mode=3)
    return mode_t_matrix_product(random_unitary(n1, rng), inner, mode=1)


@pytest.mark.parametrize("case", sorted(INVARIANCE_CASES))
@pytest.mark.parametrize(
    "transform",
    [_scaled(1e-6), _scaled(1e6), _scaled(3j), _unitary_mixed],
    ids=["scale-1e-6", "scale-1e6", "scale-3j", "unitary-modes-1-3"],
)
def test_invariance_to_global_scale_and_unitary_mixing(case, transform):
    # c T and W1 x_1 (V3 x_3 T) have rank-r decompositions whenever T has one
    (n1, n2, n3, r), seed = INVARIANCE_CASES[case]
    rng = np.random.default_rng(seed)
    tensor, _ = planted_instance(rng, n1, n2, n3, r, complex_entries=True)
    moved = transform(tensor, rng)
    factors, report = decompose(moved, r, SolveOptions(seed=seed))
    assert report.success and report.err_rel <= 1e-6
    assert relative_error(moved, factors) <= 1e-6


def test_time_limit_is_cooperative(rng):
    tensor, _ = planted_instance(rng, 6, 4, 3, 5)
    _, report = decompose(tensor, 5, SolveOptions(seed=13, time_limit=300.0))
    assert report.success


def test_forced_stage2_truncation_end_to_end(rng):
    tensor, _ = fixture_example41()
    factors, report = decompose(tensor, 5, SolveOptions(seed=17, stage1_max_rows=2))
    assert report.success and report.stage_used == "stage2"
    assert relative_error(tensor, factors) <= 1e-6


def test_non_finite_lm_value_moves_on_to_next_attempt(rng, monkeypatch):
    # the first projected-residual evaluation of the first attempt turns inf;
    # the attempt fails and the retry loop goes on instead of raising
    import gpcpd.stage1 as stage1

    real = stage1.eval_fQ
    calls = []

    def poisoned(*args, **kwargs):
        calls.append(None)
        value = real(*args, **kwargs)
        return np.full_like(value, np.inf) if len(calls) == 1 else value

    monkeypatch.setattr(stage1, "eval_fQ", poisoned)
    tensor, _ = planted_instance(rng, 6, 4, 3, 5)
    factors, report = decompose(tensor, 5, SolveOptions(seed=13))
    assert report.success and report.retries >= 1
    assert relative_error(tensor, factors) <= 1e-6


@pytest.mark.parametrize(
    "setting",
    [
        {"success_tol": 0.0},
        {"success_tol": -1.0},
        {"success_tol": float("nan")},
        {"success_tol": float("inf")},
        {"success_tol": True},
        {"time_limit": 0.0},
        {"time_limit": -1.0},
        {"time_limit": float("nan")},
        {"time_limit": float("inf")},
        {"stage1_max_rows": -1},
        {"stage1_max_rows": True},
        {"stage1_max_rows": 2.5},
        {"stage1_max_rows": "3"},
        {"seed": -1},
        {"seed": True},
        {"seed": 2.5},
        {"seed": "3"},
    ],
)
def test_solve_options_reject_bad_settings(setting):
    with pytest.raises(ValueError):
        SolveOptions(**setting)


def test_solve_options_accept_edge_settings():
    SolveOptions(success_tol=1, time_limit=None, stage1_max_rows=0)
    SolveOptions(success_tol=np.float64(1e-9), time_limit=np.float32(0.5))
    SolveOptions(seed=0, stage1_max_rows=None)
    SolveOptions(seed=np.int64(3), stage1_max_rows=np.uint8(2))
