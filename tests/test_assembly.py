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
    _factors_from_reduced_eigmatrix,
    decomposition_from_eigmatrix,
    eigmatrix_from_pkset,
    gevd_lowrank_decompose,
    recover_U1_lls,
)
from gpcpd.linalg import complex_normal, least_squares_min_norm, random_unitary, rank_deficient
from gpcpd.preprocess import build_reduced_tensor, build_reduced_tensor_lowrank
from gpcpd.stage1 import run_stage1
from gpcpd.tensors import khatri_rao, mode_k_flatten, mode_t_matrix_product

from conftest import assert_rowset_valid, planted_generating_data, planted_instance, random_triple
from matching import match_factor_triples, triples_equivalent


def u1_rel_residual(u1, u2, u3, tensor):
    """||(U2 kr U3) U1^T - Flatten(f, 1)^T|| / ||Flatten(f, 1)||, the mode-1 system's relative residual."""
    b = mode_k_flatten(tensor, 1).T
    return np.linalg.norm(khatri_rao(u2, u3) @ u1.T - b) / np.linalg.norm(b)


class TestRecoverU1:
    def test_planted_recovery(self, rng):
        tensor, triple = planted_instance(rng, 6, 4, 3, 4)
        u1 = recover_U1_lls(triple.U2, triple.U3, tensor)
        assert u1_rel_residual(u1, triple.U2, triple.U3, tensor) <= 1e-9
        assert np.linalg.norm(u1 - triple.U1) <= 1e-9 * np.linalg.norm(triple.U1)

    def test_rank_one(self, rng):
        tensor, triple = planted_instance(rng, 4, 3, 2, 1)
        u1 = recover_U1_lls(triple.U2, triple.U3, tensor)
        assert u1_rel_residual(u1, triple.U2, triple.U3, tensor) <= 1e-10
        assert np.linalg.norm(u1 - triple.U1) <= 1e-9 * np.linalg.norm(triple.U1)

    def test_deficient_khatri_rao_rejected(self, rng):
        # equal columns 0 and 1 in both U2 and U3 give equal Khatri-Rao columns
        f = Tensor3(complex_normal(rng, (8, 5, 4)))
        u2, u3 = complex_normal(rng, (5, 3)), complex_normal(rng, (4, 3))
        u2[:, 1], u3[:, 1] = u2[:, 0], u3[:, 0]
        with pytest.raises(AssemblyError):
            recover_U1_lls(u2, u3, f)

    def test_wrong_factors_leave_large_residual(self, rng):
        tensor, _ = planted_instance(rng, 6, 4, 3, 4)
        wrong = random_triple(rng, 6, 4, 3, 4)
        u1 = recover_U1_lls(wrong.U2, wrong.U3, tensor)
        assert u1_rel_residual(u1, wrong.U2, wrong.U3, tensor) > 1e-2


LOWRANK_SHAPES = [(60, 30, 12, 25), (40, 20, 10, 15), (8, 5, 4, 3), (6, 6, 3, 6), (5, 4, 1, 3), (7, 7, 7, 7)]


class TestLowrankFactors:
    @pytest.mark.parametrize("dims", LOWRANK_SHAPES[:4])
    def test_matches_dense_mode2_solve(self, rng, dims):
        # for a rank-r tensor U2 is the mode-2 Khatri-Rao least-squares solution
        # given U1 and U3; on other tensors the eigenbasis fit differs from it
        n1, n2, n3, r = dims
        tensor, _ = planted_instance(rng, n1, n2, n3, r, complex_entries=True)
        factors = gevd_lowrank_decompose(tensor, r, rng)
        dense, deficient = least_squares_min_norm(khatri_rao(factors.U1, factors.U3), mode_k_flatten(tensor, 2).T)
        assert not deficient
        assert np.linalg.norm(factors.U2 - dense.T) <= 1e-10 * np.linalg.norm(dense)

    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("dims", LOWRANK_SHAPES, ids=lambda d: "{}x{}x{}r{}".format(*d))
    def test_planted_recovery(self, dims, seed):
        rng = np.random.default_rng(seed)
        n1, n2, n3, r = dims
        tensor, triple = planted_instance(rng, n1, n2, n3, r, complex_entries=True)
        factors = gevd_lowrank_decompose(tensor, r, rng)
        assert relative_error(tensor, factors) <= 1e-11
        # a matrix (n3 = 1) has no essentially unique rank-r factorization to compare with
        assert n3 == 1 or triples_equivalent(triple, factors)

    def test_no_least_squares_solve(self, rng, monkeypatch):
        import gpcpd.assembly as assembly

        def refuse(*args):
            raise AssertionError("least squares called on the low-rank route")

        monkeypatch.setattr(assembly, "least_squares_min_norm", refuse)
        tensor, _ = planted_instance(rng, 12, 8, 5, 6, complex_entries=True)
        factors = gevd_lowrank_decompose(tensor, 6, rng)
        assert relative_error(tensor, factors) <= 1e-11

    def test_rank_deficient_u1_rejected(self, rng):
        # S = I and f[:, :r, k] = U1 diag(U3[k]) with equal columns 0 and 1 of U1
        r = 3
        u1, u2, u3 = complex_normal(rng, (8, r)), complex_normal(rng, (5, r)), complex_normal(rng, (4, r))
        u1[:, 1] = u1[:, 0]
        u2[:r], u3[0] = np.eye(r), 1.0
        tensor = cpd_to_tensor(FactorTriple(u1, u2, u3, r))
        with pytest.raises(AssemblyError, match="U1 is column rank deficient"):
            _factors_from_reduced_eigmatrix(u3, np.eye(r, dtype=np.complex128), tensor, r)

    def test_overflowing_bound_leaves_the_gate_to_the_svd(self, rng):
        # entries near 1e-150 and cond(U1) = 1e12: ||R1^{-1}||_F overflows, and the SVD still rejects R1
        r, eye = 3, np.eye(3, dtype=np.complex128)
        u1 = 1e-150 * (random_unitary(8, rng)[:, :r] * [1.0, 1e-6, 1e-12]) @ random_unitary(r, rng)
        u2, u3 = complex_normal(rng, (5, r)), complex_normal(rng, (4, r))
        u2[:r], u3[0] = eye, 1.0
        with pytest.raises(AssemblyError, match="U1 is column rank deficient"):
            _factors_from_reduced_eigmatrix(u3, eye, cpd_to_tensor(FactorTriple(u1, u2, u3, r)), r)

    def test_u1_gate_decides_as_the_svd(self):
        # cond(U1) swept across the 1e10 cutoff with S = I: the bound ||R1||_F ||R1^{-1}||_F >= cond(R1)
        # lets the SVD decide wherever it cannot, so the error comes exactly when rank_deficient(R1)
        r, eye, raised, passed = 4, np.eye(4, dtype=np.complex128), 0, 0
        for seed in range(3):
            rng = np.random.default_rng(seed)
            for cond in np.logspace(9, 11, 21):
                spread = np.diag(np.logspace(0, -np.log10(cond), r))
                u1 = random_unitary(10, rng)[:, :r] @ spread @ random_unitary(r, rng)
                u2, u3 = complex_normal(rng, (6, r)), complex_normal(rng, (5, r))
                u2[:r], u3[0] = np.eye(r), 1.0
                tensor = cpd_to_tensor(FactorTriple(u1, u2, u3, r))
                w = u3.conj() / np.sum(np.abs(u3) ** 2, axis=0)
                formed = tensor.data[:, :r, :].reshape(10, -1) @ khatri_rao(w, eye)  # the U1 the assembly forms
                if rank_deficient(np.linalg.qr(formed)[1]):
                    with pytest.raises(AssemblyError, match="U1 is column rank deficient"):
                        _factors_from_reduced_eigmatrix(u3, eye, tensor, r)
                    raised += 1
                else:
                    _factors_from_reduced_eigmatrix(u3, eye, tensor, r)
                    passed += 1
        assert raised and passed

    def test_exactly_singular_r1_rejected(self, rng):
        # a zero column of f[:, :r, :] gives U1 a zero column and R1 an exact zero pivot
        data = complex_normal(rng, (8, 5, 4))
        data[:, 1, :] = 0.0
        u3 = np.concatenate([np.ones((1, 3)), complex_normal(rng, (3, 3))])
        with pytest.raises(AssemblyError, match="U1 is column rank deficient"):
            _factors_from_reduced_eigmatrix(u3, np.eye(3, dtype=np.complex128), Tensor3(data), 3)


def _near_parallel(dims, mode, seed, delta):
    """Planted complex tensor whose factor in ``mode`` has column 1 = column 0 + delta * noise."""
    rng = np.random.default_rng(seed)
    mats = [complex_normal(rng, (n, dims[3])) for n in dims[:3]]
    mats[mode][:, 1] = mats[mode][:, 0] + delta * complex_normal(rng, dims[mode])
    return cpd_to_tensor(FactorTriple(*mats, dims[3]))


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("mode", range(3))
@pytest.mark.parametrize("dims", [(8, 6, 5, 4), (6, 6, 3, 6), (60, 30, 12, 25)], ids=lambda d: "{}x{}x{}r{}".format(*d))
def test_lowrank_near_parallel_columns(dims, mode, seed):
    tensor = _near_parallel(dims, mode, seed, 1e-2)
    _, report = decompose(tensor, dims[3], SolveOptions(seed=seed))
    assert report.stage_used == "lowrank-gevd"
    assert report.err_rel <= 1e-8


@pytest.mark.parametrize("tiny", [1e-170, 1e-200])
def test_lowrank_tiny_leading_rows(tiny):
    # F[:r, :r, 0] is tiny against max|F|, so ||P||_F overflows; the SVD then
    # settles the gate, and the route solves the tensor as at ordinary scale
    rng = np.random.default_rng(0)
    mats = [complex_normal(rng, (n, 3)) for n in (8, 5, 4)]
    mats[0][:3] *= tiny
    _, report = decompose(cpd_to_tensor(FactorTriple(*mats, 3)), 3, SolveOptions(seed=0))
    assert report.stage_used == "lowrank-gevd" and report.err_rel <= 1e-12


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
        rows = eigmatrix_from_pkset(ms, rng)
        assert rows.complete
        assert_rowset_valid(rows, rt)
        got = rows.S
        want = s_true / np.linalg.norm(s_true, axis=1)[:, None]
        corr = np.abs(got.conj() @ want.T)
        # every true row matched by exactly one recovered row
        assert np.allclose(np.sort(corr.max(axis=0)), np.ones(5), atol=1e-8)
        for i in range(5):
            j = int(np.argmax(corr[:, i]))
            assert np.max(np.abs(rows.lambdas[:, j] - lam[1:, i])) <= 1e-7

    def test_equal_matrices_any_basis_works(self, rng):
        tensor, triple = planted_instance(rng, 6, 3, 3, 5)
        rt = build_reduced_tensor(tensor, 5, seed=rng)
        _, _, ms = planted_generating_data(tensor, triple, rt)
        rows = eigmatrix_from_pkset([ms[0]] * 2, rng)
        assert rows.complete

    def test_broken_commutators_rejected(self, rng):
        ms = [complex_normal(rng, (5, 5)) for _ in range(2)]
        with pytest.raises(AssemblyError):
            eigmatrix_from_pkset(ms, rng)

    def test_lone_matrix_gets_one_eigenbasis(self, rng, monkeypatch):
        # n3 = 2: every combination of the one M_2 is a multiple with its eigenvectors
        import gpcpd.assembly as assembly

        calls = []
        real = assembly.left_eigendecomposition

        def counting(m):
            calls.append(None)
            return real(m)

        monkeypatch.setattr(assembly, "left_eigendecomposition", counting)
        jordan = np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex)
        with pytest.raises(AssemblyError):
            eigmatrix_from_pkset([jordan], rng)
        assert len(calls) == 1

    def test_nilpotent_matrix_is_a_typed_failure(self, rng):
        # inv of its eigenvector matrix overflows; that reads as no eigenbasis, without a warning
        nilpotent = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        with pytest.raises(AssemblyError, match="ill-conditioned"):
            eigmatrix_from_pkset([nilpotent], rng)

    def test_diagonalizing_m2_draws_no_combination(self, rng, monkeypatch):
        # combinations are drawn only after a failed candidate: a planted
        # low-rank M_2 with distinct eigenvalues diagonalizes every M_k itself
        import gpcpd.assembly as assembly

        tensor, _ = planted_instance(rng, 7, 5, 4, 4, complex_entries=True)
        rt = build_reduced_tensor_lowrank(tensor, 4)
        ms = [rt.slice(k) for k in range(2, rt.n_slices + 1)]
        calls = []
        real = assembly.complex_normal

        def counting(*args):
            calls.append(None)
            return real(*args)

        monkeypatch.setattr(assembly, "complex_normal", counting)
        rows = eigmatrix_from_pkset(ms, rng)
        assert rows.complete and calls == []
        s = rows.S
        for k, m in enumerate(ms):
            # rows are left eigenvectors: s_i M_k = lambda_ik s_i
            assert np.linalg.norm(s @ m - rows.lambdas[k][:, None] * s) <= 1e-10 * np.linalg.norm(m)


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
        scaled = FactorTriple(factors.U1 * c, factors.U2 / c, factors.U3, 5)
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

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_lowrank_retry_mixes_mode_two(self, seed):
        # U2's leading rows dependent: the leading r x r block of every slice is
        # singular, so only a retry that mixes mode 2 can pass the reduction
        rng = np.random.default_rng(seed)
        r = 3
        u1, u2, u3 = rng.standard_normal((8, r)), rng.standard_normal((5, r)), rng.standard_normal((4, r))
        u2[1] = 2.0 * u2[0]
        tensor = cpd_to_tensor(FactorTriple(u1, u2, u3, r))
        factors, report = decompose(tensor, r, SolveOptions(seed=seed))
        assert report.success and report.stage_used == "lowrank-gevd" and report.retries >= 1
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


@pytest.mark.parametrize("case", sorted(INVARIANCE_CASES))
@pytest.mark.parametrize("c", [1e160, 1e200, 1e300, 1e-160, 1e-200, 1e-300])
def test_extreme_global_scale(case, c):
    # ||c T||^2 over- or underflows here; the factors carry c, so dividing one
    # factor by it must reproduce T itself
    (n1, n2, n3, r), seed = INVARIANCE_CASES[case]
    tensor, _ = planted_instance(np.random.default_rng(seed), n1, n2, n3, r, complex_entries=True)
    factors, report = decompose(Tensor3(c * tensor.data), r, SolveOptions(seed=seed))
    assert report.success and report.err_rel <= 1e-6
    unscaled = FactorTriple(factors.U1 / c, factors.U2, factors.U3, r)
    assert relative_error(tensor, unscaled) <= 1e-6


EQUIVARIANCE_CASES = {**INVARIANCE_CASES, "60x30x12r25-lowrank": ((60, 30, 12, 25), 33)}


# k = +-500 is left out: the max|x| pre-scale then divides by a largest entry
# that is no power of two, which changes the bits on both routes
@pytest.mark.parametrize("case", sorted(EQUIVARIANCE_CASES))
@pytest.mark.parametrize("k", [-40, -3, 3, 40])
def test_power_of_two_scale_is_exact(case, k):
    # 2^k F is exact in floating point, and so is every step of decompose on it:
    # U2, U3 and err_rel keep their bits, and U1 carries 2^k exactly
    (n1, n2, n3, r), seed = EQUIVARIANCE_CASES[case]
    tensor, _ = planted_instance(np.random.default_rng(seed), n1, n2, n3, r, complex_entries=True)
    base, base_report = decompose(tensor, r, SolveOptions(seed=seed))
    scaled, report = decompose(Tensor3(2.0**k * tensor.data), r, SolveOptions(seed=seed))
    assert np.array_equal(scaled.U1, 2.0**k * base.U1)
    assert np.array_equal(scaled.U2, base.U2) and np.array_equal(scaled.U3, base.U3)
    outcome = (report.err_rel, report.retries, report.stage_used)
    assert outcome == (base_report.err_rel, base_report.retries, base_report.stage_used)


def test_decomposition_error_names_last_attempt_error(rng, monkeypatch):
    import gpcpd.assembly as assembly
    from gpcpd import ConditioningError

    def failing(*args, **kwargs):
        raise ConditioningError("probe")

    monkeypatch.setattr(assembly, "build_reduced_tensor", failing)
    tensor, _ = planted_instance(rng, 6, 4, 3, 5)
    with pytest.raises(DecompositionError, match="ConditioningError: probe"):
        decompose(tensor, 5, SolveOptions(seed=3))


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
