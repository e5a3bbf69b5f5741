import numpy as np
import pytest

from gpcpd import (
    DimensionMismatchError,
    FactorTriple,
    GenericityError,
    Tensor3,
    cpd_to_tensor,
    fixture_example41,
    mode_k_flatten,
)
from gpcpd.linalg import complex_normal, random_unitary, spectrum_deficient
from gpcpd.preprocess import (
    build_reduced_tensor,
    build_reduced_tensor_lowrank,
    random_mode_mixing,
)

from conftest import planted_generating_data, planted_instance


class TestBuildReducedTensor:
    def test_example41_first_slice(self):
        tensor, _ = fixture_example41()
        rt = build_reduced_tensor(tensor, 5, seed=0)
        assert np.max(np.abs(rt.slice(1) - np.eye(5)[:, :3])) <= 1e-10

    def test_planted_decomposition_of_reduced_tensor(self, rng):
        tensor, triple = planted_instance(rng, 9, 4, 4, 9)
        rt = build_reduced_tensor(tensor, 9, seed=rng)
        uhat1 = rt.P @ triple.U1[:9, :]
        recon = cpd_to_tensor(FactorTriple(uhat1, triple.U2, triple.U3, 9))
        assert np.linalg.norm(rt.T.data - recon.data) <= 1e-10 * np.linalg.norm(recon.data)

    def test_zero_column_slice_raises_genericity(self, rng):
        data = rng.standard_normal((5, 3, 3))
        data[:, 1, 0] = 0.0  # first slice loses column rank
        with pytest.raises(GenericityError):
            build_reduced_tensor(Tensor3(data), 4, seed=0)

    def test_rank_range_enforced(self, rng):
        tensor, _ = planted_instance(rng, 5, 3, 3, 3)
        with pytest.raises(DimensionMismatchError):
            build_reduced_tensor(tensor, 3, seed=0)  # r <= n2 is the low-rank case

    def test_planted_generating_relation(self, rng):
        # M_k T_1 = T_k for the generating matrices built from planted factors
        for _ in range(5):
            tensor, triple = planted_instance(rng, 7, 3, 3, 6)
            rt = build_reduced_tensor(tensor, 6, seed=rng)
            _, _, ms = planted_generating_data(tensor, triple, rt)
            t1 = np.eye(6)[:, :3]
            for k, m in enumerate(ms):
                gap = np.linalg.norm(m @ t1 - rt.slice(k + 2))
                assert gap <= 1e-9 * max(1.0, np.linalg.norm(m))

    def test_seed_reproducibility(self, rng):
        tensor, _ = planted_instance(rng, 6, 3, 3, 5)
        a = build_reduced_tensor(tensor, 5, seed=7)
        b = build_reduced_tensor(tensor, 5, seed=7)
        assert np.array_equal(a.C, b.C)
        assert np.array_equal(a.T.data, b.T.data)


class TestBuildReducedTensorLowrank:
    def test_planted_identity_first_slice(self, rng):
        tensor, _ = planted_instance(rng, 4, 4, 3, 2)
        rt = build_reduced_tensor_lowrank(tensor, 2)
        assert np.max(np.abs(rt.slice(1) - np.eye(2))) <= 1e-10

    def test_slice_eigenvalues_match_planted_weights(self, rng):
        # with the first U3 row pinned at one, T_k is similar to diag(U3[k, :])
        tensor, triple = planted_instance(rng, 5, 5, 3, 3)
        u3 = triple.U3.copy()
        u3[0, :] = 1.0
        triple = FactorTriple(triple.U1, triple.U2, u3, 3)
        tensor = cpd_to_tensor(triple)
        rt = build_reduced_tensor_lowrank(tensor, 3)
        for k in (2, 3):
            got = np.sort_complex(np.linalg.eigvals(rt.slice(k)))
            want = np.sort_complex(triple.U3[k - 1, :])
            assert np.max(np.abs(got - want)) <= 1e-8

    def test_rank_equal_n2_boundary(self, rng):
        tensor, _ = planted_instance(rng, 5, 4, 3, 4)
        rt = build_reduced_tensor_lowrank(tensor, 4)
        assert rt.T.dims == (4, 4, 3)

    def test_singular_leading_block_raises(self, rng):
        data = rng.standard_normal((4, 4, 2))
        data[1, :2, 0] = data[0, :2, 0]  # leading 2x2 block singular
        data[:2, 1, 0] = data[:2, 0, 0]
        with pytest.raises(GenericityError):
            build_reduced_tensor_lowrank(Tensor3(data), 2)

    def test_singular_gate_decides_as_the_svd(self):
        # cond(lead) swept across the 1e10 cutoff: the bound ||lead||_F ||P||_F >= cond(lead) lets the
        # SVD decide wherever it cannot, so GenericityError comes exactly when spectrum_deficient says so
        r, raised, passed = 4, 0, 0
        for seed in range(3):
            rng = np.random.default_rng(seed)
            for cond in np.logspace(9, 11, 21):
                data = complex_normal(rng, (8, 6, 4))
                spread = np.diag(np.logspace(0, -np.log10(cond), r))
                data[:r, :r, 0] = random_unitary(r, rng) @ spread @ random_unitary(r, rng)
                sv = np.linalg.svd(data[:r, :r, 0], compute_uv=False)
                if spectrum_deficient(sv):
                    with pytest.raises(GenericityError):
                        build_reduced_tensor_lowrank(Tensor3(data), r)
                    raised += 1
                    continue
                rt = build_reduced_tensor_lowrank(Tensor3(data), r)
                # an upper bound on cond(lead) (up to rounding), at most r times too large
                assert (1 - 1e-6) * sv[0] / sv[-1] <= rt.cond_fhat <= r * sv[0] / sv[-1]
                passed += 1
        assert raised and passed

    def test_exactly_singular_leading_block_raises(self, rng):
        data = complex_normal(rng, (6, 5, 3))
        data[:3, 1, 0] = 0.0  # LU meets an exact zero pivot
        assert spectrum_deficient(np.linalg.svd(data[:3, :3, 0], compute_uv=False))
        with pytest.raises(GenericityError, match="numerically singular"):
            build_reduced_tensor_lowrank(Tensor3(data), 3)


class TestRandomModeMixing:
    def test_mixing_preserves_flattening_rank(self, rng):
        tensor, _ = planted_instance(rng, 6, 4, 3, 5)
        g, _, _, _ = random_mode_mixing(tensor, seed=1)
        assert np.linalg.matrix_rank(mode_k_flatten(g, 1)) == np.linalg.matrix_rank(
            mode_k_flatten(tensor, 1)
        )

    def test_factor_unmixing_recovers_tensor(self, rng):
        tensor, triple = planted_instance(rng, 5, 3, 3, 4)
        g, w1, w2, v3 = random_mode_mixing(tensor, seed=2)
        assert w2 is None
        mixed = FactorTriple(w1 @ triple.U1, triple.U2, v3 @ triple.U3, 4)
        assert np.linalg.norm(g.data - cpd_to_tensor(mixed).data) <= 1e-12 * g.norm()
        unmixed = FactorTriple(w1.conj().T @ mixed.U1, mixed.U2, v3.conj().T @ mixed.U3, 4)
        assert np.linalg.norm(tensor.data - cpd_to_tensor(unmixed).data) <= 1e-12 * tensor.norm()

    def test_mode_two_mixing_keeps_the_other_draws(self, rng):
        tensor, triple = planted_instance(rng, 5, 3, 3, 2)
        _, w1, _, w3 = random_mode_mixing(tensor, seed=3)
        g, w1_all, w2, w3_all = random_mode_mixing(tensor, seed=3, mode2=True)
        assert np.array_equal(w1, w1_all) and np.array_equal(w3, w3_all)
        assert np.linalg.norm(w2.conj().T @ w2 - np.eye(3)) <= 1e-12
        mixed = FactorTriple(w1 @ triple.U1, w2 @ triple.U2, w3 @ triple.U3, 2)
        assert np.linalg.norm(g.data - cpd_to_tensor(mixed).data) <= 1e-12 * g.norm()


def test_first_slice_invariant_across_profiles(rng):
    profiles = [(5, 3, 3, 4), (6, 4, 3, 5), (7, 3, 3, 7), (9, 4, 4, 9), (8, 5, 3, 7)]
    for n1, n2, n3, r in profiles:
        tensor, _ = planted_instance(rng, n1, n2, n3, r)
        rt = build_reduced_tensor(tensor, r, seed=rng)
        assert np.max(np.abs(rt.slice(1) - np.eye(r)[:, :n2])) <= 1e-10
        assert rt.cond_fhat <= 1e8


def test_mixing_matrix_inverts_augmented_slice(rng):
    tensor, _ = planted_instance(rng, 6, 3, 3, 5)
    rt = build_reduced_tensor(tensor, 5, seed=3)
    fhat = np.concatenate([tensor.data[:5, :, 0], rt.C], axis=1)
    gap = np.linalg.norm(rt.P @ fhat - np.eye(5))
    assert gap <= 1e-10 * rt.cond_fhat
