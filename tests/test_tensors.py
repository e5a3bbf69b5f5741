import numpy as np
import pytest

from gpcpd import (
    DegenerateInputError,
    DimensionMismatchError,
    FactorTriple,
    Tensor3,
    cpd_to_tensor,
    fixture_example41,
    fixture_example42,
    khatri_rao,
    mode_k_flatten,
    mode_t_matrix_product,
    relative_error,
)
from gpcpd.linalg import random_unitary

from conftest import planted_instance, random_triple


# mode_k_flatten's row-major axis order: mode k, then the other two modes, the first fastest
_FLATTEN_AXES = {1: (0, 2, 1), 2: (1, 2, 0), 3: (2, 1, 0)}


def unflatten_mode_k(m: np.ndarray, dims, k: int) -> Tensor3:
    """Inverse of mode_k_flatten for the given full tensor dims."""
    axes = _FLATTEN_AXES[k]
    return Tensor3(np.transpose(np.reshape(m, [dims[a] for a in axes]), np.argsort(axes)))


def triple_loop_cpd(f: FactorTriple) -> np.ndarray:
    """Independent summation oracle for cpd_to_tensor."""
    n1, n2, n3 = f.dims
    out = np.zeros((n1, n2, n3), dtype=np.complex128)
    for i1 in range(n1):
        for i2 in range(n2):
            for i3 in range(n3):
                acc = 0.0 + 0.0j
                for j in range(f.rank):
                    acc += f.U1[i1, j] * f.U2[i2, j] * f.U3[i3, j]
                out[i1, i2, i3] = acc
    return out


def flatten_oracle(t: Tensor3, k: int) -> np.ndarray:
    """Column-index-formula oracle: j = sum over non-k modes (ascending) of
    (i_l - 1) * prod of earlier non-k dims."""
    dims = t.dims
    others = [m for m in (1, 2, 3) if m != k]
    ncols = dims[others[0] - 1] * dims[others[1] - 1]
    out = np.zeros((dims[k - 1], ncols), dtype=np.complex128)
    for i1 in range(dims[0]):
        for i2 in range(dims[1]):
            for i3 in range(dims[2]):
                idx = {1: i1, 2: i2, 3: i3}
                j = 0
                stride = 1
                for l in others:
                    j += idx[l] * stride
                    stride *= dims[l - 1]
                out[idx[k]][j] = t.data[i1, i2, i3]
    return out


class TestTensor3:
    def test_rejects_non_finite(self):
        with pytest.raises(DegenerateInputError):
            Tensor3(np.array([[[np.nan]]]))

    def test_rejects_wrong_ndim(self):
        with pytest.raises(DimensionMismatchError):
            Tensor3(np.zeros((2, 2)))

    def test_immutable(self):
        t = Tensor3(np.zeros((2, 2, 2)))
        with pytest.raises(ValueError):
            t.data[0, 0, 0] = 1.0

    def test_identity_permutation_returns_same_tensor(self, rng):
        t = Tensor3(rng.standard_normal((4, 3, 2)))
        assert t.permute_modes((0, 1, 2)) is t
        assert t.permute_modes(np.argsort([-4, -3, -2], kind="stable")) is t
        moved = t.permute_modes((1, 0, 2))
        assert moved is not t and moved.dims == (3, 4, 2)


class TestFactorTriple:
    def test_rejects_zero_column(self):
        u = np.ones((3, 2), dtype=complex)
        u[:, 1] = 0.0
        with pytest.raises(DegenerateInputError):
            FactorTriple(u, np.ones((3, 2)), np.ones((3, 2)), 2)

    def test_rejects_column_count_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            FactorTriple(np.ones((3, 2)), np.ones((3, 3)), np.ones((3, 2)), 2)


class TestCpdToTensor:
    def test_single_basis_rank_one(self):
        e = np.array([[1.0], [0.0]])
        t = cpd_to_tensor(FactorTriple(e, e, e, 1))
        expected = np.zeros((2, 2, 2))
        expected[0, 0, 0] = 1.0
        assert np.array_equal(t.data, expected)

    def test_example41_entries(self):
        tensor, triple = fixture_example41()
        recon = cpd_to_tensor(triple)
        assert recon.data[0, 0, 0] == -38
        assert np.array_equal(recon.data, tensor.data)

    def test_matches_triple_loop_oracle(self, rng):
        f = random_triple(rng, 3, 3, 3, 2)
        t = cpd_to_tensor(f)
        oracle = triple_loop_cpd(f)
        assert np.linalg.norm(t.data - oracle) <= 1e-13 * np.linalg.norm(oracle)


class TestModeKFlatten:
    def test_index_formula_small_case(self):
        # t[i1,i2,i3] = 4(i1-1) + 2(i2-1) + (i3-1); first non-k mode fastest
        data = np.arange(8, dtype=float).reshape(2, 2, 2)
        t = Tensor3(data)
        m = mode_k_flatten(t, 1)
        assert np.array_equal(m.real, np.array([[0.0, 2.0, 1.0, 3.0], [4.0, 6.0, 5.0, 7.0]]))
        assert np.array_equal(m, flatten_oracle(t, 1))

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_matches_index_formula_oracle(self, rng, k):
        t = Tensor3(rng.standard_normal((3, 4, 5)) + 1j * rng.standard_normal((3, 4, 5)))
        assert np.array_equal(mode_k_flatten(t, k), flatten_oracle(t, k))

    def test_rank_one_tensor_has_matrix_rank_one(self, rng):
        f = random_triple(rng, 4, 3, 2, 1)
        m = mode_k_flatten(cpd_to_tensor(f), 1)
        assert np.linalg.matrix_rank(m) == 1

    def test_example42_flattening_rank_eight(self):
        tensor, _ = fixture_example42()
        assert np.linalg.matrix_rank(mode_k_flatten(tensor, 1)) == 8

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_unflatten_roundtrip_exact(self, rng, k):
        t = Tensor3(rng.standard_normal((3, 4, 5)))
        assert unflatten_mode_k(mode_k_flatten(t, k), t.dims, k) == t

    def test_factor_identity_with_khatri_rao(self, rng):
        # Flatten(f,1) = U1 (U2 kr U3)^T ties the flattening to the products
        f = random_triple(rng, 4, 3, 3, 3, complex_entries=True)
        lhs = mode_k_flatten(cpd_to_tensor(f), 1)
        rhs = f.U1 @ khatri_rao(f.U2, f.U3).T
        assert np.linalg.norm(lhs - rhs) <= 1e-12 * np.linalg.norm(rhs)


class TestModeTMatrixProduct:
    def test_identity(self, rng):
        t = Tensor3(rng.standard_normal((3, 4, 2)))
        assert mode_t_matrix_product(np.eye(3), t, 1) == t

    @pytest.mark.parametrize("mode", [1, 2, 3])
    def test_factor_map_property(self, rng, mode):
        f = random_triple(rng, 4, 3, 3, 3, complex_entries=True)
        n = f.dims[mode - 1]
        v = rng.standard_normal((5, n)) + 1j * rng.standard_normal((5, n))
        lhs = mode_t_matrix_product(v, cpd_to_tensor(f), mode)
        mats = [f.U1, f.U2, f.U3]
        mats[mode - 1] = v @ mats[mode - 1]
        rhs = cpd_to_tensor(FactorTriple(mats[0], mats[1], mats[2], 3))
        assert np.linalg.norm(lhs.data - rhs.data) <= 1e-12 * np.linalg.norm(rhs.data)

    def test_row_selector_takes_subtensor(self, rng):
        t = Tensor3(rng.standard_normal((5, 3, 2)))
        sel = np.eye(5)[:3, :]
        assert np.array_equal(mode_t_matrix_product(sel, t, 1).data, t.data[:3, :, :])

    def test_dimension_mismatch(self, rng):
        t = Tensor3(rng.standard_normal((3, 4, 2)))
        with pytest.raises(DimensionMismatchError):
            mode_t_matrix_product(np.eye(4), t, 1)


class TestKhatriRao:
    def test_frozen_small_case(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        b = np.array([[5.0, 6.0], [7.0, 8.0]])
        expected = np.array([[5.0, 12.0], [15.0, 24.0], [7.0, 16.0], [21.0, 32.0]])
        assert np.array_equal(khatri_rao(a, b).real, expected)

    def test_all_ones_row_weight(self, rng):
        a = rng.standard_normal((4, 3))
        ones = np.ones((1, 3))
        assert np.array_equal(khatri_rao(a, ones), a.astype(complex))

    def test_columns_are_kron_of_columns(self, rng):
        a = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
        b = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
        out = khatri_rao(a, b)
        for j in range(4):
            assert np.array_equal(out[:, j], np.kron(b[:, j], a[:, j]))

    def test_column_count_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            khatri_rao(np.ones((2, 2)), np.ones((2, 3)))


class TestRelativeError:
    def test_exact_decomposition(self, rng):
        t, f = planted_instance(rng, 4, 3, 3, 2)
        assert relative_error(t, f) <= 1e-14

    def test_reference_output_reconstruction_error(self):
        # transcription of a published solver output (4-5 digits); its
        # reconstruction matches the fixture only to transcription rounding
        tensor, _ = fixture_example41()
        u1 = np.array(
            [
                [0.0236, -0.6261, 3.8192, -1.7013, -0.2085],
                [0.0472, -1.8782, -1.2731, -2.8355, -0.6255],
                [-0.0059, -1.2522, -5.0923, -5.1038, -0.2085],
                [0.0059, 1.2522, -6.3654, 1.7013, 0.5212],
                [0.0059, 1.2522, -0.0000, -1.7013, 0.2085],
            ]
        )
        u2 = np.array(
            [
                [677.3, 3.2, -14.1, -3.5, 19.2],
                [1524.0, 6.4, -4.7, -17.6, -57.6],
                [677.3, -6.4, 14.1, -3.5, -9.6],
            ]
        )
        u3 = np.array(
            [
                [1.0, 1.0, 1.0, 1.0, 1.0],
                [1.0, -1.5, 1.1667, 1.5, 5.0],
                [1.0, -1.5, -0.8333, 0.5, 9.0],
            ]
        )
        err = relative_error(tensor, FactorTriple(u1, u2, u3, 5))
        assert err <= 1e-2  # limited by the 4-digit transcription

    def test_zero_approximation_gives_one(self, rng):
        t, f = planted_instance(rng, 3, 3, 2, 2)
        tiny = FactorTriple(f.U1 * 1e-200, f.U2 * 1e-200, f.U3 * 1e-200, 2)
        assert relative_error(t, tiny) == 1.0

    def test_zero_tensor_rejected(self, rng):
        f = random_triple(rng, 2, 2, 2, 1)
        with pytest.raises(DegenerateInputError):
            relative_error(Tensor3(np.zeros((2, 2, 2))), f)

    def test_roundtrip_invariant(self, rng):
        for _ in range(5):
            f = random_triple(rng, 4, 3, 3, 3, complex_entries=True)
            assert relative_error(cpd_to_tensor(f), f) <= 1e-13


def test_mode_product_property_under_random_unitaries(rng):
    # full (2.6) chain: mixing modes 1 and 3 maps the factors the same way
    f = random_triple(rng, 4, 3, 3, 3, complex_entries=True)
    t = cpd_to_tensor(f)
    w1 = random_unitary(4, rng)
    v3 = random_unitary(3, rng)
    g = mode_t_matrix_product(w1, mode_t_matrix_product(v3, t, 3), 1)
    h = cpd_to_tensor(FactorTriple(w1 @ f.U1, f.U2, v3 @ f.U3, 3))
    assert np.linalg.norm(g.data - h.data) <= 1e-12 * np.linalg.norm(h.data)
