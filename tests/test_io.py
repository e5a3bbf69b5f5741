import json

import numpy as np
import pytest

from gpcpd import FormatError, Tensor3, load_factors, load_tensor, save_factors, save_tensor
from gpcpd.io import factors_from_dict, factors_to_dict, tensor_from_dict, tensor_to_dict

from conftest import random_triple


def test_tensor_roundtrip(tmp_path, rng):
    t = Tensor3(rng.standard_normal((3, 4, 2)) + 1j * rng.standard_normal((3, 4, 2)))
    path = tmp_path / "t.json"
    save_tensor(t, path)
    assert load_tensor(path) == t


def test_tensor_data_order_is_i3_fastest(rng):
    t = Tensor3(np.arange(8, dtype=float).reshape(2, 2, 2))
    obj = tensor_to_dict(t)
    assert [p[0] for p in obj["data"]] == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]


def test_factors_roundtrip(tmp_path, rng):
    f = random_triple(rng, 3, 4, 2, 2, complex_entries=True)
    path = tmp_path / "f.json"
    save_factors(f, path)
    g = load_factors(path)
    assert g.rank == f.rank
    for name in ("U1", "U2", "U3"):
        assert np.array_equal(getattr(g, name), getattr(f, name))


def test_rejects_wrong_data_length():
    with pytest.raises(FormatError):
        tensor_from_dict({"dims": [2, 2, 2], "data": [[0.0, 0.0]] * 7})


def test_rejects_bad_entry_shape():
    with pytest.raises(FormatError):
        tensor_from_dict({"dims": [1, 1, 1], "data": [[0.0, 0.0, 0.0]]})


def test_rejects_missing_fields():
    with pytest.raises(FormatError):
        tensor_from_dict({"data": []})
    with pytest.raises(FormatError):
        factors_from_dict({"rank": 2, "U1": [[[1.0, 0.0]] * 2], "U2": [[[1.0, 0.0]] * 2]})


def test_rejects_wrong_row_width(rng):
    f = random_triple(rng, 2, 2, 2, 2)
    obj = factors_to_dict(f)
    obj["U1"][0] = obj["U1"][0][:1]
    with pytest.raises(FormatError):
        factors_from_dict(obj)


def test_rejects_invalid_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(FormatError):
        load_tensor(path)
    with pytest.raises(FormatError):
        load_factors(path)


def test_rejects_nonpositive_rank(rng):
    f = random_triple(rng, 2, 2, 2, 2)
    obj = factors_to_dict(f)
    obj["rank"] = 0
    with pytest.raises(FormatError):
        factors_from_dict(obj)


@pytest.mark.parametrize("entry", [[float("nan"), 0.0], [0.0, float("inf")]], ids=["nan", "inf"])
def test_rejects_non_finite_entries(tmp_path, entry):
    obj = {"dims": [1, 1, 2], "data": [entry, [1.0, 0.0]]}
    with pytest.raises(FormatError):
        tensor_from_dict(obj)
    path = tmp_path / "t.json"
    path.write_text(json.dumps(obj))  # written as the NaN / Infinity literals
    with pytest.raises(FormatError):
        load_tensor(path)


def test_rejects_bool_dims():
    with pytest.raises(FormatError):
        tensor_from_dict({"dims": [True, 2, 2], "data": [[0.0, 0.0]] * 4})
