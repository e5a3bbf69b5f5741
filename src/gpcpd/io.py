"""JSON serialization of tensors and factor triples.

Tensor files: ``{"dims": [n1, n2, n3], "data": [[re, im], ...]}`` with the data
flat in i3-fastest order. Factor files: ``{"rank": r, "U1": [[[re, im], ...]
row, ...], "U2": ..., "U3": ...}`` with each matrix row-major. Parsers reject
wrong lengths.
"""

from __future__ import annotations

import json
import os

import numpy as np

from .exceptions import DegenerateInputError, DimensionMismatchError, FormatError
from .tensors import FactorTriple, Tensor3


def _pair_to_complex(pair, where: str) -> complex:
    if (
        not isinstance(pair, (list, tuple))
        or len(pair) != 2
        or not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in pair)
    ):
        raise FormatError(f"{where}: entries must be [re, im] pairs, got {pair!r}")
    return complex(pair[0], pair[1])


def _complex_to_pair(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def tensor_to_dict(t: Tensor3) -> dict:
    flat = t.data.reshape(-1)  # C order == i3-fastest
    return {"dims": list(t.dims), "data": [_complex_to_pair(z) for z in flat]}


def tensor_from_dict(obj) -> Tensor3:
    if not isinstance(obj, dict) or "dims" not in obj or "data" not in obj:
        raise FormatError("tensor object must have 'dims' and 'data' fields")
    dims = obj["dims"]
    if (
        not isinstance(dims, list)
        or len(dims) != 3
        or not all(isinstance(n, int) and not isinstance(n, bool) and n >= 1 for n in dims)
    ):
        raise FormatError(f"'dims' must be three positive integers, got {dims!r}")
    data = obj["data"]
    if not isinstance(data, list) or len(data) != dims[0] * dims[1] * dims[2]:
        raise FormatError(
            f"'data' must hold {dims[0] * dims[1] * dims[2]} entries, got {len(data) if isinstance(data, list) else type(data)}"
        )
    flat = np.array([_pair_to_complex(p, "tensor data") for p in data], dtype=np.complex128)
    try:
        return Tensor3(flat.reshape(dims))
    except DegenerateInputError as exc:  # non-finite entries
        raise FormatError(str(exc)) from exc


def _matrix_to_rows(u: np.ndarray) -> list:
    return [[_complex_to_pair(z) for z in row] for row in u]


def _matrix_from_rows(rows, name: str, ncols: int) -> np.ndarray:
    if not isinstance(rows, list) or not rows:
        raise FormatError(f"'{name}' must be a non-empty list of rows")
    out = []
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != ncols:
            raise FormatError(f"'{name}' row {i} must have {ncols} entries")
        out.append([_pair_to_complex(p, f"{name}[{i}]") for p in row])
    return np.array(out, dtype=np.complex128)


def factors_to_dict(f: FactorTriple) -> dict:
    return {
        "rank": int(f.rank),
        "U1": _matrix_to_rows(f.U1),
        "U2": _matrix_to_rows(f.U2),
        "U3": _matrix_to_rows(f.U3),
    }


def factors_from_dict(obj) -> FactorTriple:
    if not isinstance(obj, dict) or "rank" not in obj:
        raise FormatError("factor object must have a 'rank' field")
    rank = obj["rank"]
    if not isinstance(rank, int) or isinstance(rank, bool) or rank < 1:
        raise FormatError(f"'rank' must be a positive integer, got {rank!r}")
    mats = {}
    for name in ("U1", "U2", "U3"):
        if name not in obj:
            raise FormatError(f"factor object is missing '{name}'")
        mats[name] = _matrix_from_rows(obj[name], name, rank)
    try:
        return FactorTriple(mats["U1"], mats["U2"], mats["U3"], rank)
    except (DimensionMismatchError, DegenerateInputError) as exc:  # structural problems are format errors
        raise FormatError(str(exc)) from exc


def save_tensor(t: Tensor3, path: str | os.PathLike):
    with open(path, "w") as fh:
        json.dump(tensor_to_dict(t), fh)


def load_tensor(path: str | os.PathLike) -> Tensor3:
    with open(path) as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise FormatError(f"{path}: invalid JSON: {exc}") from exc
    return tensor_from_dict(obj)


def save_factors(f: FactorTriple, path: str | os.PathLike):
    with open(path, "w") as fh:
        json.dump(factors_to_dict(f), fh)


def load_factors(path: str | os.PathLike) -> FactorTriple:
    with open(path) as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise FormatError(f"{path}: invalid JSON: {exc}") from exc
    return factors_from_dict(obj)
