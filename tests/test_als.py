import numpy as np
import pytest

from gpcpd import als, als_decompose, fixture_example42, relative_error

from conftest import planted_instance


def test_easy_lowrank_instance_often_solved(rng):
    wins = 0
    for seed in range(6):
        tensor, _ = planted_instance(rng, 4, 4, 4, 2)
        factors, trace = als_decompose(tensor, 2, seed=seed)
        err = relative_error(tensor, factors)
        wins += err <= 1e-6
        assert trace[-1] == pytest.approx(err, abs=1e-12)
    assert wins >= 3  # informational: plain ALS handles easy low-rank cases


def test_rank_one_exact(rng):
    tensor, _ = planted_instance(rng, 4, 3, 2, 1)
    factors, _ = als_decompose(tensor, 1, seed=0)
    assert relative_error(tensor, factors) <= 1e-10


def test_example42_usually_fails(rng, monkeypatch):
    monkeypatch.setattr(als, "_MAX_SWEEPS", 300)
    tensor, _ = fixture_example42()
    wins = 0
    for seed in range(3):
        factors, _ = als_decompose(tensor, 8, seed=seed)
        wins += relative_error(tensor, factors) <= 1e-6
    assert wins <= 1  # middle-rank fixture defeats plain ALS


def test_trace_monotone_nonincreasing(rng):
    tensor, _ = planted_instance(rng, 5, 4, 3, 3)
    _, trace = als_decompose(tensor, 3, seed=1)
    assert all(trace[i + 1] <= trace[i] + 1e-12 for i in range(len(trace) - 1))


def test_real_input_keeps_real_factors(rng):
    tensor, _ = planted_instance(rng, 4, 3, 3, 2)
    factors, _ = als_decompose(tensor, 2, seed=2)
    assert max(np.max(np.abs(m.imag)) for m in (factors.U1, factors.U2, factors.U3)) == 0.0

