import numpy as np
import pytest

from gpcpd import DimensionMismatchError, FactorTriple

from matching import (
    correlation_matrix,
    essentially_distinct,
    greedy_assign,
    match_factor_triples,
    triples_equivalent,
    unmatched_kr_columns,
)

from conftest import random_triple


def test_correlation_detects_complex_collinearity(rng):
    v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    c = correlation_matrix(v[:, None], (0.3 - 2.1j) * v[:, None])
    assert c[0, 0] == pytest.approx(1.0)


def test_greedy_assign_recovers_permutation(rng):
    a = rng.standard_normal((5, 4)) + 1j * rng.standard_normal((5, 4))
    perm = np.array([2, 0, 3, 1])
    b = a[:, perm] * (1.0 + 0.5j)
    got = greedy_assign(correlation_matrix(a, b))
    assert np.array_equal(perm[got], np.arange(4))  # got[i] is b's column for a[:, i]


def test_match_factor_triples_under_scaling_and_permutation(rng):
    f = random_triple(rng, 5, 4, 3, 3, complex_entries=True)
    perm = np.array([2, 0, 1])
    c = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    g = FactorTriple(
        f.U1[:, perm] * c, f.U2[:, perm] * (1.0 / c), f.U3[:, perm] * (2.0 + 0j), 3
    )
    result = match_factor_triples(f, g)
    assert result.min_correlation >= 1.0 - 1e-12
    assert triples_equivalent(f, g)


def test_distinct_triples_flagged(rng):
    f = random_triple(rng, 5, 4, 3, 3)
    g = random_triple(rng, 5, 4, 3, 3)
    assert essentially_distinct(f, g)
    assert unmatched_kr_columns(f, g).size > 0


def test_equivalent_triples_have_no_unmatched_columns(rng):
    f = random_triple(rng, 5, 4, 3, 3, complex_entries=True)
    perm = [1, 2, 0]
    g = FactorTriple(f.U1[:, perm], f.U2[:, perm], f.U3[:, perm], 3)
    assert unmatched_kr_columns(f, g).size == 0
    assert not essentially_distinct(f, g)


def test_rank_mismatch_rejected(rng):
    with pytest.raises(DimensionMismatchError):
        match_factor_triples(random_triple(rng, 3, 3, 3, 2), random_triple(rng, 3, 3, 3, 3))
