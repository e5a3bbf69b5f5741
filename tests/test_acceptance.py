"""Acceptance gate: every criterion prints one pass/fail line.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines as they
complete; each criterion pins its tolerances inline.
"""

import time
from itertools import combinations

import numpy as np
import pytest

from gpcpd import (
    SolveOptions,
    als_decompose,
    decompose,
    fixture_example41,
    fixture_example42,
    gen_random_rank_r,
    relative_error,
)
from gpcpd.cli import check_jacobians
from gpcpd.preprocess import build_reduced_tensor
from gpcpd.stage1 import run_stage1
from gpcpd.stage2 import run_stage2
from gpcpd.tensors import vec

from conftest import commutator_bound, planted_generating_data
from dense_stage2 import dense_system
from matching import (
    essentially_distinct,
    kr_columns,
    match_factor_triples,
    unmatched_kr_columns,
)


def report(num, ok, detail):
    print(f"\n[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_example41_success_rate():
    tensor, _ = fixture_example41()
    errs, times = [], []
    for seed in range(10):
        t0 = time.perf_counter()
        _, rep = decompose(tensor, 5, SolveOptions(seed=100 + seed))
        times.append(time.perf_counter() - t0)
        errs.append(rep.err_rel)
    ok = all(e <= 1e-6 for e in errs) and max(times) <= 10.0
    report(
        1,
        ok,
        f"5x3x3 r=5: 10/10 runs err-rel<=1e-6 (worst {max(errs):.2e}), worst time {max(times):.2f}s <= 10s",
    )


def test_criterion_2_example41_multiplicity():
    tensor, _ = fixture_example41()
    triples = []
    for seed in range(50):
        factors, rep = decompose(tensor, 5, SolveOptions(seed=5000 + seed))
        if rep.success:
            triples.append(factors)
    classes = []
    for f in triples:
        for c in classes:
            if not essentially_distinct(c[0], f):
                c.append(f)
                break
        else:
            classes.append([f])
    reps = [c[0] for c in classes]
    ok = len(reps) >= 2
    detail = f"{len(triples)} successes, {len(reps)} essentially distinct decompositions"
    pair_stats = []
    if ok:
        for a, b in combinations(reps, 2):
            extra = unmatched_kr_columns(a, b)
            if extra.size != 1:
                ok = False
                detail += f"; a pair had {extra.size} unmatched columns (want 1)"
                break
            u = np.concatenate([kr_columns(a), kr_columns(b)[:, extra]], axis=1)
            sv = np.linalg.svd(u, compute_uv=False)
            null_dim = int(np.sum(sv <= 1e-6 * sv[0]))
            min_subset = min(
                np.linalg.svd(u[:, list(cols)], compute_uv=False)[-1] / sv[0]
                for cols in combinations(range(6), 5)
            )
            pair_stats.append((null_dim, min_subset))
        if ok and pair_stats:
            ok = all(nd == 1 for nd, _ in pair_stats) and all(ms > 1e-6 for _, ms in pair_stats)
            worst_ms = min(ms for _, ms in pair_stats)
            detail += (
                f"; all {len(pair_stats)} pairs: 9x6 U null-dim 1, every 5-column subset "
                f"full rank (worst s5/s1 {worst_ms:.2e})"
            )
    report(2, ok, detail)


def test_criterion_3_example42_success_rate():
    tensor, _ = fixture_example42()
    errs, times = [], []
    for seed in range(10):
        t0 = time.perf_counter()
        _, rep = decompose(tensor, 8, SolveOptions(seed=200 + seed))
        times.append(time.perf_counter() - t0)
        errs.append(rep.err_rel)
    ok = all(e <= 1e-6 for e in errs) and max(times) <= 30.0
    report(
        3,
        ok,
        f"8x5x3 r=8: 10/10 runs err-rel<=1e-6 (worst {max(errs):.2e}), worst time {max(times):.2f}s <= 30s",
    )


@pytest.mark.parametrize(
    "dims_rank,count,base_seed",
    [
        ((9, 4, 4, 9), 20, 300),
        ((16, 5, 5, 16), 10, 400),
        ((10, 4, 4, 10), 10, 500),
        ((11, 4, 4, 11), 10, 600),
    ],
    ids=["9x4x4r9", "16x5x5r16", "10x4x4r10", "11x4x4r11"],
)
def test_criterion_4_random_middle_rank_suite(dims_rank, count, base_seed):
    n1, n2, n3, r = dims_rank
    wins = 0
    for i in range(count):
        tensor, _ = gen_random_rank_r(n1, n2, n3, r, seed=base_seed + i)
        try:
            _, rep = decompose(tensor, r, SolveOptions(seed=base_seed + 1000 + i))
            wins += rep.success
        except Exception:
            pass
    rate = wins / count
    report(4, rate >= 0.9, f"({n1},{n2},{n3}) r={r}: S_rate {rate:.2f} over {count} (need >= 0.9)")


def test_criterion_5_preprocessing_invariants():
    profiles = [(5, 3, 3, 4), (6, 4, 3, 5), (7, 3, 3, 6), (9, 4, 4, 9), (8, 5, 3, 7)]
    worst_t1 = 0.0
    worst_gen = 0.0
    count = 0
    for idx in range(100):
        n1, n2, n3, r = profiles[idx % len(profiles)]
        tensor, triple = gen_random_rank_r(n1, n2, n3, r, seed=7000 + idx)
        rt = build_reduced_tensor(tensor, r, seed=idx)
        worst_t1 = max(worst_t1, float(np.max(np.abs(rt.slice(1) - np.eye(r)[:, :n2]))))
        _, _, ms = planted_generating_data(tensor, triple, rt)
        t1 = np.eye(r)[:, :n2]
        for k, m in enumerate(ms):
            gap = np.linalg.norm(m @ t1 - rt.slice(k + 2)) / max(1.0, np.linalg.norm(m))
            worst_gen = max(worst_gen, float(gap))
        count += 1
    ok = count == 100 and worst_t1 <= 1e-10 and worst_gen <= 1e-9
    report(
        5,
        ok,
        f"100 planted builds: worst |T_1 - I[:, :n2]| {worst_t1:.2e} <= 1e-10, "
        f"worst generating-relation gap {worst_gen:.2e} <= 1e-9",
    )


def test_criterion_6_jacobian_finite_difference():
    worst_fq, worst_g = check_jacobians(seed=0)
    ok = worst_fq <= 1e-6 and worst_g <= 1e-6
    report(
        6,
        ok,
        f"fd discrepancy over 5 instances x 20 points: projected residual {worst_fq:.2e}, "
        f"commutation residual {worst_g:.2e} (need <= 1e-6)",
    )


def test_criterion_7_stage2_substitution_soundness():
    cases = []
    rng = np.random.default_rng(42)
    t41, _ = fixture_example41()
    cases.append((t41, 5, [0, 2]))
    t42, _ = fixture_example42()
    cases.append((t42, 8, [None]))  # None: whatever stage 1 finds
    t944, _ = gen_random_rank_r(9, 4, 4, 9, seed=1)
    cases.append((t944, 9, [0, 3]))
    t643, _ = gen_random_rank_r(6, 4, 3, 5, seed=2)
    cases.append((t643, 5, [0, 2]))
    opts = SolveOptions()
    worst_comm = 0.0
    worst_lin = 0.0
    solves = 0
    for tensor, r, levels in cases:
        work = tensor.data / (tensor.norm() / np.sqrt(tensor.data.size))
        from gpcpd.tensors import Tensor3

        rt = build_reduced_tensor(Tensor3(work), r, seed=rng)
        found = run_stage1(rt, opts, rng)
        for level in levels:
            sub = found if level is None else found.truncated(min(level, found.p))
            ms = run_stage2(rt, sub, rng)
            worst_comm = max(worst_comm, commutator_bound(ms))
            a_hat, b_hat = dense_system(rt, sub.truncated(0))
            # solution satisfies the bare commuting system too
            p_vec = np.concatenate([vec(m[:, rt.slice_cols :]) for m in ms])
            gap = np.linalg.norm(a_hat @ p_vec - b_hat) / max(np.linalg.norm(b_hat), 1e-300)
            worst_lin = max(worst_lin, float(gap))
            solves += 1
    ok = worst_comm <= 1e-6 and worst_lin <= 1e-8
    report(
        7,
        ok,
        f"{solves} stage-2 solves: worst commutator {worst_comm:.2e} <= 1e-6, "
        f"worst linear-system residual {worst_lin:.2e} <= 1e-8",
    )


@pytest.mark.parametrize("dims_rank,base_seed", [((5, 3, 3, 4), 800), ((6, 4, 3, 5), 900)], ids=["5x3x3r4", "6x4x3r5"])
def test_criterion_8_plant_and_recover_equivalence(dims_rank, base_seed):
    n1, n2, n3, r = dims_rank
    hits = 0
    worst = 1.0
    for i in range(20):
        tensor, triple = gen_random_rank_r(n1, n2, n3, r, seed=base_seed + i)
        try:
            factors, rep = decompose(tensor, r, SolveOptions(seed=base_seed + 50 + i))
        except Exception:
            continue
        if not rep.success:
            continue
        corr = match_factor_triples(triple, factors).min_correlation
        worst = min(worst, corr)
        hits += corr >= 1.0 - 1e-6
    report(
        8,
        hits >= 18,
        f"({n1},{n2},{n3}) r={r}: {hits}/20 recoveries matched planted factors "
        f"(per-column correlation >= 1-1e-6; worst seen {worst:.8f})",
    )


def test_criterion_9_als_baseline_narrative():
    tensor, _ = fixture_example42()
    ts_wins = 0
    als_wins = 0
    for seed in range(10):
        _, rep = decompose(tensor, 8, SolveOptions(seed=2000 + seed))
        ts_wins += rep.success
        try:
            factors, _ = als_decompose(tensor, 8, seed=seed)
            als_wins += relative_error(tensor, factors) <= 1e-6
        except Exception:
            pass
    report(
        9,
        als_wins < ts_wins,
        f"8x5x3 r=8 over 10 runs: ALS S_rate {als_wins / 10:.1f} < TS S_rate {ts_wins / 10:.1f} (informational ordering)",
    )
