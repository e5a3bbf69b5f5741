"""Workload definitions and seeded input generation for the gpcpd benchmark.

A workload is a cycle of solve cases. Input ``i`` of a run uses case
``cycle[i % len(cycle)]``; its tensor seed and solver seed both come from
``SeedSequence([run_seed, 0, i])`` (stream 1 feeds the warm-up solves), so the
same run seed always yields the same inputs. A run cycles through a pool of
inputs (solve ``i`` solves input ``i % pool``), so that each input is solved
more than once, at times far apart. The program under test receives only the
generated tensor and a ``SolveOptions`` with the solver seed, the workload's
fixed ``time_limit`` and, for forced hand-offs, ``stage1_max_rows``.

Why each workload exists, and the known defects it carries, is written down in
``README.md`` next to this file.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

import gpcpd


@dataclass(frozen=True)
class Case:
    label: str
    rank: int
    dims: tuple[int, int, int] | None = None  # None: use ``fixture``
    fixture: str | None = None
    distribution: str = "normal"
    stage1_max_rows: int | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    cycle: tuple[Case, ...]
    time_limit: float  # per-solve SolveOptions.time_limit, seconds
    warmup: Case  # one untimed solve on the workload's own route
    pool: int  # inputs a run cycles through, a multiple of len(cycle)
    # nominal seconds of one round over the pool: when set, a run solves the
    # pool round(seconds / round_s) times instead of stopping on the clock, so
    # that solves that end at the time limit fall on the same inputs in every
    # run of a seed
    round_s: float | None = None


@dataclass(frozen=True)
class SolveInput:
    index: int
    case: Case
    tensor: gpcpd.Tensor3
    options: gpcpd.SolveOptions


def _planted(n1, n2, n3, r, **kw) -> Case:
    return Case(label=f"{n1}x{n2}x{n3}r{r}", rank=r, dims=(n1, n2, n3), **kw)


def _forced(n1, n2, n3, r, cap) -> Case:
    return Case(label=f"{n1}x{n2}x{n3}r{r}cap{cap}", rank=r, dims=(n1, n2, n3), stage1_max_rows=cap)


_S1_9 = _planted(9, 4, 4, 9)
_S1_12 = _planted(12, 5, 3, 12)
_S1_20 = _planted(20, 6, 6, 20)
_S1_30 = _planted(30, 8, 8, 30)
_HANDOFF_12x4x4 = _forced(12, 4, 4, 12, 9)
_HANDOFF_14x6x3 = _forced(14, 6, 3, 14, 11)
_HANDOFF_14x5x4 = _forced(14, 5, 4, 14, 12)
_LR_40 = _planted(40, 20, 10, 15, distribution="complex-normal")
_LR_60 = _planted(60, 30, 12, 25, distribution="complex-normal")

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="mid-stage1",
            # two cheap and two dear solves around twelve 20x6x6 ones: the median
            # falls in the middle of the 20x6x6 solves, and there are enough of
            # them that it moves little with the inputs a seed draws
            cycle=(_S1_9, *(_S1_20,) * 6, _S1_30, _S1_12, *(_S1_20,) * 6, _S1_30),
            time_limit=20.0,
            warmup=_S1_12,
            pool=64,
        ),
        Workload(
            name="mid-stage2",
            # four cheap hand-offs (12x4x4, 14x6x3) and four dear cases around
            # eleven 14x5x4 cap 12 ones, so that the median solve falls in the
            # middle of the 14x5x4 solves
            cycle=(
                Case(label="example42", rank=8, fixture="example42"),
                _HANDOFF_14x5x4,
                _HANDOFF_14x5x4,
                _forced(9, 4, 4, 9, 0),
                _HANDOFF_12x4x4,
                _HANDOFF_14x5x4,
                _HANDOFF_14x5x4,
                _HANDOFF_14x6x3,
                _HANDOFF_14x5x4,
                _HANDOFF_12x4x4,
                _HANDOFF_14x5x4,
                _forced(16, 5, 5, 16, 15),
                _HANDOFF_14x5x4,
                _HANDOFF_14x5x4,
                _HANDOFF_12x4x4,
                _HANDOFF_14x5x4,
                _planted(16, 5, 5, 16),
                _HANDOFF_14x5x4,
                _HANDOFF_14x5x4,
            ),
            time_limit=10.0,
            warmup=_HANDOFF_14x6x3,
            pool=19,
            round_s=10.0,
        ),
        Workload(
            name="lowrank",
            cycle=(_LR_40, _LR_60, _LR_60),  # the median falls inside the 60x30x12 solves
            time_limit=20.0,
            warmup=_LR_60,
            pool=60,
        ),
    )
}


_TIMED, _WARMUP = 0, 1  # seed streams, so warm-up inputs never repeat a timed one


def _seeds(run_seed: int, stream: int, index: int) -> tuple[int, int]:
    tensor_seed, solver_seed = np.random.SeedSequence([run_seed, stream, index]).generate_state(2)
    return int(tensor_seed), int(solver_seed)


def _make(workload: Workload, case: Case, seeds: tuple[int, int], index: int) -> SolveInput:
    tensor_seed, solver_seed = seeds
    if case.fixture is not None:
        tensor, _ = gpcpd.fixtures.FIXTURES[case.fixture]()
    else:
        tensor, _ = gpcpd.gen_random_rank_r(
            *case.dims, case.rank, distribution=case.distribution, seed=tensor_seed
        )
    options = gpcpd.SolveOptions(
        seed=solver_seed,
        time_limit=workload.time_limit,
        stage1_max_rows=case.stage1_max_rows,
    )
    return SolveInput(index=index, case=case, tensor=tensor, options=options)


def solve_count(workload: Workload, seconds: float) -> int | None:
    """Solves in a run of ``seconds``: whole rounds over the pool when the
    workload fixes its count, None when the clock ends the run."""
    if workload.round_s is None:
        return None
    return workload.pool * max(1, round(seconds / workload.round_s))


def make_input(workload: Workload, run_seed: int, index: int) -> SolveInput:
    """Input ``index`` of a run."""
    case = workload.cycle[index % len(workload.cycle)]
    return _make(workload, case, _seeds(run_seed, _TIMED, index), index)


def warmup_input(workload: Workload, run_seed: int, index: int = 0) -> SolveInput:
    """Inputs of the untimed warm-up solve on the workload's own route."""
    return _make(workload, workload.warmup, _seeds(run_seed, _WARMUP, index), index)
