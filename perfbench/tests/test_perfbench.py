"""Tests of the benchmark itself: seeded inputs, the tracer, and short runs.

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

import importlib
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import gpcpd  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS, Workload, make_input, solve_count, warmup_input  # noqa: E402


def _same_input(a, b):
    return a.case == b.case and a.options == b.options and np.array_equal(a.tensor.data, b.tensor.data)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_inputs_repeat_for_a_seed_and_differ_for_another(name):
    workload = WORKLOADS[name]
    for index in range(len(workload.cycle) + 1):
        first, again = make_input(workload, 7, index), make_input(workload, 7, index)
        other = make_input(workload, 8, index)
        assert _same_input(first, again)
        assert other.case == first.case
        assert other.options.seed != first.options.seed
        if first.case.fixture is None:
            assert not np.array_equal(other.tensor.data, first.tensor.data)
    assert warmup_input(workload, 7).options.seed != make_input(workload, 7, 0).options.seed


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_a_run_cycles_through_whole_cycles_of_inputs(name):
    workload = WORKLOADS[name]
    assert workload.pool % len(workload.cycle) == 0
    for seconds in (0.3, 40.0):
        count = solve_count(workload, seconds)
        if workload.round_s is None:
            assert count is None  # stops on the clock
        else:
            assert count % workload.pool == 0 and count >= workload.pool


def test_failed_input_is_not_solved_again_and_counts_at_its_fastest_solve():
    case = _case("40x20x10r15")
    workload = Workload(name="probe", cycle=(case,), time_limit=20.0, warmup=case, pool=3, round_s=1.5)
    doomed = make_input(workload, 3, 1).options.seed

    class Program:  # decompose as the package does, except that input 1 raises
        @staticmethod
        def decompose(tensor, rank, options):
            if options.seed == doomed:
                raise gpcpd.DecompositionError("planted failure")
            return gpcpd.decompose(tensor, rank, options)

    records, traced = run.run_solves(Program, workload, 3, seconds=3.0)
    assert traced == []
    assert [r.index for r in records] == [0, 1, 2, 0, 2]
    assert [r.ok for r in records] == [True, False, True, True, True]
    assert records[1].error == "DecompositionError"
    fastest = run.fastest_per_input(records)
    assert len(fastest) == 3
    assert fastest[0] == min(records[0].seconds, records[3].seconds)
    assert fastest[1] == records[1].seconds


def _originals():
    return {
        (module, attr): getattr(importlib.import_module(module), attr)
        for module, attr, _, _ in tracer.TARGETS
    }


def _traced_solves(t, cases):
    with t.installed():
        for index, case in enumerate(cases):
            tensor, _ = gpcpd.gen_random_rank_r(*case.dims, case.rank, distribution=case.distribution, seed=index)
            options = gpcpd.SolveOptions(seed=index, stage1_max_rows=case.stage1_max_rows)
            with t.span("decompose", index):
                gpcpd.decompose(tensor, case.rank, options)


def _case(label):
    return next(c for w in WORKLOADS.values() for c in w.cycle if c.label == label)


def test_traced_run_restores_every_wrapped_attribute():
    assert not any(attr.startswith("_") for _, attr, _, _ in tracer.TARGETS)  # public names only
    before = _originals()
    t = tracer.Tracer()
    _traced_solves(t, [_case("12x4x4r12cap9")])
    assert _originals() == before
    assert {s.name for s in t.spans} >= {"stage1.find_row", "lm.fQ.jac", "stage2.assemble", "lm.g.jac"}
    with pytest.raises(RuntimeError):
        with t.installed():
            assert gpcpd.stage2.jac_g is not before[("gpcpd.stage2", "jac_g")]
            raise RuntimeError("body failed")
    assert _originals() == before


def test_child_spans_nest_inside_their_parents():
    t = tracer.Tracer()
    _traced_solves(t, [_case("9x4x4r9cap0"), _case("40x20x10r15")])
    assert t.spans and all(s is not None for s in t.spans)
    roots = [s for s in t.spans if s.parent == -1]
    assert [s.name for s in roots] == ["decompose", "decompose"]
    for index, span in enumerate(t.spans):
        if span.parent >= 0:
            parent = t.spans[span.parent]
            assert span.parent < index
            assert parent.start <= span.start <= span.end <= parent.end
            assert parent.solve_id == span.solve_id


def test_wrapped_exception_is_counted_and_reraised():
    t = tracer.Tracer()
    bad = gpcpd.Tensor3(np.ones((2, 3, 3)))  # middle-rank reduction needs n2 < r <= n1
    with t.installed():
        with pytest.raises(gpcpd.DimensionMismatchError):
            gpcpd.assembly.build_reduced_tensor(bad, 2)
    assert [(s.name, s.error) for s in t.spans] == [("preprocess.reduce", "DimensionMismatchError")]


def test_self_time_is_root_time_minus_direct_children():
    S = tracer.Span
    spans = [
        S("decompose", 0.0, 10.0, -1, 0, None, None),
        S("preprocess.reduce", 0.0, 1.0, 0, 0, None, None),
        S("stage1.run", 1.0, 7.0, 0, 0, None, None),
        S("stage1.find_row", 1.0, 4.0, 2, 0, None, (True,)),
        S("stage1.find_row", 4.0, 7.0, 2, 0, None, (False,)),
        S("assembly.err_check", 7.0, 8.0, 0, 0, None, (1e-3,)),
    ]
    m = tracer.layer_metrics(spans, time_limit=9.0, success_tol=1e-6, solves_ok=0, untraced_s=8.0)
    assert m["assembly.self_s"] == pytest.approx(2.0)
    assert m["trace.span_coverage"] == pytest.approx(0.8)
    assert m["stage1.row_yield"] == pytest.approx(0.5)
    assert m["stage1.row_failed_s"] == pytest.approx(3.0)
    assert m["assembly.attempts_per_solve"] == 1.0
    assert m["assembly.attempt_fail.err_above_tol"] == 1.0
    assert m["assembly.deadline_overrun_s"] == pytest.approx(1.0)
    assert m["trace.overhead_ratio"] == pytest.approx(0.25)
    assert list(m) == list(tracer.LAYER_UNITS)


def _declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {0: spec["end_to_end"], 1: spec["per_layer"]}


def _run(cwd, workload, trace, seconds="0.3"):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "5", "--seconds", seconds, "--trace", str(trace)]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    return subprocess.run(cmd, cwd=cwd, env=env, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_short_run_prints_every_declared_metric(name, trace):
    done = _run(ROOT, name, trace)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    declared = _declared()[trace]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for metric in declared:
        value = result["metrics"][metric["name"]]
        assert value["unit"] == metric["unit"] and np.isfinite(value["value"])
    printed = {line.split()[0] for line in lines[1:-1] if line.startswith("  ")}
    assert printed >= {m["name"] for m in declared} | set(run.RUN_UNITS)
    assert '"blas_threads"' in lines[0] and '"time_limit_s"' in lines[0]


def test_run_without_source_tree_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done = _run(tmp_path, "lowrank", 0)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
