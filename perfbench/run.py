"""gpcpd benchmark: time-to-solution of ``decompose()`` on one workload.

    python3 perfbench/run.py --workload mid-stage1 --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from ``src/``
there, never from an installed copy. One process, one client: a closed loop of
sequential ``gpcpd.decompose()`` calls on seeded inputs (see ``workloads.py``).
The BLAS runs at its default thread count, which is recorded, not changed.

``--trace 0`` measures the end-to-end metrics: it times ``--seconds`` of
solves, plus ``SETUP_REPS`` cold set-ups in fresh interpreters. ``--trace 1``
gives the per-layer metrics: for ``--seconds`` it solves each input twice,
untraced and then with the layer wrappers of ``tracer.py`` installed, and
writes the spans to ``perfbench/out/``; the result counts the untraced solves.
A run cycles through a pool of inputs and counts each input with its fastest
solve; an input whose solve failed is not solved again. A workload with
``round_s`` solves its pool a number of times fixed by ``--seconds`` (half of
it with ``--trace 1``) instead of stopping on the clock.

Every solve is checked independently of the package: factor shapes must be
n_k x r and the relative error, recomputed here on the original tensor, at
most 1e-6. A solve that raised or fails the check counts as failed; one whose
report claims success but fails the check is also a wrong answer, and any
wrong answer makes ``correct`` false. The last line of output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from contextlib import nullcontext
from dataclasses import dataclass
from time import perf_counter

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")

SUCCESS_TOL = 1e-6  # the paper's success threshold on err_rel
SETUP_REPS = 3  # cold set-ups per --trace 0 run; setup_s is their median
SETUP_TIMEOUT_S = 60
TAIL_BEYOND = 10  # the tail percentile keeps at least this many samples beyond it

# bounded end-to-end metrics (--trace 0)
END_TO_END_UNITS = {
    "solve_s.p50": "s",
    "err_rel.log10_p50": "log10",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
# end-to-end figures whose run-to-run spread is too wide to bound (see README.md);
# printed by every run and reported unbounded by --trace 1
RUN_UNITS = {
    "solve_s.tail": "s",
    "solve_s.tail_pct": "%",
    "solves": "count",
    "solves_per_s": "1/s",
    "fail_rate": "ratio",
}


def load_program():
    """Import gpcpd from this checkout's ``src/``; exit non-zero when it is absent."""
    if not os.path.isfile(os.path.join(SRC, "gpcpd", "__init__.py")):
        sys.exit(f"perfbench: no gpcpd source tree under {SRC}")
    sys.path.insert(0, SRC)
    import gpcpd

    if os.path.dirname(os.path.dirname(os.path.abspath(gpcpd.__file__))) != SRC:
        sys.exit(f"perfbench: gpcpd was imported from {gpcpd.__file__}, not from {SRC}")
    return gpcpd


@dataclass(frozen=True)
class SolveRecord:
    index: int  # input index; pooled inputs repeat it
    label: str
    seconds: float
    error: str | None  # exception class when decompose raised
    err_rel: float  # recomputed here; nan when there are no usable factors
    ok: bool
    wrong_answer: bool  # the report claimed success but the check failed


def independent_error(tensor, factors, rank: int) -> float:
    """err_rel of the factors against the original tensor; nan on a shape mismatch."""
    mats = (factors.U1, factors.U2, factors.U3)
    if any(np.shape(u) != (n, rank) for u, n in zip(mats, tensor.dims)):
        return math.nan
    approx = np.einsum("ir,jr,kr->ijk", *mats)
    return float(np.linalg.norm(tensor.data - approx) / np.linalg.norm(tensor.data))


def solve_once(gpcpd, inp, root_span=None, solve_id=0) -> SolveRecord:
    start = perf_counter()
    try:
        with root_span("decompose", solve_id) if root_span else nullcontext():
            factors, report = gpcpd.decompose(inp.tensor, inp.case.rank, inp.options)
    except Exception as exc:  # a failed solve is data: record its class and go on
        seconds = perf_counter() - start
        return SolveRecord(inp.index, inp.case.label, seconds, type(exc).__name__, math.nan, False, False)
    seconds = perf_counter() - start
    err = independent_error(inp.tensor, factors, inp.case.rank)
    ok = err <= SUCCESS_TOL  # False for nan
    return SolveRecord(inp.index, inp.case.label, seconds, None, err, ok, report.success and not ok)


def run_solves(gpcpd, workload, seed, seconds, tracer=None):
    """Closed loop over solves 0, 1, ... for ``seconds`` of wall time, or for
    the workload's fixed solve count; solve ``i`` gets input ``i % pool``.

    An input whose solve failed is skipped from then on: it would fail again
    at the same cost. With a tracer, each input is solved twice back to back,
    first untraced and then with the wrappers installed, so that the pair sees
    the same machine state; returns (untraced, traced) records.
    """
    from workloads import make_input, solve_count

    pool, count = workload.pool, solve_count(workload, seconds / 2 if tracer else seconds)
    records, traced, failed = [], [], set()
    started = perf_counter()
    for solve in itertools.count():
        if solve == count or (count is None and perf_counter() - started >= seconds):
            break
        if solve % pool in failed:
            continue
        inp = make_input(workload, seed, solve % pool)
        records.append(solve_once(gpcpd, inp))
        if not records[-1].ok:
            failed.add(inp.index)
        if tracer is not None:
            with tracer.installed():
                traced.append(solve_once(gpcpd, inp, tracer.span, solve))
    return records, traced


def measure_setup(workload, seed) -> list[float]:
    """Wall time of fresh interpreters that import gpcpd and finish one warm-up solve."""
    times = []
    for index in range(SETUP_REPS):
        cmd = [sys.executable, os.path.join(HERE, "warmup.py"), workload.name, str(seed), str(index)]
        start = perf_counter()
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
        times.append(perf_counter() - start)
        if done.returncode != 0:
            sys.exit(f"perfbench: set-up run failed ({done.returncode}): {done.stderr.strip()[-500:]}")
    return times


def blas_threads() -> int | None:
    """Thread count of numpy's bundled OpenBLAS, read through its C API."""
    import ctypes
    import glob

    libs = glob.glob(os.path.join(os.path.dirname(np.__file__) + ".libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(workload) -> dict:
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "numpy": np.__version__,
        "python": platform.python_version(),
        "thread_env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "workload": workload.name,
        "time_limit_s": workload.time_limit,
    }


def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples beyond it."""
    ordered = sorted(times)
    index = max(len(ordered) - TAIL_BEYOND - 1, 0)
    return ordered[index], 100.0 * (index + 1) / len(ordered)


def fastest_per_input(records: list[SolveRecord]) -> list[float]:
    """Each input's fastest solve; an input solved once keeps its only time."""
    best: dict[int, float] = {}
    for r in records:
        best[r.index] = min(best.get(r.index, math.inf), r.seconds)
    return list(best.values())


def end_to_end(records: list[SolveRecord], setup_times: list[float]) -> dict:
    ok = [r for r in records if r.ok]
    if not ok:
        sys.exit("perfbench: no solve succeeded, so err_rel.log10_p50 is undefined")
    return {
        "solve_s.p50": statistics.median(fastest_per_input(records)),
        "err_rel.log10_p50": math.log10(max(statistics.median(r.err_rel for r in ok), 1e-300)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": statistics.median(setup_times),
    }


def run_figures(records: list[SolveRecord]) -> dict:
    """The unbounded figures of ``RUN_UNITS``; failed solves count at their full time."""
    times = [r.seconds for r in records]
    value, percentile = tail(times)
    failed = sum(not r.ok for r in records)
    return {
        "solve_s.tail": value,
        "solve_s.tail_pct": percentile,
        "solves": float(len(records)),
        "solves_per_s": (len(records) - failed) / sum(times),
        "fail_rate": failed / len(records),
    }


def failures(records: list[SolveRecord]) -> dict:
    """Failed solves by exception class (or failed check), and wrong answers."""
    by_class: dict[str, int] = {}
    for r in records:
        if not r.ok:
            key = r.error or "err_rel_above_tol"
            by_class[key] = by_class.get(key, 0) + 1
    return {
        "failures_by_class": by_class,
        "failed_cases": sorted({r.label for r in records if not r.ok}),
        "wrong_answers": sum(r.wrong_answer for r in records),
    }


def route_check(name: str, layer: dict) -> tuple[bool, str]:
    """Does the traced run show the route the workload is meant to exercise?"""
    total = layer["trace.decompose_s"]
    if name == "lowrank":
        idle = ("stage1.run_s", "stage2.run_s", "lm.fQ.calls", "lm.g.calls")
        return all(layer[k] == 0 for k in idle), "no stage1, stage2 or lm calls"
    if name == "mid-stage1":
        share = layer["stage2.run_s"] / total
        return share < 0.1, f"stage2.run_s is {share:.1%} of decompose time (< 10%)"
    share = (layer["stage2.run_s"] + layer["stage1.row_failed_s"]) / total
    return share > 0.5, f"stage2.run_s + stage1.row_failed_s is {share:.1%} of decompose time (> 50%)"


def print_metrics(values: dict, units: dict) -> None:
    for name, unit in units.items():
        print(f"  {name:<42} {values[name]:.6g} {unit}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    gpcpd = load_program()
    from tracer import LAYER_UNITS, Tracer, layer_metrics
    from workloads import WORKLOADS, warmup_input

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    print("environment " + json.dumps(environment(workload)), flush=True)

    setup_times = measure_setup(workload, args.seed) if not args.trace else []
    warm = solve_once(gpcpd, warmup_input(workload, args.seed, SETUP_REPS))  # untimed
    if not warm.ok:
        sys.exit(f"perfbench: warm-up solve failed ({warm.error or warm.err_rel})")

    tracer = Tracer() if args.trace else None
    records, traced = run_solves(gpcpd, workload, args.seed, args.seconds, tracer)
    figures = run_figures(records)
    if not args.trace:
        metrics, units = end_to_end(records, setup_times), END_TO_END_UNITS
        info = {"setup_runs_s": [round(t, 4) for t in setup_times]}
    else:
        os.makedirs(OUT_DIR, exist_ok=True)
        tracer.write(os.path.join(OUT_DIR, f"spans-{workload.name}-seed{args.seed}.jsonl"))
        layers = layer_metrics(
            tracer.spans,
            workload.time_limit,
            SUCCESS_TOL,
            solves_ok=sum(r.ok for r in traced),
            untraced_s=sum(r.seconds for r in records),
        )
        metrics, units = {**figures, **layers}, {**RUN_UNITS, **LAYER_UNITS}
        passed, text = route_check(workload.name, layers)
        info = {"route_check": ("ok: " if passed else "NOT MET: ") + text}

    print("run " + json.dumps({**info, **failures(records)}))
    print_metrics(figures, RUN_UNITS)
    print_metrics(metrics, {k: v for k, v in units.items() if k not in RUN_UNITS})
    result = {
        "correct": not any(r.wrong_answer for r in records + traced),
        "attempted": len(records),
        "failed": sum(not r.ok for r in records),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
