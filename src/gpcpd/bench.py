"""Benchmark harness: seeded method comparisons over instance lists.

Each run is independently seeded from the config seed, the instance index and
the run index, so reports are reproducible (modulo timing fields) for any
worker-pool size. "Time" and "Error" aggregate successful runs only; "S_rate"
is successes over total runs.
"""

from __future__ import annotations

import csv
import json
import time
from dataclasses import dataclass, field

import numpy as np

from .als import als_decompose
from .assembly import decompose
from .exceptions import DecompositionError, FormatError, GpcpdError
from .fixtures import DISTRIBUTIONS, FIXTURES, gen_random_rank_r
from .options import SUCCESS_TOL, SolveOptions, is_int
from .tensors import relative_error

METHODS = ("ts", "als")


@dataclass(frozen=True)
class BenchInstance:
    rank: int
    count: int
    dims: tuple[int, int, int] | None = None
    fixture: str | None = None

    def label(self) -> str:
        if self.fixture is not None:
            return self.fixture
        return "x".join(str(n) for n in self.dims)

    def validate(self):
        if not (is_int(self.rank) and is_int(self.count)):
            raise FormatError(f"rank and count must be integers, got {self.rank!r} and {self.count!r}")
        if self.dims is not None and not (len(self.dims) == 3 and all(is_int(n) for n in self.dims)):
            raise FormatError(f"dims must be three integers, got {list(self.dims)!r}")
        if self.fixture is not None and not isinstance(self.fixture, str):
            raise FormatError(f"fixture must be a name, got {self.fixture!r}")
        if (self.dims is None) == (self.fixture is None):
            raise FormatError("instance needs exactly one of 'dims' or 'fixture'")
        if self.fixture is not None and self.fixture not in FIXTURES:
            raise FormatError(f"unknown fixture {self.fixture!r}")
        if self.dims is not None:
            n1, n2, n3 = self.dims
            if not (n1 >= n2 >= n3 >= 2):
                raise FormatError(f"dims must satisfy n1 >= n2 >= n3 >= 2, got {self.dims}")
            if not (self.rank <= n2 or n2 < self.rank <= n1):
                raise FormatError(f"rank {self.rank} outside 1..n1 for dims {self.dims}")
        if self.count < 1 or self.rank < 1:
            raise FormatError("count and rank must be >= 1")


@dataclass
class BenchConfig:
    instances: list[BenchInstance]
    seed: int = 0
    methods: tuple[str, ...] = METHODS
    time_limit: float | None = None
    distribution: str = "normal"
    workers: int = 1
    success_tol: float = SUCCESS_TOL

    def validate(self):
        if not is_int(self.seed) or self.seed < 0:
            raise FormatError(f"seed must be a non-negative integer, got {self.seed!r}")
        for inst in self.instances:
            inst.validate()
        for m in self.methods:
            if m not in METHODS:
                raise FormatError(f"unknown method {m!r}; choose from {METHODS}")
        if self.distribution not in DISTRIBUTIONS:
            raise FormatError(f"unknown distribution {self.distribution!r}")
        if not is_int(self.workers) or self.workers < 1:
            raise FormatError(f"workers must be an integer >= 1, got {self.workers!r}")
        try:  # the solver's own rules for both settings
            SolveOptions(success_tol=self.success_tol, time_limit=self.time_limit)
        except ValueError as exc:
            raise FormatError(str(exc)) from exc


def load_config(path) -> BenchConfig:
    with open(path) as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise FormatError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(obj, dict) or not isinstance(obj.get("instances"), list):
        raise FormatError("bench config must be an object with an 'instances' list")
    if not isinstance(obj.get("methods", []), list):
        raise FormatError(f"methods must be a list, got {obj['methods']!r}")
    instances = []
    for raw in obj["instances"]:
        if not isinstance(raw, dict):
            raise FormatError("each instance must be an object")
        if "dims" in raw and not isinstance(raw["dims"], list):
            raise FormatError(f"dims must be a list of three integers, got {raw['dims']!r}")
        instances.append(
            BenchInstance(
                rank=raw.get("rank", 0),
                count=raw.get("count", 1),
                dims=tuple(raw["dims"]) if "dims" in raw else None,
                fixture=raw.get("fixture"),
            )
        )
    cfg = BenchConfig(
        instances=instances,
        seed=obj.get("seed", 0),
        methods=tuple(obj.get("methods", list(METHODS))),
        time_limit=obj.get("time_limit"),
        distribution=obj.get("distribution", "normal"),
        workers=obj.get("workers", 1),
        success_tol=obj.get("success_tol", SUCCESS_TOL),
    )
    cfg.validate()
    return cfg


def _seed_for(base: int, inst_idx: int, run_idx: int, purpose: int) -> int:
    ss = np.random.SeedSequence([base, inst_idx, run_idx, purpose])
    return int(ss.generate_state(1)[0])


def _run_task(task: dict) -> dict:
    inst = task["instance"]
    method = task["method"]
    if inst.fixture is not None:
        tensor, _ = FIXTURES[inst.fixture]()
    else:
        n1, n2, n3 = inst.dims
        tensor, _ = gen_random_rank_r(n1, n2, n3, inst.rank, task["distribution"], task["tensor_seed"])
    record = {
        "instance": inst.label(),
        "rank": inst.rank,
        "method": method,
        "run": task["run_idx"],
        "seed": task["solver_seed"],
    }
    t0 = time.perf_counter()
    err = float("inf")
    try:
        if method == "ts":
            opts = SolveOptions(seed=task["solver_seed"], time_limit=task["time_limit"], success_tol=task["success_tol"])
            factors, report = decompose(tensor, inst.rank, opts)
            err = report.err_rel
            record.update(stage=report.stage_used, retries=report.retries, causes=[a.cause for a in report.attempts])
        else:
            factors, _ = als_decompose(tensor, inst.rank, task["solver_seed"])
            err = relative_error(tensor, factors)
    except GpcpdError as exc:
        record["error_detail"] = str(exc)
        if method == "ts" and isinstance(exc, DecompositionError):
            record["causes"] = [a.cause for a in exc.attempts]
    elapsed = time.perf_counter() - t0
    timed_out = task["time_limit"] is not None and elapsed > task["time_limit"]
    success = (not timed_out) and err <= task["success_tol"]
    record.update(err_rel=float(err), time=elapsed, success=bool(success), timed_out=bool(timed_out))
    return record


def _tasks(cfg: BenchConfig):
    for inst_idx, inst in enumerate(cfg.instances):
        for method in cfg.methods:
            for run_idx in range(inst.count):
                yield {
                    "instance": inst,  # a module-level dataclass, so it pickles for the worker pool
                    "method": method,
                    "run_idx": run_idx,
                    "tensor_seed": _seed_for(cfg.seed, inst_idx, run_idx, 0),
                    "solver_seed": _seed_for(cfg.seed, inst_idx, run_idx, 1 + METHODS.index(method)),
                    "time_limit": cfg.time_limit,
                    "distribution": cfg.distribution,
                    "success_tol": cfg.success_tol,
                }


@dataclass
class RunReport:
    recipe: dict
    runs: list = field(default_factory=list)
    aggregates: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {"recipe": self.recipe, "runs": self.runs, "aggregates": self.aggregates}


def _aggregate(runs: list) -> list:
    keys = []
    for rec in runs:
        key = (rec["instance"], rec["rank"], rec["method"])
        if key not in keys:
            keys.append(key)
    rows = []
    for instance, rank, method in keys:
        group = [r for r in runs if (r["instance"], r["rank"], r["method"]) == (instance, rank, method)]
        wins = [r for r in group if r["success"]]
        rows.append(
            {
                "dims": instance,
                "rank": rank,
                "method": method,
                "time": float(np.mean([r["time"] for r in wins])) if wins else None,
                "error": float(np.mean([r["err_rel"] for r in wins])) if wins else None,
                "s_rate": len(wins) / len(group),
                "runs": len(group),
                "timeouts": sum(1 for r in group if r["timed_out"]),
            }
        )
    return rows


def run_benchmark(cfg: BenchConfig) -> RunReport:
    cfg.validate()
    tasks = list(_tasks(cfg))
    if cfg.workers > 1 and len(tasks) > 1:
        from concurrent.futures import ProcessPoolExecutor  # imported here: it loads multiprocessing

        with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
            runs = list(pool.map(_run_task, tasks))
    else:
        runs = [_run_task(t) for t in tasks]
    recipe = {
        "seed": cfg.seed,
        "methods": list(cfg.methods),
        "distribution": cfg.distribution,
        "factor_sampling": "i.i.d. factor-matrix entries, distribution as configured",
        "time_limit": cfg.time_limit,
        "success_tol": cfg.success_tol,
    }
    return RunReport(recipe=recipe, runs=runs, aggregates=_aggregate(runs))


CSV_COLUMNS = ("dims", "rank", "method", "time", "error", "s_rate")


def write_report(report: RunReport, path: str):
    if str(path).endswith(".csv"):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(CSV_COLUMNS)
            for row in report.aggregates:
                writer.writerow(
                    [
                        row["dims"],
                        row["rank"],
                        row["method"],
                        "" if row["time"] is None else f"{row['time']:.6g}",
                        "" if row["error"] is None else f"{row['error']:.6e}",
                        f"{row['s_rate']:.4g}",
                    ]
                )
    else:
        with open(path, "w") as fh:
            json.dump(report.to_dict(), fh, indent=2)
