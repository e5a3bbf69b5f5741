"""Layer spans recorded from outside the package, by wrapping public functions.

Each target is a public attribute of a gpcpd module namespace that the solve
path looks up at call time (for example ``gpcpd.stage1.jac_fQ``, which
``find_next_row`` reaches through its module globals). Wrapping that attribute
times every call ``decompose`` makes through it; nothing under ``src/`` is
changed. ``Tracer.installed()`` swaps the wrappers in and restores every
original attribute on exit, also when the body raises.

A span is ``(name, start, end, parent, solve_id, error, info)``: ``parent`` is
the index of the enclosing span (-1 for a root), ``error`` the class name of an
exception that left the call (counted, then re-raised) and ``info`` a small
tuple a target may extract from the call's result.
"""

from __future__ import annotations

import functools
import importlib
import json
from contextlib import contextmanager
from time import perf_counter
from typing import NamedTuple


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int
    solve_id: int
    error: str | None
    info: tuple | None


def _lm_info(outcome):
    return (outcome.iterations, outcome.converged_reason)


def _found_info(row):
    return (row is not None,)


def _system_info(system):
    # bytes of the dense A_hat, computed from its shape (complex128 entries)
    return (system.A_hat.size * system.A_hat.itemsize, system.d)


def _value_info(value):
    return (float(value),)


# (module, attribute, span name, info extractor)
TARGETS = (
    ("gpcpd.assembly", "build_reduced_tensor", "preprocess.reduce", None),
    ("gpcpd.assembly", "build_reduced_tensor_lowrank", "preprocess.reduce", None),
    ("gpcpd.assembly", "random_mode_mixing", "preprocess.mix", None),
    ("gpcpd.assembly", "gevd_lowrank_decompose", "assembly.gevd", None),
    ("gpcpd.assembly", "run_stage1", "stage1.run", None),
    ("gpcpd.assembly", "run_stage2", "stage2.run", None),
    ("gpcpd.assembly", "eigmatrix_from_pkset", "assembly.simdiag", None),
    ("gpcpd.assembly", "decomposition_from_eigmatrix", "assembly.factors", None),
    ("gpcpd.assembly", "recover_U1_lls", "assembly.u1_lls", None),
    ("gpcpd.assembly", "least_squares_min_norm", "linalg.lstsq", None),
    ("gpcpd.assembly", "relative_error", "assembly.err_check", _value_info),
    ("gpcpd.stage1", "find_next_row", "stage1.find_row", _found_info),
    ("gpcpd.stage1", "refine_row", "stage1.refine", None),
    ("gpcpd.stage1", "minimize", "lm.fQ", _lm_info),
    ("gpcpd.stage1", "eval_fQ", "lm.fQ.eval", None),
    ("gpcpd.stage1", "jac_fQ", "lm.fQ.jac", None),
    ("gpcpd.stage2", "assemble_stage2", "stage2.assemble", _system_info),
    ("gpcpd.stage2", "null_space_basis", "linalg.nullspace", None),
    ("gpcpd.stage2", "least_squares_min_norm", "linalg.lstsq", None),
    ("gpcpd.stage2", "minimize", "lm.g", _lm_info),
    ("gpcpd.stage2", "eval_g", "lm.g.eval", None),
    ("gpcpd.stage2", "jac_g", "lm.g.jac", None),
)


class Tracer:
    """In-memory span recorder; spans are written out once, after the run."""

    def __init__(self):
        self.spans: list[Span] = []
        self.solve_id = -1
        self._stack: list[int] = []

    def _enter(self) -> int:
        index = len(self.spans)
        self.spans.append(None)  # placeholder keeps parents ahead of children
        self._stack.append(index)
        return index

    def _exit(self, index, name, start, error, info):
        self._stack.pop()
        parent = self._stack[-1] if self._stack else -1
        self.spans[index] = Span(name, start, perf_counter(), parent, self.solve_id, error, info)

    @contextmanager
    def span(self, name: str, solve_id: int):
        """Root span around one ``decompose`` call, recorded by the caller."""
        self.solve_id = solve_id
        index = self._enter()
        start = perf_counter()
        error = None
        try:
            yield
        except Exception as exc:
            error = type(exc).__name__
            raise
        finally:
            self._exit(index, name, start, error, None)

    def _wrap(self, fn, name, extract):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self._enter()
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self._exit(index, name, start, type(exc).__name__, None)
                raise
            self._exit(index, name, start, None, extract(result) if extract else None)
            return result

        return wrapper

    @contextmanager
    def installed(self):
        """Swap every target for its wrapper; restore the originals on exit."""
        saved = []
        try:
            for module_name, attr, name, extract in TARGETS:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                setattr(module, attr, self._wrap(original, name, extract))
                saved.append((module, attr, original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span._asdict()) + "\n")


ATTEMPT_ERRORS = (
    "AssemblyError",
    "ConditioningError",
    "DomainGuardViolation",
    "GenericityError",
    "InconsistentSystemError",
    "SingularMatrixError",
    "Stage2FailureError",
)

# per-layer metric name -> unit, in report order
LAYER_UNITS = {
    "lm.fQ.jac_s": "s/solve",
    "lm.fQ.eval_s": "s/solve",
    "lm.fQ.iters": "1/call",
    "lm.fQ.calls": "1/solve",
    "lm.fQ.stop.max_iters": "1/solve",
    "lm.fQ.converge_ratio": "ratio",
    "lm.g.jac_s": "s/solve",
    "lm.g.eval_s": "s/solve",
    "lm.g.iters": "1/call",
    "lm.g.calls": "1/solve",
    "lm.g.stop.max_iters": "1/solve",
    "lm.g.converge_ratio": "ratio",
    "stage1.run_s": "s/solve",
    "stage1.row_found_s": "s/solve",
    "stage1.refine_s": "s/solve",
    "stage1.row_failed_s": "s/solve",
    "stage1.row_failed_calls": "1/solve",
    "stage1.row_yield": "ratio",
    "stage2.run_s": "s/solve",
    "stage2.assemble_s": "s/solve",
    "stage2.system_bytes": "B-computed",
    "stage2.null_dim": "count",
    "stage2.levels_tried": "1/run",
    "stage2.inconsistent": "1/solve",
    "linalg.nullspace_s": "s/solve",
    "linalg.lstsq_s": "s/solve",
    "assembly.attempts_per_solve": "1/solve",
    "assembly.attempt_yield": "ratio",
    **{f"assembly.attempt_fail.{name}": "1/solve" for name in ATTEMPT_ERRORS},
    "assembly.attempt_fail.err_above_tol": "1/solve",
    "assembly.simdiag_s": "s/solve",
    "assembly.u1_lls_s": "s/solve",
    "assembly.gevd_s": "s/solve",
    "assembly.self_s": "s/solve",
    "assembly.deadline_overrun_s": "s",
    "preprocess.reduce_s": "s/solve",
    "preprocess.reduce_calls": "1/solve",
    "preprocess.mix_s": "s/solve",
    "trace.decompose_s": "s/solve",
    "trace.span_coverage": "ratio",
    "trace.overhead_s": "s/solve",
    "trace.overhead_ratio": "ratio",
}


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(
    spans: list[Span], time_limit: float, success_tol: float, solves_ok: int, untraced_s: float
) -> dict:
    """Per-layer values of ``LAYER_UNITS`` from one traced run's spans.

    ``untraced_s`` is the total ``decompose`` time of the same solves run with
    no wrappers installed; the difference is the tracing overhead. Times and
    counts are per solve; a root span is one ``decompose`` call and
    its direct children are the steps of the retry loop, so every attempt
    starts with exactly one ``preprocess.reduce`` (middle rank) or
    ``assembly.gevd`` (low rank) child.
    """
    roots = [s for s in spans if s.parent == -1]
    n = len(roots)
    direct = [s for s in spans if s.parent >= 0 and spans[s.parent].parent == -1]
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def pick(name, keep=None):
        return [s for s in by_name.get(name, ()) if keep is None or keep(s)]

    def busy(name, keep=None):
        return sum(s.end - s.start for s in pick(name, keep)) / n

    def per_solve(name, keep=None):
        return len(pick(name, keep)) / n

    def lm(prefix):
        calls = pick(prefix, lambda s: s.info is not None)
        return {
            f"{prefix}.jac_s": busy(f"{prefix}.jac"),
            f"{prefix}.eval_s": busy(f"{prefix}.eval"),
            f"{prefix}.iters": _ratio(sum(s.info[0] for s in calls), len(calls)),
            f"{prefix}.calls": per_solve(prefix),
            f"{prefix}.stop.max_iters": sum(s.info[1] == "max_iters" for s in calls) / n,
            f"{prefix}.converge_ratio": _ratio(sum(s.info[1] == "residual_zero" for s in calls), len(calls)),
        }

    found = lambda s: s.info is not None and s.info[0]  # noqa: E731
    failed = lambda s: s.info is not None and not s.info[0]  # noqa: E731
    systems = [s.info for s in pick("stage2.assemble") if s.info is not None]
    attempts = sum(s.name in ("preprocess.reduce", "assembly.gevd") for s in direct)
    root_time = sum(s.end - s.start for s in roots)
    self_time = root_time - sum(s.end - s.start for s in direct)

    values = {**lm("lm.fQ"), **lm("lm.g")}
    values.update(
        {
            "stage1.run_s": busy("stage1.run"),
            "stage1.row_found_s": busy("stage1.find_row", found),
            "stage1.refine_s": busy("stage1.refine"),
            "stage1.row_failed_s": busy("stage1.find_row", failed),
            "stage1.row_failed_calls": per_solve("stage1.find_row", failed),
            "stage1.row_yield": _ratio(len(pick("stage1.find_row", found)), len(pick("stage1.find_row"))),
            "stage2.run_s": busy("stage2.run"),
            "stage2.assemble_s": busy("stage2.assemble"),
            "stage2.system_bytes": float(max((b for b, _ in systems), default=0)),
            "stage2.null_dim": _ratio(sum(d for _, d in systems), len(systems)),
            "stage2.levels_tried": _ratio(len(pick("stage2.assemble")), len(pick("stage2.run"))),
            "stage2.inconsistent": per_solve("stage2.assemble", lambda s: s.error == "InconsistentSystemError"),
            "linalg.nullspace_s": busy("linalg.nullspace"),
            "linalg.lstsq_s": busy("linalg.lstsq"),
            "assembly.attempts_per_solve": attempts / n,
            "assembly.attempt_yield": _ratio(solves_ok, attempts),
            "assembly.attempt_fail.err_above_tol": sum(
                s.name == "assembly.err_check" and s.info[0] > success_tol for s in direct
            ) / n,
            "assembly.simdiag_s": busy("assembly.simdiag"),
            "assembly.u1_lls_s": busy("assembly.u1_lls"),
            "assembly.gevd_s": busy("assembly.gevd"),
            "assembly.self_s": self_time / n,
            "assembly.deadline_overrun_s": max(max(s.end - s.start - time_limit, 0.0) for s in roots),
            "preprocess.reduce_s": busy("preprocess.reduce"),
            "preprocess.reduce_calls": per_solve("preprocess.reduce"),
            "preprocess.mix_s": busy("preprocess.mix"),
            "trace.decompose_s": root_time / n,
            "trace.span_coverage": _ratio(root_time - self_time, root_time),
            "trace.overhead_s": (root_time - untraced_s) / n,
            "trace.overhead_ratio": _ratio(root_time - untraced_s, untraced_s),
        }
    )
    for name in ATTEMPT_ERRORS:
        values[f"assembly.attempt_fail.{name}"] = sum(s.error == name for s in direct) / n
    return {name: values[name] for name in LAYER_UNITS}
