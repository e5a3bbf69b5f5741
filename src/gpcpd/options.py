"""Solver configuration: the settings a caller chooses per run.

Everything else the method fixes as constants, each in the module that reads
it: the rank cutoff and zero-residual test in ``linalg``, the LM settings in
``lm``, the projector guard and start count in ``stage1``, the diagonality
test, retry count and mode mixing in ``assembly``.
"""

from __future__ import annotations

import math
import numbers
import time
from dataclasses import dataclass

SUCCESS_TOL = 1e-6  # err-rel at or below this counts as a successful decomposition


class Deadline:
    """Cooperative wall-clock budget checked between solver phases and once per LM iteration."""

    def __init__(self, limit: float | None):
        self.limit = limit
        self.start = time.perf_counter()

    def exceeded(self) -> bool:
        return self.limit is not None and time.perf_counter() - self.start > self.limit


def _positive_finite(value) -> bool:
    return (
        isinstance(value, numbers.Real)
        and not isinstance(value, bool)
        and math.isfinite(value)
        and value > 0
    )


@dataclass
class SolveOptions:
    seed: int | None = None
    success_tol: float = SUCCESS_TOL
    time_limit: float | None = None  # cooperative per-run budget, seconds
    stage1_max_rows: int | None = None  # cap stage-1 rows (forces stage 2); None = no cap

    def __post_init__(self):
        if not _positive_finite(self.success_tol):
            raise ValueError(f"success_tol must be a positive finite number, got {self.success_tol!r}")
        if self.time_limit is not None and not _positive_finite(self.time_limit):
            raise ValueError(f"time_limit must be None or a positive finite number, got {self.time_limit!r}")
        if self.stage1_max_rows is not None and self.stage1_max_rows < 0:
            raise ValueError(f"stage1_max_rows must be None or >= 0, got {self.stage1_max_rows!r}")
