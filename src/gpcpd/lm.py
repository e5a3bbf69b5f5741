"""Levenberg-Marquardt minimizer for holomorphic complex residual systems.

The residual maps minimized here (the stage-1 projected residual and the
stage-2 commutation residual) contain no conjugation of the unknowns, so the
complex normal equations (J^H J + lambda I) delta = -J^H r reproduce the
Gauss-Newton step of the real 2d-dimensional embedding at half the size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .exceptions import ConditioningError, DomainGuardViolation


@dataclass
class LMOptions:
    max_iters: int = 200
    damping_init: float = 1e-3
    damping_up: float = 10.0
    damping_down: float = 0.1
    step_tol: float = 1e-12  # relative step size
    residual_tol: float = 1e-10  # relative to the caller-supplied scale
    seed: int | None = None

    def __post_init__(self):
        if not (self.damping_up > 1.0 > self.damping_down > 0.0):
            raise ValueError("need damping_up > 1 > damping_down > 0")
        for name in ("max_iters", "damping_init", "step_tol", "residual_tol"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


@dataclass
class LMOutcome:
    x_final: np.ndarray
    residual_norm: float
    iterations: int
    converged_reason: str  # "residual_zero" | "small_step" | "max_iters"


_DAMPING_CAP = 1e16


def minimize(
    residual: Callable[[np.ndarray], np.ndarray],
    jacobian: Callable[[np.ndarray], np.ndarray],
    x0: np.ndarray,
    opts: LMOptions | None = None,
    scale: float = 1.0,
) -> LMOutcome:
    """Minimize ||residual(x)||^2 from x0.

    Accepted iterates have nonincreasing residual norm. Returns when the
    residual drops below ``opts.residual_tol * scale``, the accepted step is
    relatively small, or the iteration cap is hit. A DomainGuardViolation
    raised by ``residual`` at the initial point propagates to the caller;
    violations at trial points reject the step. A non-finite residual at the
    initial point or a non-finite Jacobian raises ConditioningError, which
    ``decompose`` treats as a failed attempt and retries.
    """
    opts = opts or LMOptions()
    x = np.asarray(x0, dtype=np.complex128).reshape(-1)
    r = np.asarray(residual(x), dtype=np.complex128).reshape(-1)
    if not np.all(np.isfinite(r)):
        raise ConditioningError("non-finite residual at the initial point")
    rnorm = float(np.linalg.norm(r))
    lam = opts.damping_init
    target = opts.residual_tol * scale
    iterations = 0
    reason = "max_iters"

    if x.size == 0:
        return LMOutcome(x, rnorm, 0, "residual_zero" if rnorm <= target else "max_iters")
    eye = np.eye(x.size)

    for _ in range(opts.max_iters):
        if rnorm <= target:
            reason = "residual_zero"
            break
        iterations += 1
        j = np.asarray(jacobian(x), dtype=np.complex128)
        if not np.all(np.isfinite(j)):
            raise ConditioningError("non-finite Jacobian")
        jh = j.conj().T
        a = jh @ j
        g = jh @ r
        accepted = False
        while lam <= _DAMPING_CAP:
            try:
                delta = np.linalg.solve(a + lam * eye, -g)
            except np.linalg.LinAlgError:
                lam *= opts.damping_up
                continue
            try:
                r_new = np.asarray(residual(x + delta), dtype=np.complex128).reshape(-1)
            except DomainGuardViolation:
                lam *= opts.damping_up
                continue
            rnorm_new = float(np.linalg.norm(r_new))
            if np.isfinite(rnorm_new) and rnorm_new < rnorm:
                x = x + delta
                r = r_new
                rnorm = rnorm_new
                lam = max(lam * opts.damping_down, 1e-14)
                accepted = True
                step = float(np.linalg.norm(delta))
                if step <= opts.step_tol * (1.0 + float(np.linalg.norm(x))):
                    reason = "small_step"
                break
            lam *= opts.damping_up
        if not accepted:
            reason = "small_step"  # damping exhausted: no decreasing step exists
            break
        if reason == "small_step":
            break
    if rnorm <= target:
        reason = "residual_zero"
    return LMOutcome(x_final=x, residual_norm=rnorm, iterations=iterations, converged_reason=reason)


def finite_difference_check(
    residual: Callable[[np.ndarray], np.ndarray],
    jacobian: Callable[[np.ndarray], np.ndarray],
    x: np.ndarray,
    h: float | None = None,
) -> float:
    """Max relative column discrepancy between analytic and central differences.

    Each coordinate is perturbed by +-h along the real and imaginary axes;
    for a holomorphic residual both quotients approximate the same complex
    derivative.
    """
    x = np.asarray(x, dtype=np.complex128).reshape(-1)
    j = np.asarray(jacobian(x), dtype=np.complex128)
    jnorm = float(np.linalg.norm(j))
    worst = 0.0
    for i in range(x.size):
        hi = 1e-6 * (1.0 + abs(x[i])) if h is None else h
        for direction in (hi, 1j * hi):
            xp = x.copy()
            xm = x.copy()
            xp[i] += direction
            xm[i] -= direction
            approx = (
                np.asarray(residual(xp), dtype=np.complex128)
                - np.asarray(residual(xm), dtype=np.complex128)
            ).reshape(-1) / (2.0 * direction)
            col = j[:, i]
            denom = max(float(np.linalg.norm(col)), 1e-8 * jnorm, 1e-14)
            worst = max(worst, float(np.linalg.norm(approx - col)) / denom)
    return worst
