"""Levenberg-Marquardt minimizer for holomorphic complex residual systems.

The residual maps minimized here (the stage-1 projected residual and the
stage-2 commutation residual) contain no conjugation of the unknowns, so the
complex normal equations (J^H J + lambda I) delta = -J^H r reproduce the
Gauss-Newton step of the real 2d-dimensional embedding at half the size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .exceptions import ConditioningError, DomainGuardViolation
from .options import Deadline


@dataclass
class LMOutcome:
    x_final: np.ndarray
    residual_norm: float
    iterations: int
    converged_reason: str  # "residual_zero" | "small_step" | "stationary" | "deadline" | "max_iters"


_MAX_ITERS = 200
_DAMPING_INIT = 1e-3
_DAMPING_UP = 10.0
_DAMPING_DOWN = 0.1
_DAMPING_CAP = 1e16
_STEP_TOL = 1e-12  # relative step size
_RESIDUAL_TOL = 1e-10  # relative to the caller-supplied scale
# gradient test of Madsen, Nielsen & Tingleff (2004), section 3.2, made relative:
# ||J^H r|| <= _GRAD_TOL ||J||_F ||r|| marks a nonzero stationary point
_GRAD_TOL = 1e-4


def _norm(v: np.ndarray) -> float:
    return math.sqrt(np.vdot(v, v).real)


def minimize(
    residual: Callable[[np.ndarray], np.ndarray],
    jacobian: Callable[[np.ndarray], np.ndarray],
    x0: np.ndarray,
    scale: float = 1.0,
    deadline: Deadline | None = None,
) -> LMOutcome:
    """Minimize ||residual(x)||^2 from the complex vector x0.

    Accepted iterates have nonincreasing residual norm. Returns when the
    residual drops below ``_RESIDUAL_TOL * scale`` ("residual_zero"), the
    accepted step is relatively small or no damping gives a decrease
    ("small_step"), the gradient J^H r is negligible against ||J||_F ||r||
    ("stationary": a minimum that is not a zero), ``deadline`` has passed
    ("deadline", checked once per iteration) or the iteration cap is hit
    ("max_iters"). A DomainGuardViolation raised by ``residual`` at the
    initial point propagates to the caller; violations at trial points reject
    the step. A non-finite residual at the initial point or a non-finite
    Jacobian raises ConditioningError, which ``decompose`` treats as a failed
    attempt and retries.
    """
    x = x0
    r = residual(x)
    rnorm = _norm(r)
    if not math.isfinite(rnorm):
        raise ConditioningError("non-finite residual at the initial point")
    lam = _DAMPING_INIT
    target = _RESIDUAL_TOL * scale
    iterations = 0
    reason = "max_iters"

    if x.size == 0:
        return LMOutcome(x, rnorm, 0, "residual_zero" if rnorm <= target else "max_iters")
    eye = np.eye(x.size)

    for _ in range(_MAX_ITERS):
        if rnorm <= target:
            break
        if deadline is not None and deadline.exceeded():
            reason = "deadline"
            break
        iterations += 1
        j = jacobian(x)
        jnorm2 = np.vdot(j, j).real  # trace(J^H J), read before the product so inf/NaN raise quietly
        if not math.isfinite(jnorm2):
            raise ConditioningError("non-finite Jacobian")
        jh = j.conj().T
        a = jh @ j
        g = jh @ r
        if _norm(g) <= _GRAD_TOL * math.sqrt(jnorm2) * rnorm:
            reason = "stationary"
            break
        step = None
        while lam <= _DAMPING_CAP:
            try:
                delta = np.linalg.solve(a + lam * eye, g)
            except np.linalg.LinAlgError:
                lam *= _DAMPING_UP
                continue
            x_new = x - delta
            try:
                r_new = residual(x_new)
            except DomainGuardViolation:
                lam *= _DAMPING_UP
                continue
            rnorm_new = _norm(r_new)
            if rnorm_new < rnorm:  # false for NaN
                step = _norm(delta)
                x, r, rnorm = x_new, r_new, rnorm_new
                lam = max(lam * _DAMPING_DOWN, 1e-14)
                break
            lam *= _DAMPING_UP
        # damping exhausted (no decreasing step exists) or a negligible step
        if step is None or step <= _STEP_TOL * (1.0 + _norm(x)):
            reason = "small_step"
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
