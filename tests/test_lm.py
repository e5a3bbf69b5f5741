import time

import numpy as np
import pytest

from gpcpd import DomainGuardViolation, finite_difference_check, minimize
from gpcpd.linalg import complex_normal
from gpcpd.preprocess import build_reduced_tensor
from gpcpd.stage1 import EigRowSet
from gpcpd.stage2 import assemble_stage2, eval_g, jac_g
from gpcpd.tensors import vec

from conftest import planted_instance


def test_linear_residual_converges_fast(rng):
    a = complex_normal(rng, (6, 4))
    x_true = complex_normal(rng, 4)
    b = a @ x_true
    out = minimize(lambda x: a @ x - b, lambda x: a, np.zeros(4, complex), scale=float(np.linalg.norm(b)))
    assert out.residual_norm <= 1e-10 * np.linalg.norm(b)
    assert out.iterations <= 5
    assert np.linalg.norm(out.x_final - x_true) <= 1e-8


def test_scalar_root(rng):
    out = minimize(
        lambda x: np.array([x[0] ** 2 - 1.0]),
        lambda x: np.array([[2.0 * x[0]]]),
        np.array([2.0 + 0j]),
        scale=1e-3,  # stop below 1e-13
    )
    assert out.residual_norm <= 1e-12
    assert abs(out.x_final[0] - 1.0) <= 1e-6


def test_stage2_objective_plant_and_recover(rng):
    tensor, triple = planted_instance(rng, 5, 3, 3, 4)
    rt = build_reduced_tensor(tensor, 4, seed=rng)
    sys2 = assemble_stage2(rt, EigRowSet.empty(rt))
    uhat1 = rt.P @ triple.U1[:4, :]
    lam = triple.U3 / triple.U3[0:1, :]
    uinv = np.linalg.inv(uhat1)
    p_true = np.concatenate(
        [vec((uhat1 @ np.diag(lam[k]) @ uinv)[:, 3:]) for k in range(1, 3)]
    )
    p0 = np.concatenate([vec(m) for m in sys2.P0])
    x_star = sys2.N.conj().T @ (p_true - p0)
    scale = rt.norm()
    out = minimize(
        lambda x: eval_g(x, sys2, rt),
        lambda x: jac_g(x, sys2, rt),
        x_star + 0.01 * complex_normal(rng, sys2.d),
        scale=scale**2,
    )
    assert out.residual_norm <= 1e-8 * scale**2


class TestFiniteDifferenceCheck:
    def test_linear_is_exact(self, rng):
        a = complex_normal(rng, (5, 3))
        assert finite_difference_check(lambda x: a @ x, lambda x: a, complex_normal(rng, 3)) <= 1e-9

    def test_detects_wrong_jacobian(self, rng):
        a = complex_normal(rng, (5, 3))
        wrong = a.copy()
        wrong[0, 0] += 0.5
        assert finite_difference_check(lambda x: a @ x, lambda x: wrong, complex_normal(rng, 3)) > 1e-3


def test_accepted_steps_monotone(rng):
    # jacobian is evaluated exactly at accepted iterates; record the norms there
    a = complex_normal(rng, (8, 3))
    b = complex_normal(rng, 8)

    def residual(x):
        r = a @ x - b
        return np.concatenate([r, 0.1 * np.array([x[0] ** 3])])

    norms = []

    def jacobian(x):
        norms.append(float(np.linalg.norm(residual(x))))
        j = np.zeros((9, 3), dtype=complex)
        j[:8, :] = a
        j[8, 0] = 0.3 * x[0] ** 2
        return j

    minimize(residual, jacobian, complex_normal(rng, 3))
    assert all(norms[i + 1] <= norms[i] + 1e-12 for i in range(len(norms) - 1))


def test_complex_step_equals_real_embedding(rng):
    # for holomorphic residuals the complex normal equations reproduce the
    # Gauss-Newton step of the stacked real system
    m, d = 7, 4
    j = complex_normal(rng, (m, d))
    r = complex_normal(rng, m)
    lam = 1e-3
    delta_c = np.linalg.solve(j.conj().T @ j + lam * np.eye(d), -j.conj().T @ r)
    jr = np.block([[j.real, -j.imag], [j.imag, j.real]])
    rr = np.concatenate([r.real, r.imag])
    delta_r = np.linalg.solve(jr.T @ jr + lam * np.eye(2 * d), -jr.T @ rr)
    assert np.linalg.norm(delta_c - (delta_r[:d] + 1j * delta_r[d:])) <= 1e-12


def test_determinism(rng):
    a = complex_normal(rng, (5, 3))
    b = complex_normal(rng, 5)
    x0 = complex_normal(rng, 3)
    out1 = minimize(lambda x: a @ x - b, lambda x: a, x0)
    out2 = minimize(lambda x: a @ x - b, lambda x: a, x0)
    assert np.array_equal(out1.x_final, out2.x_final)
    assert out1.residual_norm == out2.residual_norm
    assert out1.iterations == out2.iterations


def test_domain_guard_at_start_propagates():
    def residual(x):
        raise DomainGuardViolation("outside")

    with pytest.raises(DomainGuardViolation):
        minimize(residual, lambda x: np.eye(1), np.array([0.0 + 0j]))


def test_non_finite_residual_aborts_with_diagnostic():
    from gpcpd import GpcpdError

    with pytest.raises(GpcpdError, match="non-finite"):
        minimize(lambda x: np.array([np.inf + 0j]), lambda x: np.eye(1), np.array([1.0 + 0j]))


@pytest.mark.parametrize(
    "residual, jacobian",
    [
        (lambda x: np.array([np.nan + 0j]), lambda x: np.eye(1)),
        (lambda x: x - 2.0, lambda x: np.array([[np.inf + 0j]])),
    ],
    ids=["residual", "jacobian"],
)
def test_non_finite_values_raise_recoverable_conditioning_error(residual, jacobian):
    from gpcpd import ConditioningError

    with pytest.raises(ConditioningError, match="non-finite"):
        minimize(residual, jacobian, np.array([1.0 + 0j]))


def test_inconsistent_linear_system_stops_stationary(rng):
    # the least-squares minimum of an overdetermined random system is not a zero
    a = complex_normal(rng, (8, 3))
    b = complex_normal(rng, 8)
    out = minimize(lambda x: a @ x - b, lambda x: a, np.zeros(3, complex), scale=float(np.linalg.norm(b)))
    assert out.converged_reason == "stationary"
    assert out.iterations <= 3
    x_ls = np.linalg.lstsq(a, b, rcond=None)[0]
    assert np.linalg.norm(out.x_final - x_ls) <= 1e-3 * np.linalg.norm(x_ls)


def test_zero_residual_problems_never_stop_stationary(rng):
    for _ in range(20):
        a = complex_normal(rng, (6, 4))
        b = a @ complex_normal(rng, 4)
        out = minimize(lambda x: a @ x - b, lambda x: a, complex_normal(rng, 4), scale=float(np.linalg.norm(b)))
        assert out.converged_reason == "residual_zero"
    out = minimize(
        lambda x: np.array([x[0] ** 2 - 1.0, x[0] * x[1] - 2.0]),
        lambda x: np.array([[2.0 * x[0], 0.0], [x[1], x[0]]]),
        np.array([3.0 + 1j, -1.0 + 0j]),
    )
    assert out.converged_reason == "residual_zero"


class _Expired:
    def exceeded(self):
        return True


def test_expired_deadline_returns_after_at_most_one_iteration():
    calls = []

    def slow_residual(x):
        calls.append(1)
        time.sleep(0.05)
        return np.array([x[0] ** 2 - 2.0])

    out = minimize(slow_residual, lambda x: np.array([[2.0 * x[0]]]), np.array([5.0 + 0j]), deadline=_Expired())
    assert out.converged_reason == "deadline"
    assert out.iterations <= 1
    assert len(calls) <= 2


def test_deadline_is_checked_once_per_iteration():
    class Countdown:
        def __init__(self, left):
            self.left = left

        def exceeded(self):
            self.left -= 1
            return self.left < 0

    out = minimize(
        lambda x: np.array([x[0] ** 2 - 2.0]),
        lambda x: np.array([[2.0 * x[0]]]),
        np.array([50.0 + 0j]),
        deadline=Countdown(2),
    )
    assert out.converged_reason == "deadline"
    assert out.iterations == 2
