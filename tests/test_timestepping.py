"""Implicit integrators: Newton's method and the 3-stage DIRK scheme."""

import numpy as np
import pytest

from polydg.blocklinalg import BlockSparseMatrix, block_jacobi_solve
from polydg.timestepping import (MAX_NEWTON_STEPS, TimesteppingError,
                                 backward_euler_system, dirk3_step,
                                 dirk3_tableau, newton_solve)


def scalar_system(lam):
    M = BlockSparseMatrix.from_block_dict(1, 1, {(0, 0): np.eye(1)})
    L = BlockSparseMatrix.from_block_dict(1, 1, {(0, 0): lam * np.eye(1)})
    return M, L


def test_dirk3_tableau_order_conditions():
    A, b, c = dirk3_tableau()
    g = A[0, 0]
    # diagonal coefficient is the L-stability root in (1/3, 1/2)
    assert 6 * g ** 3 - 18 * g ** 2 + 9 * g - 1 == pytest.approx(0.0, abs=1e-12)
    assert 1.0 / 3.0 < g < 0.5
    assert g == pytest.approx(0.43586652150845967, abs=1e-12)
    # row sums equal the abscissae; stiffly accurate (b = last row)
    assert np.allclose(A.sum(axis=1), c)
    assert np.allclose(A[-1], b)
    # order conditions through order 3
    assert b.sum() == pytest.approx(1.0, abs=1e-12)
    assert b @ c == pytest.approx(0.5, abs=1e-12)
    assert b @ c ** 2 == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert b @ A @ c == pytest.approx(1.0 / 6.0, abs=1e-12)


def test_dirk3_stability_function_vanishes_at_infinity():
    A, b, _ = dirk3_tableau()
    # R(z) = 1 + z b (I - z A)^{-1} 1 -> 1 - b A^{-1} 1 as z -> -inf
    r_inf = 1.0 - b @ np.linalg.solve(A, np.ones(3))
    assert r_inf == pytest.approx(0.0, abs=1e-12)


def test_dirk3_exact_decay_convergence_order():
    lam = 1.0
    M, L = scalar_system(lam)
    T = 1.0
    errs = []
    steps = [8, 16, 32, 64]
    for n in steps:
        k = T / n
        u = np.ones(1)
        for _ in range(n):
            u = dirk3_step(M, L, k, u,
                           lambda S, rhs: np.linalg.solve(S.to_dense(), rhs))
        errs.append(abs(u[0] - np.exp(-lam * T)))
    slopes = np.diff(np.log(errs)) / np.diff(np.log(1.0 / np.array(steps)))
    assert abs(slopes[-1] - 3.0) < 0.1


def test_backward_euler_zero_operator_is_identity():
    M, L = scalar_system(0.0)
    A = backward_euler_system(M, L, 0.7)
    u = np.array([2.5])
    x, _, _, ok = block_jacobi_solve(A, M.matvec(u))
    assert ok and x[0] == pytest.approx(2.5, rel=1e-13)


def test_newton_linear_problem_converges_in_one_iteration():
    rng = np.random.default_rng(0)
    Ad = rng.standard_normal((4, 4)) + 8.0 * np.eye(4)
    b = rng.standard_normal(4)

    def residual(u):
        return Ad @ u - b

    def jacobian(u):
        return Ad

    def solver(A, rhs):
        return np.linalg.solve(A, rhs), 1

    res = newton_solve(residual, jacobian, np.zeros(4), solver)
    assert res.converged and res.n_iters == 1
    assert np.allclose(res.u, np.linalg.solve(Ad, b))


def test_newton_quadratic_convergence_on_nonlinear_problem():
    # run_euler_case reuses the residual's Lax-Friedrichs coefficients in
    # the Jacobian, which is right only at the very state evaluated last
    last = []

    def residual(u):
        last.append(u)
        return np.array([u[0] ** 3 - 2.0])

    def jacobian(u):
        assert u is last[-1]
        return np.array([[3.0 * u[0] ** 2]])

    def solver(A, rhs):
        return np.linalg.solve(A, rhs), 1

    res = newton_solve(residual, jacobian, np.array([2.0]), solver, tol=1e-14)
    assert res.converged
    assert res.u[0] == pytest.approx(2.0 ** (1.0 / 3.0), rel=1e-12)
    assert 3 <= res.n_iters <= 10
    assert len(res.linear_iters) == res.n_iters


def test_newton_reports_failure():
    def residual(u):
        return np.array([np.cos(u[0]) + 2.0])  # no root

    def jacobian(u):
        return np.array([[-np.sin(u[0]) - 1.5]])

    def solver(A, rhs):
        return np.linalg.solve(A, rhs), 1

    res = newton_solve(residual, jacobian, np.array([0.3]), solver)
    assert not res.converged
    assert res.n_iters == len(res.linear_iters) == MAX_NEWTON_STEPS


@pytest.mark.parametrize("bad_at", [0, 2])
def test_newton_stops_on_non_finite_residual(bad_at):
    # a NaN residual fails every convergence test, so without the check
    # Newton would run MAX_NEWTON_STEPS steps on NaN
    calls = []

    def residual(u):
        calls.append(u)
        return np.array([np.nan if len(calls) > bad_at else u[0] ** 3 - 2.0])

    def jacobian(u):
        return np.array([[3.0 * u[0] ** 2]])

    def solver(A, rhs):
        return np.linalg.solve(A, rhs), 1

    with pytest.raises(TimesteppingError, match=f"nan at step {bad_at}$"):
        newton_solve(residual, jacobian, np.array([2.0]), solver)
    assert len(calls) == bad_at + 1
