"""Implicit time integration: backward Euler steps for linear systems,
Newton's method for the nonlinear Euler steps, and a 3-stage L-stable DIRK
scheme for time-accuracy checks."""

from dataclasses import dataclass

import numpy as np


class TimesteppingError(Exception):
    pass


def backward_euler_system(M, L, k):
    """A = M + k L for M block-diagonal (given as L-compatible block matrix)."""
    return L.scaled_add_diag(k, M.diagonal_blocks())


@dataclass
class NewtonResult:
    u: np.ndarray
    n_iters: int
    linear_iters: list
    residual_norms: list
    converged: bool


def _finite_norm(F, step):
    norm = float(np.linalg.norm(F))
    if not np.isfinite(norm):
        raise TimesteppingError(
            f"Newton residual norm is {norm} at step {step}")
    return norm


MAX_NEWTON_STEPS = 20
NEWTON_TOL = 5e-13


def newton_solve(residual_fn, jacobian_fn, u0, linear_solver, tol=NEWTON_TOL):
    """Newton's method with full steps, at most MAX_NEWTON_STEPS of them.

    residual_fn(u) -> F(u); jacobian_fn(u) -> A, the block matrix dF/du,
    always called with the very array last passed to residual_fn, so it
    may reuse what that evaluation computed; linear_solver(A, rhs) ->
    (x, record), where record (an iteration count, say) is kept per step in
    the result's `linear_iters`. Convergence:
    ||F|| <= tol * max(1, ||F0||); a non-finite ||F|| is a
    TimesteppingError. Each Jacobian is released before the next
    is built, so it and the factorizations cached on it never overlap with
    the next one in memory.
    """
    u = u0.copy()
    F = residual_fn(u)
    norms = [_finite_norm(F, 0)]
    lin_iters = []
    ref = max(1.0, norms[0])
    for it in range(MAX_NEWTON_STEPS):
        if norms[-1] <= tol * ref:
            return NewtonResult(u, it, lin_iters, norms, True)
        A = jacobian_fn(u)
        du, record = linear_solver(A, -F)
        del A
        lin_iters.append(record)
        u = u + du
        F = residual_fn(u)
        norms.append(_finite_norm(F, it + 1))
    converged = norms[-1] <= tol * ref
    return NewtonResult(u, MAX_NEWTON_STEPS, lin_iters, norms, converged)


def dirk3_tableau():
    """Alexander's 3-stage, stiffly accurate, L-stable DIRK of order 3.

    The diagonal coefficient is the root in (0, 1/2) of
    6 g^3 - 18 g^2 + 9 g - 1 = 0.
    """
    roots = np.roots([6.0, -18.0, 9.0, -1.0])
    # the root in (1/3, 1/2) gives A-stability (hence L-stability, since the
    # scheme is stiffly accurate with R(inf) = 0 there)
    g = float(next(r.real for r in roots if abs(r.imag) < 1e-12
                   and 1.0 / 3.0 < r.real < 0.5))
    c2 = 0.5 * (1.0 + g)
    b1 = -0.25 * (6.0 * g ** 2 - 16.0 * g + 1.0)
    b2 = 0.25 * (6.0 * g ** 2 - 20.0 * g + 5.0)
    A = np.array([[g, 0.0, 0.0],
                  [c2 - g, g, 0.0],
                  [b1, b2, g]])
    b = np.array([b1, b2, g])
    c = np.array([g, c2, 1.0])
    return A, b, c


def dirk3_step(M, L, k, u, solve):
    """One step of the DIRK scheme for M u' + L u = 0.

    solve(A, rhs) -> x solves the stage systems A = M + g k L. Stiffly
    accurate: the solution is the last stage value.
    """
    A, b, c = dirk3_tableau()
    g = A[0, 0]
    S = L.scaled_add_diag(g * k, M.diagonal_blocks())
    stages = []
    for i in range(3):
        rhs = M.matvec(u)
        for j in range(i):
            rhs -= k * A[i, j] * L.matvec(stages[j])
        stages.append(solve(S, rhs))
    return stages[-1]
