"""Compressible Euler discretization: fluxes, vortex state, Jacobian."""

import numpy as np
import pytest

from polydg import experiments
from polydg.basis import DgSpace
from polydg.euler import (EulerDiscretization, EulerError, EulerParams, flux,
                          flux_jacobians, lax_friedrichs_flux, max_wave_speed,
                          primitive, vortex_exact)
from polydg.mesh import build_regular_mesh

GAMMA = 1.4


def random_states(n, seed=0):
    rng = np.random.default_rng(seed)
    rho = 1.0 + 0.3 * rng.random(n)
    vx = rng.standard_normal(n)
    vy = rng.standard_normal(n)
    p = 1.0 + 0.5 * rng.random(n)
    E = p / ((GAMMA - 1.0) * rho) + 0.5 * (vx ** 2 + vy ** 2)
    return np.stack([rho, rho * vx, rho * vy, rho * E], axis=-1)


def test_primitive_roundtrip():
    u = random_states(5)
    rho, vx, vy, p = primitive(u, GAMMA)
    E = p / ((GAMMA - 1.0) * rho) + 0.5 * (vx ** 2 + vy ** 2)
    back = np.stack([rho, rho * vx, rho * vy, rho * E], axis=-1)
    assert np.max(np.abs(back - u)) < 1e-13


def test_primitive_rejects_nonphysical():
    u = random_states(3)
    u[1, 0] = -1.0
    with pytest.raises(EulerError):
        primitive(u, GAMMA)


def test_numerical_flux_consistency():
    # F_hat(u, u, n) = F(u) . n to machine precision
    u = random_states(20, seed=1)
    rng = np.random.default_rng(2)
    n = rng.standard_normal((20, 2))
    n /= np.linalg.norm(n, axis=1, keepdims=True)
    fn, _ = lax_friedrichs_flux(u, u, n, GAMMA)
    f1, f2 = flux(u, GAMMA)
    exact = f1 * n[:, :1] + f2 * n[:, 1:2]
    assert np.max(np.abs(fn - exact)) < 1e-14


def test_flux_jacobians_match_finite_differences():
    u = random_states(4, seed=3)
    A1, A2 = flux_jacobians(u, GAMMA)
    eps = 1e-7
    for c in range(4):
        du = np.zeros(4)
        du[c] = eps
        f1p, f2p = flux(u + du, GAMMA)
        f1m, f2m = flux(u - du, GAMMA)
        assert np.max(np.abs((f1p - f1m) / (2 * eps) - A1[..., c])) < 1e-6
        assert np.max(np.abs((f2p - f2m) / (2 * eps) - A2[..., c])) < 1e-6


def test_wave_speed_positive_and_directional():
    u = random_states(6, seed=4)
    n = np.tile([1.0, 0.0], (6, 1))
    s = max_wave_speed(u, n, GAMMA)
    rho, vx, vy, p = primitive(u, GAMMA)
    assert np.allclose(s, np.abs(vx) + np.sqrt(GAMMA * p / rho))


def test_vortex_farfield_is_freestream():
    pr = EulerParams()
    u = vortex_exact(pr, np.array([1e3]), np.array([1e3]), 0.0)
    ub = pr.u_inf * np.cos(pr.theta)
    vb = pr.u_inf * np.sin(pr.theta)
    rho, vx, vy, p = primitive(u, pr.gamma)
    assert rho[0] == pytest.approx(pr.rho_inf, rel=1e-12)
    assert vx[0] == pytest.approx(ub, rel=1e-12)
    assert vy[0] == pytest.approx(vb, rel=1e-12)
    assert p[0] == pytest.approx(pr.p_inf, rel=1e-12)


def test_vortex_center_depression():
    pr = EulerParams()
    u = vortex_exact(pr, np.array([pr.x0]), np.array([pr.y0]), 0.0)
    rho = u[0, 0]
    core = 1.0 - pr.epsilon ** 2 * (pr.gamma - 1.0) * pr.mach ** 2 \
        / (8.0 * np.pi ** 2) * np.exp(1.0 / pr.r_c ** 2)
    assert rho == pytest.approx(pr.rho_inf * core ** (1.0 / (pr.gamma - 1.0)),
                                rel=1e-12)
    assert rho < pr.rho_inf


def test_vortex_advects_with_freestream():
    pr = EulerParams()
    t = 0.8
    shift = pr.u_inf * t * np.array([np.cos(pr.theta), np.sin(pr.theta)])
    x = np.linspace(3.0, 7.0, 9)
    y = np.linspace(4.0, 6.0, 9)
    u0 = vortex_exact(pr, x, y, 0.0)
    ut = vortex_exact(pr, x + shift[0], y + shift[1], t)
    assert np.max(np.abs(ut - u0)) < 1e-12


def small_disc(p=1, eps=0.3):
    mesh = build_regular_mesh("square", 0.25, (0.0, 0.0, 1.0, 1.0),
                              boundary_tag="exact_state")
    params = EulerParams(x0=0.5, y0=0.5, epsilon=eps)
    space = DgSpace(mesh, p)
    return EulerDiscretization(mesh, space, params)


def test_freestream_preservation():
    disc = small_disc(p=2, eps=0.0)
    U = disc.project_exact(0.0)
    R, _ = disc.spatial_residual(U, 0.0)
    assert np.max(np.abs(R)) < 1e-10


def test_spatial_jacobian_matches_finite_differences():
    disc = small_disc(p=1)
    U = disc.project_exact(0.0)
    _, alphas = disc.spatial_residual(U, 0.0)
    A = disc.spatial_jacobian(U, 0.0, alphas).to_dense()
    eps = 1e-6
    scale = max(1.0, np.max(np.abs(A)))
    rng = np.random.default_rng(5)
    for j in rng.choice(disc.dim, size=12, replace=False):
        dU = np.zeros(disc.dim)
        dU[j] = eps
        Rp, _ = disc.spatial_residual(U + dU, 0.0, frozen_alphas=alphas)
        Rm, _ = disc.spatial_residual(U - dU, 0.0, frozen_alphas=alphas)
        col = (Rp - Rm) / (2 * eps)
        assert np.max(np.abs(col - A[:, j])) < 1e-6 * scale


def test_boundary_tag_guard():
    mesh = build_regular_mesh("square", 0.25, (0.0, 0.0, 1.0, 1.0),
                              boundary_tag="inflow_outflow")
    disc = EulerDiscretization(mesh, DgSpace(mesh, 0),
                               EulerParams(x0=0.5, y0=0.5))
    U = disc.project_exact(0.0)
    with pytest.raises(EulerError):
        disc.spatial_residual(U, 0.0)


def test_newton_jacobian_reuses_the_residual_alphas(monkeypatch):
    # newton_solve asks for the Jacobian at the state whose residual it has
    # just evaluated, so no residual is evaluated twice
    calls = []
    residual = EulerDiscretization.spatial_residual

    def counting(self, U, t_bc, frozen_alphas=None):
        calls.append(U)
        return residual(self, U, t_bc, frozen_alphas)

    monkeypatch.setattr(EulerDiscretization, "spatial_residual", counting)
    mesh = experiments.euler_mesh("rtri")
    _, n_newton, _ = experiments.run_euler_case(
        mesh, 0, experiments.euler_timestep("k2"), ("gmres+ilu0",))
    assert n_newton >= 2
    assert len(calls) == n_newton + 1
