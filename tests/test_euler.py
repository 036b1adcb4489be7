"""Compressible Euler discretization: fluxes, vortex state, Jacobian."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polydg import experiments
from polydg.basis import DgSpace
from polydg.blocklinalg import BlockSparseMatrix
from polydg.euler import (N_COMP, EulerDiscretization, EulerError,
                          EulerParams, _block_sums, flux, flux_jacobians,
                          lax_friedrichs_flux, max_wave_speed, primitive,
                          vortex_exact)
from polydg.mesh import BOUNDARY, build_random_mesh_pair, build_regular_mesh

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


def test_wave_speed_rejects_non_positive_pressure():
    u = random_states(3)
    u[2, 3] = 0.0   # no internal energy: negative pressure
    with pytest.raises(EulerError, match="non-positive pressure"):
        max_wave_speed(u, np.array([1.0, 0.0]), GAMMA)


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


def test_params_reject_a_vortex_core_without_density():
    # at r_c = 0.2 the core factor 1 - 1.1e-4 exp((1 - r^2) / r_c^2) is
    # negative within r = 0.8 of the centre, where the density is NaN
    with pytest.raises(EulerError, match=r"epsilon=0\.3, mach=0\.5, "
                                         r"gamma=1\.4, r_c=0\.2$"):
        EulerParams(x0=0.5, y0=0.5, r_c=0.2)


def small_disc(p=1, eps=0.3):
    mesh = build_regular_mesh("square", 0.25, (0.0, 0.0, 1.0, 1.0),
                              boundary_tag="exact_state")
    params = EulerParams(x0=0.5, y0=0.5, epsilon=eps)
    space = DgSpace(mesh, p)
    return EulerDiscretization(space, params)


def test_freestream_preservation():
    disc = small_disc(p=2, eps=0.0)
    U = disc.project_exact(0.0)
    R, _ = disc.spatial_residual(U, 0.0)
    assert np.max(np.abs(R)) < 1e-10


def test_spatial_jacobian_matches_finite_differences():
    disc = small_disc(p=1)
    U = disc.project_exact(0.0)
    _, alphas = disc.spatial_residual(U, 0.0)
    A = disc.spatial_jacobian(U, alphas).to_dense()
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


def test_boundary_tag_error_names_the_edge():
    mesh = build_regular_mesh("square", 0.25, (0.0, 0.0, 1.0, 1.0),
                              boundary_tag="exact_state")
    disc = EulerDiscretization(DgSpace(mesh, 1), EulerParams(x0=0.5, y0=0.5))
    U = disc.project_exact(0.0)
    _, alphas = disc.spatial_residual(U, 0.0)
    first = np.flatnonzero(mesh.edge_right == BOUNDARY)[0]
    mesh.boundary_tag = "inflow_outflow"
    with pytest.raises(EulerError,
                       match=f"'inflow_outflow' on boundary edge {first} "):
        disc.spatial_residual(U, 0.0)
    with pytest.raises(EulerError, match=f"boundary edge {first} "):
        disc.spatial_jacobian(U, alphas)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_state_names_the_cell(bad):
    # NaN <= 0 is False, so the density check alone would let NaN through
    disc = small_disc(p=1)
    U = disc.project_exact(0.0)
    _, alphas = disc.spatial_residual(U, 0.0)
    U[2 * disc.b + 7] = bad
    with pytest.raises(EulerError, match="non-finite coefficient on cell 2$"):
        disc.spatial_residual(U, 0.0)
    with pytest.raises(EulerError, match="on cell 2$"):
        disc.spatial_jacobian(U, alphas)


def test_boundary_tag_guard():
    mesh = build_regular_mesh("square", 0.25, (0.0, 0.0, 1.0, 1.0),
                              boundary_tag="inflow_outflow")
    disc = EulerDiscretization(DgSpace(mesh, 0), EulerParams(x0=0.5, y0=0.5))
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


def test_solver_totals_are_sums_of_newtons_per_step_record(monkeypatch):
    # run_euler_case takes each configuration's total and converged flag
    # from the per-step records newton_solve keeps in linear_iters
    results = []
    newton_solve = experiments.newton_solve

    def recording(*args, **kwargs):
        results.append(newton_solve(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(experiments, "newton_solve", recording)
    names = ("jacobi", "gmres+jacobi", "gmres+ilu0")
    counts, n_newton, _ = experiments.run_euler_case(
        experiments.euler_mesh("rtri"), 0, experiments.euler_timestep("k2"),
        names)
    (res,) = results
    assert len(res.linear_iters) == n_newton == 4
    for name in names:
        steps = [step[name] for step in res.linear_iters]
        assert counts[name] == (sum(it for it, _ in steps),
                                all(ok for _, ok in steps))
    # the benchmark's smoke pins
    assert [counts[name] for name in names] == [(95, True), (87, True),
                                               (36, True)]


def test_unknown_solver_name_fails_before_setup(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("set-up ran")

    for name in ("euler_mesh", "DgSpace", "EulerDiscretization"):
        monkeypatch.setattr(experiments, name, fail)
    with pytest.raises(experiments.ExperimentError,
                       match="unknown solver configuration 'gmres'"):
        experiments.run_euler_vortex(("square",), (0,), ("k1",), ("gmres",))
    with pytest.raises(experiments.ExperimentError,
                       match="unknown solver configuration 'ilu0'"):
        experiments.run_euler_case(None, 0, 0.03, ("gmres+ilu0", "ilu0"))


def test_vortex_counts_do_not_drift():
    # the benchmark's pinned counts; the acceptance tolerance (15 %) would
    # hide a drift of one iteration
    report = experiments.run_euler_vortex(
        ("rtri",), (2,), ("k2",), ("jacobi", "gmres+jacobi", "gmres+ilu0"))
    assert [r["iterations"] for r in report.rows] == [144, 101, 30]
    assert [r["newton_iters"] for r in report.rows] == [3, 3, 3]
    assert report.all_converged


@pytest.mark.parametrize("k", [0, 3])
def test_block_sums_contract_the_nodes(k):
    # k = 0: the boundary edges of a mesh that has none, as a periodic one
    rng = np.random.default_rng(k)
    nq, na, nc = 5, 3, 6
    w, a, D, c = (rng.random(shape) for shape in
                  ((k, nq), (k, nq, na), (k, nq, N_COMP, N_COMP), (k, nq, nc)))
    out = _block_sums(w, a, D, c)
    assert out.shape == (k, N_COMP * na, N_COMP * nc)
    ref = np.einsum("kq,kqi,kqrs,kql->krisl", w, a, D, c)
    assert_blocks_close(out, ref.reshape(out.shape))
    # written into a strided view, as the Jacobian writes each inner edge's
    # LL, LR, RL and RR into one buffer: the same bits
    buffer = np.full((k, 4, N_COMP * na, N_COMP * nc), np.nan)
    view = buffer[:, 2]
    assert _block_sums(w, a, D, c, out=view) is view
    assert np.array_equal(view, out)
    assert np.isnan(np.delete(buffer, 2, axis=1)).all()


# -- the per-cell, per-edge loop the batched assembly replaced -------------

def loop_tables(disc):
    """Per-cell (weights, values, gradients) and per-edge (quadrature, left
    values, right values or None)."""
    space = disc.space
    cell = [None] * disc.n_cells
    for cells, nodes, weights, _values in space.groups:
        B = space.values(cells, nodes)
        G = np.stack(space.gradients(cells, nodes), axis=-1)
        for c, data in zip(cells, zip(weights, B, G)):
            cell[c] = data
    mesh = disc.mesh
    left, right, shifts = mesh.edge_left, mesh.edge_right, mesh.edge_shifts
    wl = space.values(left, space.edge_nodes)
    inner = np.flatnonzero(right != BOUNDARY)
    shifted = space.edge_nodes[inner] - shifts[inner][:, None, :]
    wr = [None] * len(left)
    for ei, w in zip(inner, space.values(right[inner], shifted)):
        wr[ei] = w
    return cell, list(zip(space.edge_quads, wl, wr))


def loop_residual(disc, U, t_bc, frozen_alphas=None):
    gamma = disc.params.gamma
    cell, edge = loop_tables(disc)
    W = disc.coeffs(U)
    R = np.zeros((disc.n_cells, N_COMP, disc.n_loc))
    for c, (w, B, G) in enumerate(cell):
        f1, f2 = flux(np.einsum("ql,rl->qr", B, W[c]), gamma)
        R[c] -= np.einsum("q,qr,qi->ri", w, f1, G[:, :, 0])
        R[c] -= np.einsum("q,qr,qi->ri", w, f2, G[:, :, 1])
    alphas = []
    mesh = disc.mesh
    for ei, (left, right, normal) in enumerate(zip(
            mesh.edge_left, mesh.edge_right, mesh.edge_normals)):
        q, wl, wr = edge[ei]
        um = np.einsum("ql,rl->qr", wl, W[left])
        if right == BOUNDARY:
            up = vortex_exact(disc.params, q.nodes[:, 0], q.nodes[:, 1], t_bc)
        else:
            up = np.einsum("ql,rl->qr", wr, W[right])
        alpha = None if frozen_alphas is None else frozen_alphas[ei]
        normal = np.broadcast_to(normal, (len(q.weights), 2))
        fn, alpha = lax_friedrichs_flux(um, up, normal, gamma, alpha)
        alphas.append(alpha)
        R[left] += np.einsum("q,qr,qi->ri", q.weights, fn, wl)
        if right != BOUNDARY:
            R[right] -= np.einsum("q,qr,qi->ri", q.weights, fn, wr)
    return R.ravel(), alphas


def loop_jacobian(disc, U, alphas):
    gamma, b = disc.params.gamma, disc.b
    cell, edge = loop_tables(disc)
    W = disc.coeffs(U)
    blocks = {}

    def add(i, j, blk):
        if (i, j) in blocks:
            blocks[i, j] += blk
        else:
            blocks[i, j] = blk.copy()

    def block(w, a, D, c):
        return np.einsum("q,qi,qrs,ql->risl", w, a, D, c).reshape(b, b)

    for c, (w, B, G) in enumerate(cell):
        A1, A2 = flux_jacobians(np.einsum("ql,rl->qr", B, W[c]), gamma)
        add(c, c, -(block(w, G[:, :, 0], A1, B) + block(w, G[:, :, 1], A2, B)))
    I4 = np.eye(N_COMP)
    mesh = disc.mesh
    for ei, (left, right, normal) in enumerate(zip(
            mesh.edge_left, mesh.edge_right, mesh.edge_normals)):
        q, wl, wr = edge[ei]
        A1, A2 = flux_jacobians(np.einsum("ql,rl->qr", wl, W[left]), gamma)
        alpha = alphas[ei][:, None, None]
        dm = 0.5 * (A1 * normal[0] + A2 * normal[1] + alpha * I4)
        add(left, left, block(q.weights, wl, dm, wl))
        if right == BOUNDARY:
            continue
        A1, A2 = flux_jacobians(np.einsum("ql,rl->qr", wr, W[right]), gamma)
        dp = 0.5 * (A1 * normal[0] + A2 * normal[1] - alpha * I4)
        add(left, right, block(q.weights, wl, dp, wr))
        add(right, left, -block(q.weights, wr, dm, wl))
        add(right, right, -block(q.weights, wr, dp, wr))
    return BlockSparseMatrix.from_block_dict(disc.n_cells, b, blocks)


def assert_blocks_close(blocks, ref, rtol=1e-13):
    """Each block within rtol of its reference block, relative to that
    block's largest entry."""
    err = np.abs(blocks - ref).max(axis=(1, 2))
    scale = np.abs(ref).max(axis=(1, 2))
    assert np.all(err <= rtol * scale), (err / scale).max()


def assert_batched_equals_loop(mesh, p, seed=0):
    disc = EulerDiscretization(DgSpace(mesh, p), EulerParams(x0=0.5, y0=0.5))
    rng = np.random.default_rng(seed)
    U = disc.project_exact(0.0) * (1.0 + 1e-3 * rng.standard_normal(disc.dim))
    R, alphas = disc.spatial_residual(U, 0.1)
    R_loop, alphas_loop = loop_residual(disc, U, 0.1)
    assert np.array_equal(R, R_loop)
    assert np.array_equal(alphas, alphas_loop)
    # frozen coefficients, perturbed so that they differ from the computed
    frozen = alphas * (1.0 + 0.1 * rng.random(alphas.shape))
    assert np.array_equal(disc.spatial_residual(U, 0.1, frozen)[0],
                          loop_residual(disc, U, 0.1, list(frozen))[0])
    J, J_loop = disc.spatial_jacobian(U, frozen), \
        loop_jacobian(disc, U, list(frozen))
    assert np.array_equal(J.indptr, J_loop.indptr)
    assert np.array_equal(J.indices, J_loop.indices)
    # the Jacobian's node sums are BLAS contractions: within the 1e-13
    # bound for assembled operators of the loop's node-order sums, not
    # bitwise, and where the loop cancels to exact zeros BLAS may leave
    # ~1e-17
    assert_blocks_close(J.blocks, J_loop.blocks)
    cell, _ = loop_tables(disc)
    assert np.array_equal(disc.mass_blocks(), [
        np.kron(np.eye(N_COMP), np.einsum("q,qi,qj->ij", w, B, B))
        for w, B, _G in cell])


@pytest.mark.parametrize("p", [0, 1, 2, 3])
@pytest.mark.parametrize("kind", ["hexagon", "square", "rtri", "etri"])
def test_batched_assembly_equals_loop(kind, p):
    mesh = build_regular_mesh(kind, 0.05, (0.0, 0.0, 1.0, 1.0),
                              boundary_tag="exact_state")
    assert_batched_equals_loop(mesh, p, seed=p)


@pytest.mark.parametrize("domain", [(0.0, 0.0, 1.0, 1.0),
                                    (0.0, 0.0, 1.0, 0.5)])
def test_batched_assembly_equals_loop_periodic(domain):
    # 2 x 2 cells: each pair of neighbours shares two edges (duplicate
    # block keys); 2 x 1 cells: edges joining a cell to itself
    mesh = build_regular_mesh("square", 0.25, domain, periodic=True)
    assert mesh.is_periodic
    for p in range(4):
        assert_batched_equals_loop(mesh, p, seed=p)


# element areas at which each pattern tiles the periodic unit square
PERIODIC_AREA = {"hexagon": 0.021, "square": 0.02, "rtri": 0.02,
                 "etri": 0.016}


@pytest.mark.parametrize("kind", sorted(PERIODIC_AREA))
def test_batched_assembly_equals_loop_periodic_kinds(kind):
    mesh = build_regular_mesh(kind, PERIODIC_AREA[kind], (0.0, 0.0, 1.0, 1.0),
                              periodic=True)
    for p in range(4):
        assert_batched_equals_loop(mesh, p, seed=p)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2 ** 16), p=st.integers(0, 3),
       jitter=st.floats(0.1, 0.45))
def test_batched_assembly_equals_loop_on_random_meshes(seed, p, jitter):
    for mesh in build_random_mesh_pair(0.2, jitter * 0.2, seed=seed):
        mesh.boundary_tag = "exact_state"
        assert_batched_equals_loop(mesh, p, seed=seed)
