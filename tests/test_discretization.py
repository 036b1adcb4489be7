"""Advection assembly: upwinding, conservation, and dissipativity."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polydg import blocklinalg
from polydg.basis import DgSpace
from polydg.blocklinalg import (BlockSparseMatrix, block_jacobi_solve,
                                factor_block_jacobi, gmres)
from polydg.discretization import (AssemblyError, assemble_advection,
                                   assemble_mass, gaussian_pulse,
                                   rotating_velocity)
from polydg.euler import EulerParams, vortex_exact
from polydg.experiments import advection_mesh, advection_timestep
from polydg.mesh import BOUNDARY, build_random_mesh_pair, build_regular_mesh
from polydg.timestepping import backward_euler_system


def setup(pattern="square", p=1, area=0.0625, periodic=True):
    mesh = build_regular_mesh(pattern, area, (0.0, 0.0, 1.0, 1.0),
                              periodic=periodic)
    space = DgSpace(mesh, p)
    return mesh, space


def test_p0_constant_velocity_is_upwind_fv():
    # p = 0 with velocity (1, 0) on a periodic square grid reduces to the
    # classic first-order upwind scheme: h u_i - h u_{i-1} row structure
    mesh, space = setup(p=0)
    _, L = assemble_advection(space, (1.0, 0.0))
    # under the orthonormal (1/sqrt(area)) basis the row scale is
    # edge_length / area; the stencil is +s diag, -s left neighbor
    s = 0.25 / 0.0625
    dense = L.to_dense()
    for i in range(mesh.n_cells):
        row = dense[i]
        assert row[i] == pytest.approx(s, rel=1e-12)
        assert np.sort(row)[0] == pytest.approx(-s, rel=1e-12)
        assert np.abs(row).sum() == pytest.approx(2 * s, rel=1e-12)


@pytest.mark.parametrize("pattern", ["hexagon", "square", "rtri", "etri"])
def test_divergence_free_velocity_annihilates_constants(pattern):
    # cells with only interior edges: the per-cell weak residual of a
    # constant reduces to the integral of v div(beta) = 0
    mesh = build_regular_mesh(pattern, 0.01, (0.0, 0.0, 1.0, 1.0))
    space = DgSpace(mesh, 2)
    _, L = assemble_advection(space, rotating_velocity)
    c = space.project(lambda x, y: np.ones_like(x)).ravel()
    r = L.matvec(c).reshape(mesh.n_cells, space.n_loc)
    touches_boundary = np.zeros(mesh.n_cells, bool)
    touches_boundary[mesh.edge_left[mesh.edge_right == BOUNDARY]] = True
    interior = ~touches_boundary
    assert interior.sum() > 0
    assert np.max(np.abs(r[interior])) < 1e-12


def test_periodic_step_conserves_mass():
    mesh, space = setup(p=1)
    M, L = assemble_advection(space, rotating_velocity)
    u = space.project(gaussian_pulse()).ravel()
    k = 0.05
    A = backward_euler_system(M, L, k)
    ones = space.project(lambda x, y: np.ones_like(x)).ravel()
    unew, _, _, ok = block_jacobi_solve(A, M.matvec(u), tol=1e-14)
    assert ok
    mass_old = ones @ M.matvec(u)
    mass_new = ones @ M.matvec(unew)
    assert mass_new == pytest.approx(mass_old, rel=1e-11)


def test_upwind_operator_is_dissipative():
    # eigenvalues of the generator -M^{-1} L lie in the closed left half
    # plane: the semi-discrete scheme cannot grow
    mesh, space = setup(p=1, area=0.25)
    M, L = assemble_advection(space, rotating_velocity)
    G = -np.linalg.solve(M.to_dense(), L.to_dense())
    eigs = np.linalg.eigvals(G)
    assert np.max(eigs.real) < 1e-10


def test_gaussian_projection_peak():
    mesh, space = setup(p=3, area=0.0025, periodic=False)
    u = space.project(gaussian_pulse()).ravel()
    c = np.argmin(np.linalg.norm(mesh.cell_centroids - [0.35, 0.5], axis=1))
    val = space.evaluate(u.reshape(mesh.n_cells, space.n_loc), c,
                         np.array([[0.35, 0.5]]))[0]
    assert val == pytest.approx(1.0, abs=5e-3)


def test_mass_matrix_is_identity_for_orthonormal_basis():
    mesh, space = setup(p=2, area=0.25)
    M = assemble_mass(space)
    assert np.max(np.abs(M.to_dense() - np.eye(M.dim))) < 1e-10


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2 ** 16), p=st.integers(0, 2),
       jitter=st.floats(0.1, 0.45), k_label=st.sampled_from(["k1", "k2", "k3"]))
def test_gmres_jacobi_never_needs_more_steps_than_block_jacobi(seed, p, jitter,
                                                              k_label):
    # right-preconditioned GMRES from x0 = 0 minimizes the true residual over
    # a Krylov space that holds every block-Jacobi iterate, so while its
    # count is at most the restart length it cannot exceed block Jacobi's
    h = 0.2
    for mesh in build_random_mesh_pair(h, jitter * h, seed=seed):
        space = DgSpace(mesh, p)
        M, L = assemble_advection(space, rotating_velocity)
        A = backward_euler_system(M, L, advection_timestep(k_label, h))
        b = M.matvec(space.project(gaussian_pulse()).ravel())
        _, n_jacobi, _, ok = block_jacobi_solve(A, b, tol=1e-10)
        assert ok
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(blocklinalg, "RESTART", n_jacobi)
            _, n_gmres, _, ok = gmres(A, b,
                                   preconditioner=factor_block_jacobi(A),
                                   tol=1e-10)
        assert ok
        assert n_gmres <= n_jacobi


# -- batched assembly against the per-cell / per-edge loop it replaced ------

def ref_assemble_advection(mesh, space, beta):
    """The dict-based assembly loop kept as the reference: (M, L)."""
    mass = {}
    for c, basis in enumerate(space.bases):
        B = basis.eval(basis.quadrature.nodes)
        mass[(c, c)] = np.einsum("q,qi,qj->ij", basis.quadrature.weights, B, B)
    blocks = {}

    def add(i, j, blk):
        key = (i, j)
        if key in blocks:
            blocks[key] += blk
        else:
            blocks[key] = blk.copy()

    for c, basis in enumerate(space.bases):
        q = basis.quadrature
        bx, by = beta(q.nodes[:, 0], q.nodes[:, 1])
        B = basis.eval(q.nodes)
        G = basis.eval_grad(q.nodes)
        bdotg = bx[:, None] * G[:, :, 0] + by[:, None] * G[:, :, 1]
        add(c, c, -np.einsum("q,qi,ql->il", q.weights, bdotg, B))
    for ei, (left, right, normal, shift) in enumerate(zip(
            mesh.edge_left, mesh.edge_right, mesh.edge_normals,
            mesh.edge_shifts)):
        q = space.edge_quads[ei]
        bx, by = beta(q.nodes[:, 0], q.nodes[:, 1])
        s = bx * normal[0] + by * normal[1]
        wl = space.bases[left].eval(q.nodes)
        out_mask = s >= 0.0
        w_out = q.weights * np.where(out_mask, s, 0.0)
        w_in = q.weights * np.where(out_mask, 0.0, s)
        if right == BOUNDARY:
            add(left, left, np.einsum("q,qi,ql->il", w_out, wl, wl))
            continue
        wr = space.bases[right].eval(q.nodes - shift)
        add(left, left, np.einsum("q,qi,ql->il", w_out, wl, wl))
        add(left, right, np.einsum("q,qi,ql->il", w_in, wl, wr))
        add(right, left, -np.einsum("q,qi,ql->il", w_out, wr, wl))
        add(right, right, -np.einsum("q,qi,ql->il", w_in, wr, wr))
    n, b = mesh.n_cells, space.n_loc
    return (BlockSparseMatrix.from_block_dict(n, b, mass),
            BlockSparseMatrix.from_block_dict(n, b, blocks))


# element areas at which each pattern tiles the periodic unit square
PERIODIC_AREA = {"hexagon": 0.021, "square": 0.02, "rtri": 0.02,
                 "etri": 0.016}


@pytest.mark.parametrize("velocity", ["constant", "rotating"])
@pytest.mark.parametrize("periodic", [True, False])
@pytest.mark.parametrize("pattern", ["hexagon", "square", "rtri", "etri"])
def test_batched_assembly_matches_per_edge_loop(pattern, periodic, velocity):
    mesh = build_regular_mesh(pattern, PERIODIC_AREA[pattern],
                              (0.0, 0.0, 1.0, 1.0), periodic=periodic)
    if velocity == "rotating":
        arg = beta = rotating_velocity
    else:
        arg = (0.6, -0.8)
        beta = lambda x, y: (np.full_like(x, 0.6), np.full_like(x, -0.8))
    for p in range(4):
        space = DgSpace(mesh, p)
        M, L = assemble_advection(space, arg)
        for got, ref in zip((M, L), ref_assemble_advection(mesh, space, beta)):
            assert np.array_equal(got.indptr, ref.indptr)
            assert np.array_equal(got.indices, ref.indices)
            err = np.max(np.abs(got.blocks - ref.blocks))
            assert err <= 1e-13 * np.max(np.abs(ref.blocks))


# -- the groups' basis values against re-evaluating them on every pass -----

def reevaluated_operators(space, beta, fn):
    """M, L and the projection of fn, with the basis values at the volume
    nodes re-evaluated through space.values on every pass and the terms
    of L gathered in lists and concatenated."""
    def products(w, a, b):
        return (a * w[..., None]).transpose(0, 2, 1) @ b

    mesh = space.mesh
    n, nl = space.n_cells, space.n_loc
    mass = np.empty((n, nl, nl))
    proj = None
    rows, cols, blocks = [], [], []
    for cells, nodes, weights, _values in space.groups:
        B = space.values(cells, nodes)
        mass[cells] = products(weights, B, B)
        vals = fn(nodes[..., 0], nodes[..., 1])
        pc = np.einsum("cq,cq...,cqi->c...i", weights, vals,
                       space.values(cells, nodes))
        if proj is None:
            proj = np.empty((n,) + pc.shape[1:])
        proj[cells] = pc
        bx, by = beta(nodes[..., 0], nodes[..., 1])
        gx, gy = space.gradients(cells, nodes)
        bdotg = bx[..., None] * gx + by[..., None] * gy
        rows.append(cells)
        cols.append(cells)
        blocks.append(-products(weights, bdotg, space.values(cells, nodes)))
    left, right = mesh.edge_left, mesh.edge_right
    nodes, weights = space.edge_nodes, space.edge_weights
    bx, by = beta(nodes[..., 0], nodes[..., 1])
    s = bx * mesh.edge_normals[:, :1] + by * mesh.edge_normals[:, 1:]
    out_mask = s >= 0.0
    w_out = weights * np.where(out_mask, s, 0.0)
    w_in = weights * np.where(out_mask, 0.0, s)
    wl = space.values(left, nodes)
    rows.append(left)
    cols.append(left)
    blocks.append(products(w_out, wl, wl))
    inner = np.flatnonzero(right != BOUNDARY)
    li, ri = left[inner], right[inner]
    wl, w_out, w_in = wl[inner], w_out[inner], w_in[inner]
    wr = space.values(ri, nodes[inner] - mesh.edge_shifts[inner][:, None, :])
    rows += [li, ri, ri]
    cols += [ri, li, ri]
    blocks += [products(w_in, wl, wr), -products(w_out, wr, wl),
               -products(w_in, wr, wr)]
    diag = np.arange(n)
    return (BlockSparseMatrix.from_coo(n, nl, diag, diag, mass),
            BlockSparseMatrix.from_coo(n, nl, np.concatenate(rows),
                                       np.concatenate(cols),
                                       np.concatenate(blocks)),
            proj)


# the regular patterns with zero-inflow and periodic boundaries, and the
# Delaunay and Voronoi meshes of one random pair (several vertex counts,
# so several groups)
MESH_CASES = ([(kind, periodic) for kind in PERIODIC_AREA
               for periodic in (False, True)]
              + [("delaunay", None), ("voronoi", None)])


def case_mesh(kind, periodic):
    if periodic is None:
        return build_random_mesh_pair(0.2)[kind == "voronoi"]
    return build_regular_mesh(kind, PERIODIC_AREA[kind],
                              (0.0, 0.0, 1.0, 1.0), periodic=periodic)


@pytest.mark.parametrize("kind, periodic", MESH_CASES)
def test_groups_carry_the_basis_values_at_their_nodes(kind, periodic):
    mesh = case_mesh(kind, periodic)
    for p in range(4):
        space = DgSpace(mesh, p)
        assert sum(len(g[0]) for g in space.groups) == mesh.n_cells
        for cells, nodes, _weights, values in space.groups:
            assert values.shape == nodes.shape[:2] + (space.n_loc,)
            assert np.array_equal(values, space.values(cells, nodes))


@pytest.mark.parametrize("kind, periodic", MESH_CASES)
def test_carried_values_assemble_as_reevaluated(kind, periodic):
    mesh = case_mesh(kind, periodic)
    params = EulerParams(x0=0.5, y0=0.5)
    vortex = lambda x, y: vortex_exact(params, x, y, 0.0)
    for p in range(4):
        space = DgSpace(mesh, p)
        M, L = assemble_advection(space, rotating_velocity)
        ref_M, ref_L, ref_u = reevaluated_operators(space, rotating_velocity,
                                                     gaussian_pulse())
        for got, ref in ((M, ref_M), (L, ref_L)):
            assert np.array_equal(got.indptr, ref.indptr)
            assert np.array_equal(got.indices, ref.indices)
            assert np.array_equal(got.blocks, ref.blocks)
        assert np.array_equal(assemble_mass(space).blocks, ref_M.blocks)
        assert np.array_equal(space.project(gaussian_pulse()), ref_u)
        # a state with component axes, as the Euler set-up projects
        assert np.array_equal(space.project(vortex),
                              reevaluated_operators(space, rotating_velocity,
                                                    vortex)[2])


def test_cell_and_edge_views_are_built_on_first_read():
    mesh = case_mesh("voronoi", None)
    space = DgSpace(mesh, 2)
    assemble_advection(space, rotating_velocity)
    u = space.project(gaussian_pulse())
    point = mesh.cell_vertices(3).mean(axis=0)
    x = space.evaluate(u, 3, point)
    assert "bases" not in vars(space)
    assert "edge_quads" not in vars(space)
    # evaluate() is the cell's own view, evaluated
    assert np.array_equal(x, space.bases[3].eval(point) @ u[3])
    assert space.bases is space.bases
    assert len(space.bases) == mesh.n_cells
    assert len(space.edge_quads) == len(mesh.edge_left)
    assert "bases" in vars(space) and "edge_quads" in vars(space)


def test_non_finite_velocity_names_the_cell():
    # 2 x 2 squares; the velocity is infinite right of x = 0.5, first on
    # cell 1
    mesh, space = setup(area=0.25, periodic=False)
    with pytest.raises(AssemblyError, match="velocity not finite on cell 1$"):
        assemble_advection(space, lambda x, y: (
            np.where(x > 0.5, np.inf, 1.0), np.zeros_like(y)))


@pytest.mark.parametrize("velocity", [
    # infinite on the inner edges at x = 0.5 only, where no volume node
    # lies; unchecked, 8 of L's 64 blocks come out non-finite
    lambda x, y: (1.0 / (x - 0.5), np.zeros_like(y)),
    # infinite on the boundary x = 0 only
    lambda x, y: (1.0 / x, np.zeros_like(y))], ids=["x=0.5", "x=0"])
def test_non_finite_velocity_names_the_edge(velocity):
    space = DgSpace(advection_mesh("square", 0.25), 1)
    with np.errstate(divide="ignore"):
        bx, by = velocity(space.edge_nodes[..., 0], space.edge_nodes[..., 1])
        first = np.flatnonzero(~np.isfinite(bx).all(axis=1))[0]
        with pytest.raises(AssemblyError,
                           match=f"velocity not finite on edge {first}$"):
            assemble_advection(space, velocity)
