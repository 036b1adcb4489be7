"""Advection assembly: upwinding, conservation, and dissipativity."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polydg.basis import DgSpace
from polydg.blocklinalg import (BlockSparseMatrix, block_jacobi_solve,
                                factor_block_jacobi, gmres)
from polydg.discretization import (AssemblyError, assemble_advection,
                                   assemble_mass, gaussian_pulse,
                                   rotating_velocity)
from polydg.experiments import advection_timestep
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
    unew, _, ok = block_jacobi_solve(A, M.matvec(u), tol=1e-14)
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
        _, n_jacobi, ok = block_jacobi_solve(A, b, tol=1e-10)
        assert ok
        _, n_gmres, ok = gmres(A, b, preconditioner=factor_block_jacobi(A),
                               restart=n_jacobi, tol=1e-10)
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


def test_non_finite_velocity_names_the_cell():
    # 2 x 2 squares; the velocity is infinite right of x = 0.5, first on
    # cell 1
    mesh, space = setup(area=0.25, periodic=False)
    with pytest.raises(AssemblyError, match="velocity not finite on cell 1$"):
        assemble_advection(space, lambda x, y: (
            np.where(x > 0.5, np.inf, 1.0), np.zeros_like(y)))
