"""DG operator assembly for linear advection: mass matrix M and spatial
operator L (volume + upwind face terms) on the mesh of a `basis.DgSpace`.

Assembly is batched: each term is computed for a group of cells (see
`basis.CellBases`) or for all edges at once and emitted as (row, col, block)
arrays, which `BlockSparseMatrix.from_coo` sums into block-CSR.
"""

import numpy as np

from .basis import quadrature_products
from .blocklinalg import BlockSparseMatrix


class AssemblyError(Exception):
    pass


def _velocity_fn(velocity):
    if callable(velocity):
        return velocity
    a, b = float(velocity[0]), float(velocity[1])
    return lambda x, y: (np.full_like(x, a), np.full_like(x, b))


def _finite(bx, by):
    """Per row of nodes: is the velocity finite at all of them."""
    return np.all(np.isfinite(bx) & np.isfinite(by), axis=1)


def _beta_dot_grad(space, beta, cells, nodes):
    """beta . grad of the basis functions of cells (k,) at their nodes
    (k, q, 2): (k, q, n_loc), formed in the gradients' arrays. Its other
    temporaries are freed on return, before the next group's are made."""
    bx, by = beta(nodes[..., 0], nodes[..., 1])
    bad = ~_finite(bx, by)
    if bad.any():
        raise AssemblyError(f"velocity not finite on cell {cells[bad][0]}")
    gx, gy = space.gradients(cells, nodes)
    gx *= bx[..., None]
    gy *= by[..., None]
    gx += gy
    return gx


def assemble_mass(space):
    """Block-diagonal mass matrix (identity blocks under the orthonormal basis,
    assembled by quadrature for consistency)."""
    blocks = np.empty((space.n_cells, space.n_loc, space.n_loc))
    for cells, _nodes, weights, B in space.groups:
        blocks[cells] = quadrature_products(B * weights[..., None], B)
    diag = np.arange(space.n_cells)
    return BlockSparseMatrix.from_coo(space.n_cells, space.n_loc, diag, diag,
                                      blocks)


def assemble_advection(space, velocity):
    """Assemble (M, L) for u_t + div(beta u) = 0 with pointwise upwind flux.

    velocity: constant (a, b) pair or a callable (x, y) -> (bx, by), finite
    at every volume and edge quadrature node.
    Boundary edges get a zero exterior state on the inflow part; periodic
    edges couple to the shifted neighbor.
    """
    mesh = space.mesh
    beta = _velocity_fn(velocity)
    left, ni = mesh.edge_left, mesh.n_inner
    # the terms in the order they are summed: the volume term of each cell,
    # then LL of each edge, then LR, RL and RR of each inner edge
    n, nl = mesh.n_cells, space.n_loc
    blocks = np.empty((n + len(left) + 3 * ni, nl, nl))

    # volume terms: - int (beta . grad v_i) u_l
    for cells, nodes, weights, B in space.groups:
        blocks[cells] = -quadrature_products(
            _beta_dot_grad(space, beta, cells, nodes) * weights[..., None], B)

    # face terms, both sides per edge
    normals, shifts = mesh.edge_normals, mesh.edge_shifts
    nodes, weights = space.edge_nodes, space.edge_weights
    bx, by = beta(nodes[..., 0], nodes[..., 1])
    bad = ~_finite(bx, by)
    if bad.any():
        raise AssemblyError(
            f"velocity not finite on edge {np.flatnonzero(bad)[0]}")
    s = bx * normals[:, :1] + by * normals[:, 1:]
    out_mask = s >= 0.0
    w_out = weights * np.where(out_mask, s, 0.0)
    w_in = weights * np.where(out_mask, 0.0, s)
    wl = space.values(left, nodes)
    # every edge: the interior trace leaves through the outflow part; on
    # boundary edges the inflow part sees the exterior state 0
    quadrature_products(wl * w_out[..., None], wl, out=blocks[n:n + len(left)])
    li, ri = left[:ni], mesh.edge_right[:ni]
    wl, w_out, w_in = wl[:ni], w_out[:ni], w_in[:ni]
    wr = space.values(ri, nodes[:ni] - shifts[:ni, None, :])
    # inflow seen from the left cell (normal n), then both parts seen from
    # the right cell (normal -n), where the flux contributes with -s
    lr, rl, rr = blocks[n + len(left):].reshape(3, ni, nl, nl)
    quadrature_products(wl * w_in[..., None], wr, out=lr)
    quadrature_products(wr * w_out[..., None], wl, out=rl)
    quadrature_products(wr * w_in[..., None], wr, out=rr)
    np.negative(rl, out=rl)
    np.negative(rr, out=rr)

    rows = np.concatenate((np.arange(n), left, li, ri, ri))
    cols = np.concatenate((np.arange(n), left, ri, li, ri))
    M = assemble_mass(space)
    L = BlockSparseMatrix.from_coo(n, nl, rows, cols, blocks)
    return M, L


def gaussian_pulse():
    return lambda x, y: np.exp(-150.0 * ((x - 0.35) ** 2 + (y - 0.5) ** 2))


def rotating_velocity(x, y):
    """The variable velocity field (2y - 1, -2x + 1) on the unit square."""
    return 2.0 * y - 1.0, -2.0 * x + 1.0
