"""DG operator assembly for linear advection: mass matrix M and spatial
operator L (volume + upwind face terms) on the mesh of a `basis.DgSpace`.

Assembly is batched: each term is computed for a group of cells (see
`basis.CellBases`) or for all edges at once and emitted as (row, col, block)
arrays, which `BlockSparseMatrix.from_coo` sums into block-CSR.
"""

import numpy as np

from .blocklinalg import BlockSparseMatrix
from .mesh import BOUNDARY


class AssemblyError(Exception):
    pass


def _velocity_fn(velocity):
    if callable(velocity):
        return velocity
    a, b = float(velocity[0]), float(velocity[1])
    return lambda x, y: (np.full_like(x, a), np.full_like(x, b))


def _weighted_products(w, a, b):
    """sum_q w[k, q] a[k, q, i] b[k, q, l] for each k: (k, i, l)."""
    return (a * w[..., None]).transpose(0, 2, 1) @ b


def assemble_mass(space):
    """Block-diagonal mass matrix (identity blocks under the orthonormal basis,
    assembled by quadrature for consistency)."""
    blocks = np.empty((space.n_cells, space.n_loc, space.n_loc))
    for cells, nodes, weights in space.groups:
        B = space.values(cells, nodes)
        blocks[cells] = _weighted_products(weights, B, B)
    diag = np.arange(space.n_cells)
    return BlockSparseMatrix.from_coo(space.n_cells, space.n_loc, diag, diag,
                                      blocks)


def assemble_advection(space, velocity):
    """Assemble (M, L) for u_t + div(beta u) = 0 with pointwise upwind flux.

    velocity: constant (a, b) pair or a callable (x, y) -> (bx, by).
    Boundary edges get a zero exterior state on the inflow part; periodic
    edges couple to the shifted neighbor.
    """
    mesh = space.mesh
    beta = _velocity_fn(velocity)
    rows, cols, blocks = [], [], []

    # volume terms: - int (beta . grad v_i) u_l
    for cells, nodes, weights in space.groups:
        bx, by = beta(nodes[..., 0], nodes[..., 1])
        bad = ~np.all(np.isfinite(bx) & np.isfinite(by), axis=1)
        if bad.any():
            raise AssemblyError(f"velocity not finite on cell {cells[bad][0]}")
        gx, gy = space.gradients(cells, nodes)
        bdotg = bx[..., None] * gx + by[..., None] * gy
        rows.append(cells)
        cols.append(cells)
        blocks.append(-_weighted_products(weights, bdotg,
                                          space.values(cells, nodes)))

    # face terms, both sides per edge
    left, right = mesh.edge_left, mesh.edge_right
    normals, shifts = mesh.edge_normals, mesh.edge_shifts
    nodes, weights = space.edge_nodes, space.edge_weights
    bx, by = beta(nodes[..., 0], nodes[..., 1])
    s = bx * normals[:, :1] + by * normals[:, 1:]
    out_mask = s >= 0.0
    w_out = weights * np.where(out_mask, s, 0.0)
    w_in = weights * np.where(out_mask, 0.0, s)
    wl = space.values(left, nodes)
    # every edge: the interior trace leaves through the outflow part; on
    # boundary edges the inflow part sees the exterior state 0
    rows.append(left)
    cols.append(left)
    blocks.append(_weighted_products(w_out, wl, wl))
    inner = np.flatnonzero(right != BOUNDARY)
    li, ri = left[inner], right[inner]
    wl, w_out, w_in = wl[inner], w_out[inner], w_in[inner]
    wr = space.values(ri, nodes[inner] - shifts[inner][:, None, :])
    # inflow seen from the left cell (normal n), then both parts seen from
    # the right cell (normal -n), where the flux contributes with -s
    rows += [li, ri, ri]
    cols += [ri, li, ri]
    blocks += [_weighted_products(w_in, wl, wr),
               -_weighted_products(w_out, wr, wl),
               -_weighted_products(w_in, wr, wr)]

    M = assemble_mass(space)
    L = BlockSparseMatrix.from_coo(mesh.n_cells, space.n_loc,
                                   np.concatenate(rows), np.concatenate(cols),
                                   np.concatenate(blocks))
    return M, L


def gaussian_pulse(x0=0.35, y0=0.5, width=150.0):
    return lambda x, y: np.exp(-width * ((x - x0) ** 2 + (y - y0) ** 2))


def rotating_velocity(x, y):
    """The variable velocity field (2y - 1, -2x + 1) on the unit square."""
    return 2.0 * y - 1.0, -2.0 * x + 1.0
