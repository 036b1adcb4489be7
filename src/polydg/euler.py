"""Compressible Euler equations in 2D: fluxes, Jacobians, the Lax-Friedrichs
numerical flux, the isentropic moving-vortex exact solution, and the DG
residual/Jacobian assembly used by the implicit solver."""

from dataclasses import dataclass, field

import numpy as np

from .basis import BATCH_CELLS, quadrature_products
from .blocklinalg import BlockSparseMatrix, sum_in_order
from .mesh import BOUNDARY

N_COMP = 4


class EulerError(Exception):
    pass


@dataclass
class EulerParams:
    gamma: float = 1.4
    mach: float = 0.5
    u_inf: float = 1.0
    rho_inf: float = 1.0
    theta: float = field(default_factory=lambda: float(np.arctan2(1.0, 2.0)))
    epsilon: float = 0.3
    r_c: float = 1.5
    x0: float = 5.0
    y0: float = 5.0

    def __post_init__(self):
        # the vortex's density and pressure are powers of the core factor
        # 1 - eps^2 (gamma - 1) M^2 / (8 pi^2) exp(f), and f = (1 - r^2) / r_c^2
        # is largest at the centre
        peak = (self.epsilon ** 2 * (self.gamma - 1.0) * self.mach ** 2
                / (8.0 * np.pi ** 2) * np.exp(1.0 / self.r_c ** 2))
        if not peak < 1.0:
            raise EulerError(
                f"vortex core factor 1 - {peak:.3g} at the centre is not "
                f"positive for epsilon={self.epsilon}, mach={self.mach}, "
                f"gamma={self.gamma}, r_c={self.r_c}")

    @property
    def p_inf(self):
        # from M = u / sqrt(gamma p / rho)
        return self.rho_inf * self.u_inf ** 2 / (self.gamma * self.mach ** 2)


def primitive(u, gamma):
    """(rho, vx, vy, p) from conservative variables; u has shape (..., 4)."""
    rho = u[..., 0]
    if np.any(rho <= 0.0):
        raise EulerError("non-positive density")
    vx = u[..., 1] / rho
    vy = u[..., 2] / rho
    p = (gamma - 1.0) * (u[..., 3] - 0.5 * rho * (vx ** 2 + vy ** 2))
    return rho, vx, vy, p


def flux(u, gamma):
    """Both flux components; returns arrays of shape (..., 4)."""
    rho, vx, vy, p = primitive(u, gamma)
    rhoH = u[..., 3] + p
    f1 = np.stack([rho * vx, rho * vx ** 2 + p, rho * vx * vy, rhoH * vx], axis=-1)
    f2 = np.stack([rho * vy, rho * vx * vy, rho * vy ** 2 + p, rhoH * vy], axis=-1)
    return f1, f2


def flux_jacobians(u, gamma):
    """Jacobians of the two flux components, shape (..., 4, 4)."""
    rho, vx, vy, p = primitive(u, gamma)
    E = u[..., 3] / rho
    g = gamma
    q2 = vx ** 2 + vy ** 2
    H = E + p / rho
    z = np.zeros_like(rho)
    o = np.ones_like(rho)
    A1 = np.stack([
        np.stack([z, o, z, z], axis=-1),
        np.stack([0.5 * (g - 1.0) * q2 - vx ** 2, (3.0 - g) * vx,
                  -(g - 1.0) * vy, (g - 1.0) * o], axis=-1),
        np.stack([-vx * vy, vy, vx, z], axis=-1),
        np.stack([vx * (0.5 * (g - 1.0) * q2 - H), H - (g - 1.0) * vx ** 2,
                  -(g - 1.0) * vx * vy, g * vx], axis=-1),
    ], axis=-2)
    A2 = np.stack([
        np.stack([z, z, o, z], axis=-1),
        np.stack([-vx * vy, vy, vx, z], axis=-1),
        np.stack([0.5 * (g - 1.0) * q2 - vy ** 2, -(g - 1.0) * vx,
                  (3.0 - g) * vy, (g - 1.0) * o], axis=-1),
        np.stack([vy * (0.5 * (g - 1.0) * q2 - H), -(g - 1.0) * vx * vy,
                  H - (g - 1.0) * vy ** 2, g * vy], axis=-1),
    ], axis=-2)
    return A1, A2


def max_wave_speed(u, normal, gamma):
    """|v . n| + c, the largest absolute eigenvalue of the directional
    flux Jacobian; normal shape (..., 2)."""
    rho, vx, vy, p = primitive(u, gamma)
    if np.any(p <= 0.0):
        raise EulerError("non-positive pressure")
    c = np.sqrt(gamma * p / rho)
    return np.abs(vx * normal[..., 0] + vy * normal[..., 1]) + c


def lax_friedrichs_flux(um, up, normal, gamma, alpha=None):
    """0.5 (f(u-) . n + f(u+) . n + alpha (u- - u+)); returns (flux, alpha)."""
    if alpha is None:
        alpha = np.maximum(max_wave_speed(um, normal, gamma),
                           max_wave_speed(up, normal, gamma))
    f1m, f2m = flux(um, gamma)
    f1p, f2p = flux(up, gamma)
    fn = 0.5 * ((f1m + f1p) * normal[..., :1] + (f2m + f2p) * normal[..., 1:2]
                + alpha[..., None] * (um - up))
    return fn, alpha


def vortex_exact(params, x, y, t):
    """Conservative state of the isentropic vortex advecting with the free
    stream; returns shape x.shape + (4,)."""
    pr = params
    ub = pr.u_inf * np.cos(pr.theta)
    vb = pr.u_inf * np.sin(pr.theta)
    dx = (x - pr.x0) - ub * t
    dy = (y - pr.y0) - vb * t
    f = (1.0 - dx ** 2 - dy ** 2) / pr.r_c ** 2
    ef2 = np.exp(0.5 * f)
    vx = pr.u_inf * (np.cos(pr.theta) - pr.epsilon * dy / (2.0 * np.pi * pr.r_c) * ef2)
    vy = pr.u_inf * (np.sin(pr.theta) + pr.epsilon * dx / (2.0 * np.pi * pr.r_c) * ef2)
    core = 1.0 - pr.epsilon ** 2 * (pr.gamma - 1.0) * pr.mach ** 2 / (8.0 * np.pi ** 2) * np.exp(f)
    rho = pr.rho_inf * core ** (1.0 / (pr.gamma - 1.0))
    p = pr.p_inf * core ** (pr.gamma / (pr.gamma - 1.0))
    E = p / ((pr.gamma - 1.0) * rho) + 0.5 * (vx ** 2 + vy ** 2)
    return np.stack([rho, rho * vx, rho * vy, rho * E], axis=-1)


def _states(B, W):
    """States at the nodes of k cells: B (k, q, n_loc), W (k, 4, n_loc) ->
    (k, q, 4)."""
    return np.einsum("kql,krl->kqr", B, W)


def _weak_sums(w, f, a):
    """sum_q (w[k, q] f[k, q, r]) a[k, q, i]: (k, 4, n_loc), summed in
    quadrature-point order."""
    wf = w[..., None] * f
    out = np.zeros(f.shape[:1] + f.shape[2:] + a.shape[2:])
    for q in range(w.shape[1]):
        out += wf[:, q, :, None] * a[:, q, None, :]
    return out


def _block_sums(w, a, D, c):
    """sum_q ((w[k, q] a[k, q, i]) D[k, q, r, s]) c[k, q, l] as blocks
    (k, 4 n_a, 4 n_c), rows (r, i) and columns (s, l). A batched matmul
    per row component r contracts the nodes; it agrees with their sum in
    node order to 1e-13 relative, not bit for bit."""
    k, nq, na = a.shape
    wa = a * w[..., None]
    out = np.empty((k, N_COMP, na * N_COMP, c.shape[2]))
    # a row component r at a time, a quarter of the whole left factor; sizes
    # spelled out, as a chunk without inner edges has k = 0
    for r in range(N_COMP):
        left = wa[:, :, :, None] * D[:, :, None, r, :]
        quadrature_products(left.reshape(k, nq, na * N_COMP), c,
                            out=out[:, r])
    return out.reshape(k, N_COMP * na, N_COMP * c.shape[2])


class _EdgeChunk:
    """Consecutive edges sl and their trace data. `inner` marks the edges
    with a right cell, whose right traces `wr` holds; the terms of each
    edge start at its slot `res_slot` of the residual buffer and `jac_slot`
    of the Jacobian buffer."""

    def __init__(self, sl, left, right, normals, nodes, weights, wl, wr,
                 res_slot, jac_slot):
        self.sl = sl
        self.inner = inner = right != BOUNDARY
        self.left, self.right = left, right[inner]
        self.normals = normals[:, None, :]
        self.bnd_nodes = nodes[~inner]
        self.weights, self.wl, self.wr = weights, wl, wr
        self.inner_weights, self.inner_wl = weights[inner], wl[inner]
        self.res_slot, self.jac_slot = res_slot, jac_slot


class EulerDiscretization:
    """DG discretization of the Euler equations on the mesh of a `DgSpace`,
    with Lax-Friedrichs fluxes and exact-state weak boundary conditions.

    State layout: per cell, component-major (block size 4 * n_loc).

    The residual and the Jacobian are batched: volume terms per
    `space.groups` group, face terms per chunk of at most BATCH_CELLS edges.
    Each cell's terms are added in the order of a loop over cells, then
    edges. The residual sums its quadrature nodes in node order, so it is
    bitwise that loop's; the Jacobian contracts them with BLAS matmuls and
    agrees with that loop to 1e-13 relative per block.
    """

    def __init__(self, space, params):
        self.mesh = mesh = space.mesh
        self.space = space
        self.params = params
        self.n_loc = space.n_loc
        self.b = N_COMP * space.n_loc
        self.n_cells = mesh.n_cells
        self.dim = self.n_cells * self.b
        # per group: cells, weights, basis values and x-, y-gradients
        self._groups = [(cells, weights, B, *space.gradients(cells, nodes))
                        for cells, nodes, weights, B in space.groups]
        left, right = mesh.edge_left, mesh.edge_right
        normals, shifts = mesh.edge_normals, mesh.edge_shifts
        nodes, weights = space.edge_nodes, space.edge_weights
        inner = right != BOUNDARY
        self._boundary = np.flatnonzero(~inner)
        wl = space.values(left, nodes)
        wr = space.values(right[inner], nodes[inner] - shifts[inner][:, None, :])
        at = np.cumsum(inner) - 1  # row of each inner edge in wr
        # the terms in the order of a loop over cells, then edges: in the
        # residual the x- and y-volume terms of each cell, then per edge
        # left and right; in the Jacobian the volume block of each cell,
        # then per edge LL, LR, RL and RR. An edge's terms start at its
        # slot, after the volume terms and the terms of the earlier edges
        n, l, r = self.n_cells, left[inner], right[inner]
        e, before = np.arange(len(left)), np.cumsum(inner) - inner
        res_slot, jac_slot = 2 * n + e + before, n + e + 3 * before
        self._res_cells = cells = np.empty(2 * n + len(left) + len(l),
                                           dtype=np.int64)
        cells[:2 * n] = np.tile(np.arange(n), 2)
        cells[res_slot], cells[res_slot[inner] + 1] = left, r
        self._jac_rows = rows = np.empty(n + len(left) + 3 * len(l),
                                         dtype=np.int64)
        self._jac_cols = cols = np.empty_like(rows)
        rows[:n] = cols[:n] = np.arange(n)
        rows[jac_slot] = cols[jac_slot] = left
        for t, (i, j) in enumerate(((l, r), (r, l), (r, r)), start=1):
            rows[jac_slot[inner] + t], cols[jac_slot[inner] + t] = i, j
        self._chunks = [
            _EdgeChunk(sl, left[sl], right[sl], normals[sl], nodes[sl],
                       weights[sl], wl[sl], wr[at[sl][inner[sl]]],
                       res_slot[sl], jac_slot[sl])
            for sl in (slice(e0, e0 + BATCH_CELLS)
                       for e0 in range(0, len(left), BATCH_CELLS))]

    def coeffs(self, U):
        """View the flat state as (n_cells, 4, n_loc)."""
        return U.reshape(self.n_cells, N_COMP, self.n_loc)

    def project_exact(self, t):
        """L2 projection of the vortex solution at time t."""
        return self.space.project(
            lambda x, y: vortex_exact(self.params, x, y, t)).ravel()

    def _checked_coeffs(self, U):
        """coeffs(U), after checking that U is finite and that the mesh's
        boundary edges, if any, have the supported tag."""
        W = self.coeffs(U)
        bad = ~np.isfinite(W).all(axis=(1, 2))
        if bad.any():
            raise EulerError(
                f"non-finite coefficient on cell {np.flatnonzero(bad)[0]}")
        tag = self.mesh.boundary_tag
        if len(self._boundary) and tag != "exact_state":
            raise EulerError(f"unsupported boundary tag {tag!r} on boundary "
                             f"edge {self._boundary[0]} for Euler")
        return W

    def spatial_residual(self, U, t_bc, frozen_alphas=None):
        """Weak-form spatial operator L(U); also returns the Lax-Friedrichs
        dissipation coefficients used, (edges, edge nodes)."""
        gamma = self.params.gamma
        W = self._checked_coeffs(U)
        if frozen_alphas is not None:
            frozen_alphas = np.asarray(frozen_alphas)
        terms = np.empty((len(self._res_cells), N_COMP, self.n_loc))
        for cells, w, B, gx, gy in self._groups:
            f1, f2 = flux(_states(B, W[cells]), gamma)
            terms[cells] = -_weak_sums(w, f1, gx)
            terms[self.n_cells + cells] = -_weak_sums(w, f2, gy)
        alphas = np.empty(self.space.edge_weights.shape)
        for ch in self._chunks:
            um = _states(ch.wl, W[ch.left])
            up = np.empty_like(um)
            up[ch.inner] = _states(ch.wr, W[ch.right])
            x = ch.bnd_nodes
            up[~ch.inner] = vortex_exact(self.params, x[..., 0], x[..., 1],
                                         t_bc)
            alpha = None if frozen_alphas is None else frozen_alphas[ch.sl]
            fn, alphas[ch.sl] = lax_friedrichs_flux(um, up, ch.normals, gamma,
                                                    alpha)
            terms[ch.res_slot] = _weak_sums(ch.weights, fn, ch.wl)
            terms[ch.res_slot[ch.inner] + 1] = -_weak_sums(
                ch.inner_weights, fn[ch.inner], ch.wr)
        return sum_in_order(self._res_cells, terms)[1].ravel(), alphas

    def spatial_jacobian(self, U, t_bc, alphas):
        """Jacobian of the spatial operator with the Lax-Friedrichs
        coefficients frozen at the given per-edge values."""
        gamma = self.params.gamma
        W = self._checked_coeffs(U)
        alphas = np.asarray(alphas)[..., None, None]
        blocks = np.empty((len(self._jac_rows), self.b, self.b))
        for cells, w, B, gx, gy in self._groups:
            A1, A2 = flux_jacobians(_states(B, W[cells]), gamma)
            blocks[cells] = -(_block_sums(w, gx, A1, B)
                              + _block_sums(w, gy, A2, B))
        I4 = np.eye(N_COMP)
        for ch in self._chunks:
            inner = ch.inner
            nx = ch.normals[..., 0, None, None]
            ny = ch.normals[..., 1, None, None]
            alpha = alphas[ch.sl]
            A1, A2 = flux_jacobians(_states(ch.wl, W[ch.left]), gamma)
            dm = 0.5 * (A1 * nx + A2 * ny + alpha * I4)
            A1, A2 = flux_jacobians(_states(ch.wr, W[ch.right]), gamma)
            dp = 0.5 * (A1 * nx[inner] + A2 * ny[inner] - alpha[inner] * I4)
            w, wl, wr = ch.inner_weights, ch.inner_wl, ch.wr
            s = ch.jac_slot[inner]
            blocks[ch.jac_slot] = _block_sums(ch.weights, ch.wl, dm, ch.wl)
            blocks[s + 1] = _block_sums(w, wl, dp, wr)
            blocks[s + 2] = -_block_sums(w, wr, dm[inner], wl)
            blocks[s + 3] = -_block_sums(w, wr, dp, wr)
        return BlockSparseMatrix.from_coo(self.n_cells, self.b, self._jac_rows,
                                          self._jac_cols, blocks)

    def mass_blocks(self):
        """Per-cell mass blocks kron(I4, m), m the scalar mass matrix:
        (n_cells, b, b)."""
        out = np.empty((self.n_cells, N_COMP, self.n_loc, N_COMP, self.n_loc))
        I4 = np.eye(N_COMP)[:, None, :, None]
        for cells, w, B, _gx, _gy in self._groups:
            m = np.einsum("kq,kqi,kqj->kij", w, B, B)
            out[cells] = I4 * m[:, None, :, None, :]
        return out.reshape(self.n_cells, self.b, self.b)
