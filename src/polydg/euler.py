"""Compressible Euler equations in 2D: fluxes, Jacobians, the Lax-Friedrichs
numerical flux, the isentropic moving-vortex exact solution, and the DG
residual/Jacobian assembly used by the implicit solver."""

from dataclasses import dataclass, field

import numpy as np

from .blocklinalg import BlockSparseMatrix
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


class EulerDiscretization:
    """DG discretization of the Euler equations on a mesh with Lax-Friedrichs
    fluxes and exact-state weak boundary conditions.

    State layout: per cell, component-major (block size 4 * n_loc).
    """

    def __init__(self, mesh, space, params):
        self.mesh = mesh
        self.space = space
        self.params = params
        self.n_loc = space.n_loc
        self.b = N_COMP * space.n_loc
        self.n_cells = mesh.n_cells
        self.dim = self.n_cells * self.b
        # cached per-cell and per-edge quadrature data, sliced from the
        # batched tables
        self._cell = [None] * self.n_cells
        for cells, nodes, weights in space.groups:
            B = space.values(cells, nodes)
            G = np.stack(space.gradients(cells, nodes), axis=-1)
            for c, data in zip(cells, zip(weights, B, G)):
                self._cell[c] = data
        left, right, _normals, shifts = mesh.edge_arrays()
        wl = space.values(left, space.edge_nodes)
        inner = np.flatnonzero(right != BOUNDARY)
        shifted = space.edge_nodes[inner] - shifts[inner][:, None, :]
        wr = [None] * len(left)
        for ei, w in zip(inner, space.values(right[inner], shifted)):
            wr[ei] = w
        self._edge = list(zip(space.edge_quads, wl, wr))

    def coeffs(self, U):
        """View the flat state as (n_cells, 4, n_loc)."""
        return U.reshape(self.n_cells, N_COMP, self.n_loc)

    def project_exact(self, t):
        """L2 projection of the vortex solution at time t."""
        return self.space.project(
            lambda x, y: vortex_exact(self.params, x, y, t)).ravel()

    def _states_at(self, coeffs, cell, B):
        """Evaluate the state at quadrature nodes: (npts, 4)."""
        return np.einsum("ql,rl->qr", B, coeffs[cell])

    def boundary_state(self, edge, q, t):
        if edge.tag == "exact_state":
            return vortex_exact(self.params, q.nodes[:, 0], q.nodes[:, 1], t)
        raise EulerError(f"unsupported boundary tag {edge.tag!r} for Euler")

    def spatial_residual(self, U, t_bc, frozen_alphas=None):
        """Weak-form spatial operator L(U); also returns the per-edge
        Lax-Friedrichs dissipation coefficients used."""
        gamma = self.params.gamma
        W = self.coeffs(U)
        R = np.zeros((self.n_cells, N_COMP, self.n_loc))
        for c, (w, B, G) in enumerate(self._cell):
            u = self._states_at(W, c, B)
            f1, f2 = flux(u, gamma)
            R[c] -= np.einsum("q,qr,qi->ri", w, f1, G[:, :, 0])
            R[c] -= np.einsum("q,qr,qi->ri", w, f2, G[:, :, 1])
        alphas = []
        for ei, e in enumerate(self.mesh.edges):
            q, wl, wr = self._edge[ei]
            um = self._states_at(W, e.left, wl)
            if e.right == BOUNDARY:
                up = self.boundary_state(e, q, t_bc)
            else:
                up = self._states_at(W, e.right, wr)
            alpha = None if frozen_alphas is None else frozen_alphas[ei]
            normal = np.broadcast_to(e.normal, (len(q.weights), 2))
            fn, alpha = lax_friedrichs_flux(um, up, normal, gamma, alpha)
            alphas.append(alpha)
            contrib = np.einsum("q,qr,qi->ri", q.weights, fn, wl)
            R[e.left] += contrib
            if e.right != BOUNDARY:
                R[e.right] -= np.einsum("q,qr,qi->ri", q.weights, fn, wr)
        return R.ravel(), alphas

    def spatial_jacobian(self, U, t_bc, alphas):
        """Jacobian of the spatial operator with the Lax-Friedrichs
        coefficients frozen at the given per-edge values."""
        gamma = self.params.gamma
        W = self.coeffs(U)
        blocks = {}

        def add(i, j, blk):
            key = (i, j)
            if key in blocks:
                blocks[key] += blk
            else:
                blocks[key] = blk.copy()

        for c, (w, B, G) in enumerate(self._cell):
            u = self._states_at(W, c, B)
            A1, A2 = flux_jacobians(u, gamma)
            blk = -(np.einsum("q,qi,qrs,ql->risl", w, G[:, :, 0], A1, B)
                    + np.einsum("q,qi,qrs,ql->risl", w, G[:, :, 1], A2, B))
            add(c, c, blk.reshape(self.b, self.b))
        for ei, e in enumerate(self.mesh.edges):
            q, wl, wr = self._edge[ei]
            um = self._states_at(W, e.left, wl)
            A1m, A2m = flux_jacobians(um, gamma)
            Bm = A1m * e.normal[0] + A2m * e.normal[1]
            alpha = alphas[ei]
            I4 = np.eye(N_COMP)
            dm = 0.5 * (Bm + alpha[:, None, None] * I4)
            if e.right == BOUNDARY:
                blk = np.einsum("q,qi,qrs,ql->risl", q.weights, wl, dm, wl)
                add(e.left, e.left, blk.reshape(self.b, self.b))
                continue
            up = self._states_at(W, e.right, wr)
            A1p, A2p = flux_jacobians(up, gamma)
            Bp = A1p * e.normal[0] + A2p * e.normal[1]
            dp = 0.5 * (Bp - alpha[:, None, None] * I4)
            add(e.left, e.left,
                np.einsum("q,qi,qrs,ql->risl", q.weights, wl, dm, wl).reshape(self.b, self.b))
            add(e.left, e.right,
                np.einsum("q,qi,qrs,ql->risl", q.weights, wl, dp, wr).reshape(self.b, self.b))
            add(e.right, e.left,
                -np.einsum("q,qi,qrs,ql->risl", q.weights, wr, dm, wl).reshape(self.b, self.b))
            add(e.right, e.right,
                -np.einsum("q,qi,qrs,ql->risl", q.weights, wr, dp, wr).reshape(self.b, self.b))
        return BlockSparseMatrix.from_block_dict(self.n_cells, self.b, blocks)

    def mass_blocks(self):
        """Per-cell mass blocks (kron(I4, scalar mass))."""
        out = []
        for w, B, _G in self._cell:
            m = np.einsum("q,qi,qj->ij", w, B, B)
            out.append(np.kron(np.eye(N_COMP), m))
        return out
