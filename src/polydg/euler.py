"""Compressible Euler equations in 2D: fluxes, Jacobians, the Lax-Friedrichs
numerical flux, the isentropic moving-vortex exact solution, and the DG
residual/Jacobian assembly used by the implicit solver."""

from dataclasses import dataclass, field

import numpy as np

from .basis import quadrature_products
from .blocklinalg import BlockSparseMatrix, sum_in_order

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
    return np.einsum("kqr,kqi->kri", w[..., None] * f, a)


def _block_sums(w, a, D, c, out=None):
    """sum_q ((w[k, q] a[k, q, i]) D[k, q, r, s]) c[k, q, l] as blocks
    (k, 4 n_a, 4 n_c), rows (r, i) and columns (s, l), written into out if
    given. A batched matmul per row component r contracts the nodes; it
    agrees with their sum in node order to 1e-13 relative, not bit for
    bit."""
    k, nq, na = a.shape
    nc = c.shape[2]
    if out is None:
        out = np.empty((k, N_COMP * na, N_COMP * nc))
    wa = a * w[..., None]
    by_row = out.reshape(k, N_COMP, na * N_COMP, nc)
    # a row component r at a time, a quarter of the whole left factor; sizes
    # spelled out, as a mesh without inner edges has k = 0
    for r in range(N_COMP):
        left = wa[:, :, :, None] * D[:, :, None, r, :]
        quadrature_products(left.reshape(k, nq, na * N_COMP), c,
                            out=by_row[:, r])
    return out


def _volume_blocks(W, w, B, gx, gy, gamma):
    """The Jacobian's volume blocks of a group of cells with coefficients
    W; its temporaries are freed on return, before the next group's."""
    A1, A2 = flux_jacobians(_states(B, W), gamma)
    return -(_block_sums(w, gx, A1, B) + _block_sums(w, gy, A2, B))


class EulerDiscretization:
    """DG discretization of the Euler equations on the mesh of a `DgSpace`,
    with Lax-Friedrichs fluxes and exact-state weak boundary conditions.

    State layout: per cell, component-major (block size 4 * n_loc).

    The residual and the Jacobian are batched: volume terms per
    `space.groups` group, face terms for all edges at once. Each cell's
    terms are added in the order of a loop over cells, then edges, which
    the layout of the term buffers gives by construction, as the mesh lists
    its `n_inner` inner edges first. The residual sums its quadrature nodes
    in node order, so it is bitwise that loop's; the Jacobian contracts
    them with BLAS matmuls and agrees with that loop to 1e-13 relative per
    block.
    """

    def __init__(self, space, params):
        self.mesh = mesh = space.mesh
        self.space = space
        self.params = params
        self.n_loc = space.n_loc
        self.b = N_COMP * space.n_loc
        self.n_cells = n = mesh.n_cells
        self.dim = self.n_cells * self.b
        # per group: cells, weights, basis values and x-, y-gradients
        self._groups = [(cells, weights, B, *space.gradients(cells, nodes))
                        for cells, nodes, weights, B in space.groups]
        self._left = left = mesh.edge_left
        nodes, shifts, ni = space.edge_nodes, mesh.edge_shifts, mesh.n_inner
        self._right = r = mesh.edge_right[:ni]
        self._normals = mesh.edge_normals[:, None, :]
        self._wl = space.values(left, nodes)
        self._wr = space.values(r, nodes[:ni] - shifts[:ni, None, :])
        # the keys of the terms in the order of a loop over cells, then
        # edges: each cell's volume term, each inner edge's terms, each
        # boundary edge's left term
        def keys(*per_inner_edge):
            return np.concatenate((np.arange(n), np.stack(
                per_inner_edge, axis=1).ravel(), left[ni:]))

        l = left[:ni]
        self._res_cells = keys(l, r)  # left, right
        # LL, LR, RL, RR
        self._jac_rows, self._jac_cols = keys(l, l, r, r), keys(l, r, l, r)

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
        if self.mesh.n_inner < len(self._left) and tag != "exact_state":
            raise EulerError(f"unsupported boundary tag {tag!r} on boundary "
                             f"edge {self.mesh.n_inner} for Euler")
        return W

    def spatial_residual(self, U, t_bc, frozen_alphas=None):
        """Weak-form spatial operator L(U); also returns the Lax-Friedrichs
        dissipation coefficients used, (edges, edge nodes)."""
        gamma, n, ni = self.params.gamma, self.n_cells, self.mesh.n_inner
        W = self._checked_coeffs(U)
        terms = np.empty((len(self._res_cells), N_COMP, self.n_loc))
        for cells, w, B, gx, gy in self._groups:
            f1, f2 = flux(_states(B, W[cells]), gamma)
            terms[cells] = -_weak_sums(w, f1, gx) - _weak_sums(w, f2, gy)
        x = self.space.edge_nodes[ni:]
        up = np.concatenate((_states(self._wr, W[self._right]),
                             vortex_exact(self.params, x[..., 0], x[..., 1],
                                          t_bc)))
        fn, alphas = lax_friedrichs_flux(
            _states(self._wl, W[self._left]), up, self._normals, gamma,
            None if frozen_alphas is None else np.asarray(frozen_alphas))
        w, wl = self.space.edge_weights, self._wl
        inner = terms[n:n + 2 * ni].reshape(ni, 2, N_COMP, self.n_loc)
        inner[:, 0] = _weak_sums(w[:ni], fn[:ni], wl[:ni])
        inner[:, 1] = -_weak_sums(w[:ni], fn[:ni], self._wr)
        terms[n + 2 * ni:] = _weak_sums(w[ni:], fn[ni:], wl[ni:])
        return sum_in_order(self._res_cells, terms)[1].ravel(), alphas

    def spatial_jacobian(self, U, alphas):
        """Jacobian of the spatial operator with the Lax-Friedrichs
        coefficients frozen at the given per-edge values."""
        n, b = self.n_cells, self.b
        W = self._checked_coeffs(U)
        blocks = np.empty((len(self._jac_rows), b, b))
        for cells, *group in self._groups:
            blocks[cells] = _volume_blocks(W[cells], *group, self.params.gamma)
        self._face_blocks(W, np.asarray(alphas)[..., None, None], blocks[n:])
        return BlockSparseMatrix.from_coo(n, b, self._jac_rows,
                                          self._jac_cols, blocks)

    def _face_blocks(self, W, alphas, out):
        """Write the face blocks, coefficients alphas (E, nq, 1, 1) frozen,
        into out: LL, LR, RL and RR of each inner edge, then LL of each
        boundary edge. Its temporaries, the all-edge flux derivatives among
        them, are freed on return."""
        gamma, ni, I4 = self.params.gamma, self.mesh.n_inner, np.eye(N_COMP)
        nx = self._normals[..., 0, None, None]
        ny = self._normals[..., 1, None, None]
        A1, A2 = flux_jacobians(_states(self._wl, W[self._left]), gamma)
        dm = 0.5 * (A1 * nx + A2 * ny + alphas * I4)
        A1, A2 = flux_jacobians(_states(self._wr, W[self._right]), gamma)
        dp = 0.5 * (A1 * nx[:ni] + A2 * ny[:ni] - alphas[:ni] * I4)
        w, wl, wr = self.space.edge_weights, self._wl, self._wr
        inner = out[:4 * ni].reshape(ni, 4, self.b, self.b)
        _block_sums(w[:ni], wl[:ni], dm[:ni], wl[:ni], out=inner[:, 0])
        _block_sums(w[:ni], wl[:ni], dp, wr, out=inner[:, 1])
        _block_sums(w[:ni], wr, dm[:ni], wl[:ni], out=inner[:, 2])
        _block_sums(w[:ni], wr, dp, wr, out=inner[:, 3])
        np.negative(inner[:, 2:], out=inner[:, 2:])
        _block_sums(w[ni:], wl[ni:], dm[ni:], wl[ni:], out=out[4 * ni:])

    def mass_blocks(self):
        """Per-cell mass blocks kron(I4, m), m the scalar mass matrix:
        (n_cells, b, b)."""
        out = np.empty((self.n_cells, N_COMP, self.n_loc, N_COMP, self.n_loc))
        I4 = np.eye(N_COMP)[:, None, :, None]
        for cells, w, B, _gx, _gy in self._groups:
            m = np.einsum("kq,kqi,kqj->kij", w, B, B)
            out[cells] = I4 * m[:, None, :, None, :]
        return out.reshape(self.n_cells, self.b, self.b)
