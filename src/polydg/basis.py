"""Quadrature rules and orthonormal modal bases on arbitrary polygonal cells.

Bases are built for many cells at once: cells are grouped by vertex count
and each group's fan quadratures, monomial values and Gram-Schmidt sweeps
are arrays with the cells along the first axis.
"""

import functools

import numpy as np


class BasisError(Exception):
    pass


class Quadrature:
    """A set of 2D nodes and positive weights."""

    def __init__(self, nodes, weights):
        self.nodes = np.asarray(nodes, dtype=float)
        self.weights = np.asarray(weights, dtype=float)

    def integrate(self, f):
        vals = f(self.nodes[:, 0], self.nodes[:, 1])
        return np.dot(self.weights, vals)


def _read_only(*arrays):
    for a in arrays:
        a.flags.writeable = False
    return arrays


@functools.cache
def _gauss_legendre(n):
    """Gauss-Legendre nodes and weights on [-1, 1], computed once per n."""
    return _read_only(*np.polynomial.legendre.leggauss(n))


@functools.cache
def _reference_triangle_rule(degree):
    """(x, y, w) on the triangle (0,0), (1,0), (0,1), exact for total
    degree <= degree.

    A collapsed (Duffy) tensor Gauss rule; the Jacobian factor raises the
    polynomial degree by one in the collapsed direction, hence the
    n = ceil((degree + 2) / 2) point count per direction.
    """
    n = max(1, (degree + 3) // 2)
    xg, wg = _gauss_legendre(n)
    a = 0.5 * (xg + 1.0)  # map to [0, 1]
    wa = 0.5 * wg
    A, B = np.meshgrid(a, a, indexing="ij")
    WA, WB = np.meshgrid(wa, wa, indexing="ij")
    # x = a (1 - b), y = b
    return _read_only((A * (1.0 - B)).ravel(), B.ravel(),
                      (WA * WB * (1.0 - B)).ravel())


def _fan_quadrature(verts, centroids, degree):
    """Quadrature exact for total degree <= degree on polygons star-shaped
    from their centroids, split into the triangles (centroid, v_i, v_i+1).

    verts (cells, nv, 2), centroids (cells, 2); returns nodes
    (cells, nq, 2) and weights (cells, nq), triangle by triangle in vertex
    order.
    """
    xr, yr, w = _reference_triangle_rule(degree)
    v0 = centroids[:, None, :]
    e1 = verts - v0
    e2 = np.roll(verts, -1, axis=1) - v0
    jac = e1[..., 0] * e2[..., 1] - e1[..., 1] * e2[..., 0]
    nodes = (v0[:, :, None, :] + xr[:, None] * e1[:, :, None, :]
             + yr[:, None] * e2[:, :, None, :])
    weights = w * jac[..., None]
    return (nodes.reshape(len(verts), -1, 2),
            weights.reshape(len(verts), -1))


def polygon_quadrature(vertices, degree):
    """Quadrature exact for bivariate polynomials of total degree <= degree
    on a polygon star-shaped from its centroid (fan triangulation)."""
    verts = np.asarray(vertices, dtype=float)
    if len(verts) < 3:
        raise BasisError("polygon needs at least 3 vertices")
    area, centroid = polygon_area_centroid(verts)
    if area < 1e-14:
        raise BasisError(f"degenerate polygon (area {area:g})")
    nodes, weights = _fan_quadrature(verts[None], centroid[None], degree)
    return Quadrature(nodes[0], weights[0])


def edge_quadrature(p0, p1, degree):
    """Gauss-Legendre rule on the segment [p0, p1], exact for degree-q
    polynomials along the edge; weights sum to the edge length. Endpoints
    (..., 2) give a batch of rules: nodes (..., n, 2), weights (..., n)."""
    p0 = np.asarray(p0, float)
    d = np.asarray(p1, float) - p0
    # the dot product np.linalg.norm takes for a single vector
    length = np.sqrt((d[..., None, :] @ d[..., :, None])[..., 0, 0])
    if np.any(length == 0.0):
        raise BasisError("zero-length edge")
    xg, wg = _gauss_legendre(max(1, (degree + 2) // 2))
    t = 0.5 * (xg + 1.0)
    nodes = p0[..., None, :] + t[:, None] * d[..., None, :]
    return Quadrature(nodes, (0.5 * length)[..., None] * wg)


def polygon_area_centroid(verts):
    """Signed area and centroid of polygons verts (..., nv, 2)."""
    verts = np.asarray(verts, float)
    x = verts[..., 0]
    y = verts[..., 1]
    xn = np.roll(x, -1, axis=-1)
    yn = np.roll(y, -1, axis=-1)
    cross = x * yn - xn * y
    area = 0.5 * np.sum(cross, axis=-1)
    cx = np.sum((x + xn) * cross, axis=-1) / (6.0 * area)
    cy = np.sum((y + yn) * cross, axis=-1) / (6.0 * area)
    return area, np.stack([cx, cy], axis=-1)


DEGREES = (0, 1, 2, 3)


def check_degree(p):
    """A BasisError unless p is an integer in DEGREES."""
    if not isinstance(p, (int, np.integer)) or p not in DEGREES:
        raise BasisError(f"degree p={p} unsupported "
                         f"({min(DEGREES)}..{max(DEGREES)})")


def monomial_exponents(p):
    """Graded lexicographic exponent pairs: 1, x, y, x^2, xy, y^2, ..."""
    return [(d - j, j) for d in range(p + 1) for j in range(d + 1)]


def n_local(p):
    return (p + 1) * (p + 2) // 2


# most cells in one batch: bounds the (cells, nodes, n_loc) temporaries of
# the batched build and assembly (1.5 MB each at p = 3)
BATCH_CELLS = 128


def ragged_polygons(points, cell_ptr):
    """Signed areas (n,) and centroids (n, 2) of the n polygons stored back
    to back in points (P, 2), polygon c in rows cell_ptr[c]:cell_ptr[c + 1],
    and their batches: (cells (k,), vertices (k, nv, 2)) of up to
    BATCH_CELLS cells with one vertex count nv."""
    counts = np.diff(cell_ptr)
    area, centroid = np.empty(len(counts)), np.empty((len(counts), 2))
    batches = []
    for nv in np.unique(counts):
        idx = np.flatnonzero(counts == nv)
        for b in np.array_split(idx, -(-len(idx) // BATCH_CELLS)):
            batches.append((b, points[cell_ptr[b, None] + np.arange(nv)]))
            area[b], centroid[b] = polygon_area_centroid(batches[-1][1])
    return area, centroid, batches


def volume_degree(p):
    """Total degree the cell quadrature integrates exactly."""
    return max(2 * p, 2 * p + 2 if p > 0 else 2)


def _monomial_values(exps, s):
    """Monomials at centered-scaled points s (..., 2): (..., len(exps))."""
    out = np.empty(s.shape[:-1] + (len(exps),))
    for k, (i, j) in enumerate(exps):
        out[..., k] = s[..., 0] ** i * s[..., 1] ** j
    return out


def _monomial_grads(exps, s, scale):
    """x- and y-derivatives of the monomials in physical coordinates, for
    s = (point - centroid) / scale: two (..., len(exps)) arrays."""
    gx = np.zeros(s.shape[:-1] + (len(exps),))
    gy = np.zeros_like(gx)
    for k, (i, j) in enumerate(exps):
        if i > 0:
            gx[..., k] = i * s[..., 0] ** (i - 1) * s[..., 1] ** j / scale
        if j > 0:
            gy[..., k] = j * s[..., 0] ** i * s[..., 1] ** (j - 1) / scale
    return gx, gy


def _orthonormalize(V, w, cells, centroids):
    """Modified Gram-Schmidt, twice for stability, of the monomial columns
    of V (k, nq, n) under the quadrature weights w (k, nq) of k cells.
    Returns coefficients (k, n, n): row i is basis function i in monomials.
    """
    k, _, n = V.shape
    C = np.broadcast_to(np.eye(n), (k, n, n)).copy()
    w = w[:, None, :]

    def inner(a):  # <w, a> per cell, one dot product each
        return (w @ a[:, :, None])[:, 0]

    for _ in range(2):
        # basis values at the quad nodes, one contiguous row per function
        B = V @ C.transpose(0, 2, 1)
        B = np.ascontiguousarray(B.transpose(0, 2, 1))
        for i in range(n):
            for j in range(i):
                proj = inner(B[:, i] * B[:, j])
                B[:, i] -= proj * B[:, j]
                C[:, i] -= proj * C[:, j]
            nrm2 = inner(B[:, i] ** 2)[:, 0]
            bad = ~(np.isfinite(nrm2) & (nrm2 > 0.0))
            if bad.any():
                raise BasisError(
                    f"numerically dependent monomials on cell "
                    f"{cells[bad][0]} at {centroids[bad][0]}")
            nrm = np.sqrt(nrm2)[:, None]
            B[:, i] /= nrm
            C[:, i] /= nrm
    return C


class CellBases:
    """Orthonormal modal bases and volume quadratures of many polygonal
    cells, kept as arrays.

    Cell c has the vertices vertices[cell_idx[cell_ptr[c]:cell_ptr[c + 1]]],
    counter-clockwise. Its basis functions are linear combinations of
    centered-scaled monomials ((x - cx)/d)^i ((y - cy)/d)^j, with c the
    centroid and d the cell diameter. The combination coefficients come
    from modified Gram-Schmidt under the L2 inner product of the cell
    quadrature, so the Gram matrix is the identity and the first function
    is 1/sqrt(area).

    `areas`, `centroids`, `diameters` and `coeffs` (cells, n_loc, n_loc) are
    indexed by cell. A group is up to BATCH_CELLS cells with the same
    vertex count; `groups` holds (cell indices, quadrature nodes (k, nq, 2),
    weights (k, nq)) per group. `bases[c]` is a per-cell view.
    """

    def __init__(self, vertices, cell_ptr, cell_idx, p):
        check_degree(p)
        self.exps = monomial_exponents(p)
        self.n_loc = len(self.exps)
        cell_ptr = np.asarray(cell_ptr)
        self.n_cells = n = len(cell_ptr) - 1
        if np.any(np.diff(cell_ptr) < 3):
            raise BasisError("polygon needs at least 3 vertices")
        points = np.asarray(vertices, dtype=float)[cell_idx]
        self.areas, self.centroids, batches = ragged_polygons(points, cell_ptr)
        # a non-finite vertex makes the area or the centroid non-finite
        bad = ~((self.areas >= 1e-14) & np.isfinite(self.centroids).all(1))
        if bad.any():
            c = np.flatnonzero(bad)[0]
            raise BasisError(f"degenerate cell {c} at {self.centroids[c]} "
                             f"(area {self.areas[c]:g})")
        self.diameters = np.empty(n)
        self.coeffs = np.empty((n, self.n_loc, self.n_loc))
        self.groups = []
        self.bases = [None] * n
        for idx, v in batches:
            d = v - self.centroids[idx][:, None, :]
            self.diameters[idx] = 2.0 * np.hypot(d[..., 0], d[..., 1]).max(1)
            nodes, weights = _fan_quadrature(v, self.centroids[idx],
                                             volume_degree(p))
            V = _monomial_values(self.exps, self._scaled(idx, nodes))
            self.coeffs[idx] = _orthonormalize(V, weights, idx,
                                               self.centroids[idx])
            self.groups.append((idx, nodes, weights))
            for k, c in enumerate(idx):
                self.bases[c] = CellBasis(self, c,
                                          Quadrature(nodes[k], weights[k]))

    def _scaled(self, cells, points):
        return ((points - self.centroids[cells][:, None, :])
                / self.diameters[cells][:, None, None])

    def values(self, cells, points):
        """Basis values of cells (k,) at their points (k, q, 2):
        (k, q, n_loc)."""
        V = _monomial_values(self.exps, self._scaled(cells, points))
        return V @ self.coeffs[cells].transpose(0, 2, 1)

    def gradients(self, cells, points):
        """x- and y-derivatives of the bases of cells (k,) at their points
        (k, q, 2): two (k, q, n_loc) arrays."""
        gx, gy = _monomial_grads(self.exps, self._scaled(cells, points),
                                 self.diameters[cells][:, None])
        ct = self.coeffs[cells].transpose(0, 2, 1)
        return gx @ ct, gy @ ct


class CellBasis:
    """Cell c of a CellBases: its quadrature and basis functions, evaluated
    through the batch's arrays."""

    def __init__(self, bases, c, quadrature):
        self._bases = bases
        self._cell = np.array([c])
        self.quadrature = quadrature
        self.coeffs = bases.coeffs[c]

    def eval(self, points):
        """Basis values, shape (npts, n_loc)."""
        pts = np.atleast_2d(np.asarray(points, float))
        return self._bases.values(self._cell, pts[None])[0]

    def eval_grad(self, points):
        """Basis gradients, shape (npts, n_loc, 2)."""
        pts = np.atleast_2d(np.asarray(points, float))
        gx, gy = self._bases.gradients(self._cell, pts[None])
        return np.stack([gx[0], gy[0]], axis=-1)

    def gram(self):
        B = self.eval(self.quadrature.nodes)
        return np.einsum("q,qi,qj->ij", self.quadrature.weights, B, B)


class DgSpace(CellBases):
    """The cell bases and quadratures of a PolyMesh, plus the edge rules:
    `edge_nodes` (edges, ne, 2) and `edge_weights` (edges, ne), with
    per-edge views in `edge_quads`."""

    def __init__(self, mesh, p):
        super().__init__(mesh.vertices, mesh.cell_ptr, mesh.cell_idx, p)
        self.mesh = mesh
        ends = mesh.edge_vertices
        q = edge_quadrature(mesh.vertices[ends[:, 0]],
                            mesh.vertices[ends[:, 1]], 2 * p + 1)
        self.edge_nodes, self.edge_weights = q.nodes, q.weights
        self.edge_quads = [Quadrature(x, w) for x, w in
                           zip(self.edge_nodes, self.edge_weights)]

    def project(self, fn):
        """Per-cell L2 projection of fn(x, y), whose values may carry
        trailing component axes; returns (n_cells, *components, n_loc)."""
        out = None
        for cells, nodes, weights in self.groups:
            vals = fn(nodes[..., 0], nodes[..., 1])
            proj = np.einsum("cq,cq...,cqi->c...i", weights, vals,
                             self.values(cells, nodes))
            if out is None:
                out = np.empty((self.n_cells,) + proj.shape[1:])
            out[cells] = proj
        return out

    def evaluate(self, coeffs, cell, points):
        """Evaluate the DG function with modal coefficients at points in a cell."""
        return self.bases[cell].eval(points) @ np.asarray(coeffs)[cell]
