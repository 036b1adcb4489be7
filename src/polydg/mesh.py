"""Polygonal meshes: regular generating-pattern tessellations, randomized
Delaunay/Voronoi pairs, element ordering, and mesh file I/O."""

from dataclasses import dataclass

import numpy as np
from scipy.spatial import Delaunay, cKDTree

from .basis import polygon_area_centroid, ragged_polygons

BOUNDARY = -1

PATTERN_KINDS = ("hexagon", "square", "rtri", "etri")
UNIT_SQUARE = (0.0, 0.0, 1.0, 1.0)
RANDOM_JITTER = 0.25   # build_random_mesh_pair's default delta, over h


class MeshError(Exception):
    pass


class _VertexError(MeshError):
    """An invalid vertex, number `item`."""

    def __init__(self, item, msg):
        super().__init__(msg)
        self.item = item


class _UnpairedSide(MeshError):
    """A boundary side that no period moves onto another boundary side."""


class PolyMesh:
    """Planar polygonal tessellation with edge-neighbor topology.

    The cells are one CSR pair of int64 arrays: cell c has the vertex
    indices `cell_idx[cell_ptr[c]:cell_ptr[c + 1]]`, turned
    counter-clockwise (a clockwise cell is reversed in full). A directed
    side is a pair of consecutive vertices of a cell; side s starts at
    `cell_idx[s]`. An edge is a side and its reverse, a boundary side, or
    two boundary sides glued periodically. The edges are arrays in edge order:
    interior edges by their first side, then boundary edges, then periodic
    edges by pair.
    - `edge_left`, `edge_right` (E,): the cell the normal points away
      from and its neighbor, or BOUNDARY;
    - `edge_vertices` (E, 2): the vertex indices v0, v1 of the left side;
    - `edge_normals` (E, 2): unit normals, outward from the left cell;
    - `edge_lengths` (E,);
    - `edge_shifts` (E, 2): the translation that moves the right cell's
      polygon onto the edge, zero except on periodic edges.
    `periodic_map` (K, 2) holds the two sides of each periodic edge, and
    every boundary edge carries the condition `boundary_tag`.

    `periods` is None (every unmatched side is a boundary edge) or the
    torus's two translations t1, t2, kept as a (2, 2) array: each unmatched
    side then pairs with its translate by one of +-t1, +-t2, +-(t1 + t2),
    +-(t1 - t2), and the edge's shift is that translation, exactly.

    `row_height` is the spacing of the cell rows of a regular tiling,
    which `build_regular_mesh` sets; it is None on every other mesh.
    """

    row_height = None

    def __init__(self, vertices, cell_ptr, cell_idx, periods=None,
                 boundary_tag="inflow_outflow"):
        self.vertices = np.asarray(vertices, dtype=float)
        bad = np.flatnonzero(~np.isfinite(self.vertices).all(axis=-1))
        if len(bad):
            x, y = self.vertices[bad[0]].tolist()
            raise _VertexError(bad[0],
                               f"vertex {bad[0]} = ({x}, {y}) is not finite")
        self.periods = None if periods is None else np.array(periods, float)
        if self.periods is not None and self.periods.shape != (2, 2):
            raise MeshError(f"periods must be two 2-vectors, not an array "
                            f"of shape {self.periods.shape}")
        self.cell_ptr = np.array(cell_ptr, dtype=np.int64)
        self.cell_idx = np.array(cell_idx, dtype=np.int64)
        self.n_cells = len(self.cell_ptr) - 1
        if self.n_cells < 1:
            raise MeshError("empty cell list")
        self.boundary_tag = boundary_tag
        self._orient_ccw()
        self._build_edges()

    # -- construction ----------------------------------------------------

    def _orient_ccw(self):
        """Check cells; reverse the clockwise ones; set areas and centroids."""
        ptr, idx = self.cell_ptr, self.cell_idx
        counts = np.diff(ptr)
        if ptr[0] != 0 or ptr[-1] != len(idx):
            raise MeshError(f"cell_ptr runs from {ptr[0]} to {ptr[-1]}, "
                            f"not from 0 to len(cell_idx) = {len(idx)}")
        short = np.flatnonzero(counts < 3)
        if len(short):
            raise MeshError(f"cell {short[0]} has {counts[short[0]]} "
                            f"vertices, fewer than 3")
        missing = np.flatnonzero((idx < 0) | (idx >= len(self.vertices)))
        if len(missing):
            c = np.searchsorted(ptr, missing[0], side="right") - 1
            raise MeshError(f"cell {c} references missing vertex "
                            f"{idx[missing[0]]}")
        area, centroid, _ = ragged_polygons(self.vertices[idx], ptr)
        flip = np.repeat(area < 0, counts)
        if flip.any():
            # position j of a cell in rows a:b moves to a + b - 1 - j
            pos = np.arange(len(idx))
            mirror = np.repeat(ptr[:-1] + ptr[1:] - 1, counts) - pos
            self.cell_idx = idx = idx[np.where(flip, mirror, pos)]
            area, centroid, _ = ragged_polygons(self.vertices[idx], ptr)
        self.cell_areas, self.cell_centroids = area, centroid
        if np.any(self.cell_areas <= 0.0):
            raise MeshError("cell with non-positive area")

    def _build_edges(self):
        # directed sides (a, b) in cell order, b next after a in its cell;
        # the partner of a side is the side (b, a), or -1
        ptr, idx = self.cell_ptr, self.cell_idx
        succ = np.arange(1, len(idx) + 1)
        succ[ptr[1:] - 1] = ptr[:-1]
        ends = np.stack((idx, idx[succ]), axis=1)
        side_cell = np.repeat(np.arange(self.n_cells), np.diff(ptr))
        nv = len(self.vertices)
        key = ends[:, 0] * nv + ends[:, 1]
        order = np.argsort(key, kind="stable")
        key_sorted = key[order]
        repeat = np.flatnonzero(key_sorted[1:] == key_sorted[:-1])
        if len(repeat):
            s = order[repeat + 1].min()
            raise MeshError(
                f"duplicate directed side ({ends[s, 0]}, {ends[s, 1]})")
        reverse = ends[:, 1] * nv + ends[:, 0]
        pos = np.minimum(np.searchsorted(key_sorted, reverse), len(key) - 1)
        partner = np.where(key_sorted[pos] == reverse, order[pos], -1)

        p0, p1 = self.vertices[ends[:, 0]], self.vertices[ends[:, 1]]
        d = p1 - p0
        lengths = np.hypot(d[:, 0], d[:, 1])
        if np.any(lengths <= 0):
            raise MeshError("zero-length edge")
        normals = np.stack((d[:, 1], -d[:, 0]), axis=1) / lengths[:, None]
        mids = 0.5 * (p0 + p1)

        interior = np.flatnonzero(partner > np.arange(len(key)))
        unmatched = np.flatnonzero(partner < 0)
        if self.periods is None:
            pairs, shifts = np.empty((0, 2), dtype=np.int64), np.empty((0, 2))
        else:
            pairs, shifts = _match_periodic(unmatched, mids[unmatched],
                                            self.periods)
        boundary = unmatched[~np.isin(unmatched, pairs)]

        first = np.concatenate((interior, boundary, pairs[:, 0]))
        self.edge_left = side_cell[first]
        self.edge_right = np.concatenate((side_cell[partner[interior]],
                                          np.full(len(boundary), BOUNDARY),
                                          side_cell[pairs[:, 1]]))
        self.edge_vertices = ends[first]
        self.edge_normals = normals[first]
        self.edge_lengths = lengths[first]
        self.edge_shifts = np.concatenate(
            (np.zeros((len(interior) + len(boundary), 2)), shifts))
        self.periodic_map = pairs

    # -- queries ---------------------------------------------------------

    def cell_vertices(self, c):
        return self.vertices[self.cell_idx[slice(*self.cell_ptr[c:c + 2])]]

    @property
    def is_periodic(self):
        return len(self.periodic_map) > 0

    # -- validation ------------------------------------------------------

    def validate(self, domain_area=None, moved=0.0):
        """Check the cells' area sum against domain_area, if given, and that
        each cell's edges close up. A builder that merged vertices passes
        the farthest it `moved` a point: moving the boundary's vertices by
        up to that changes the area by up to the boundary length times it."""
        if domain_area is not None:
            total = self.cell_areas.sum()
            boundary = self.edge_lengths[self.edge_right == BOUNDARY].sum()
            if abs(total - domain_area) > (1e-12 * domain_area
                                           + boundary * moved):
                raise MeshError(f"area sum {total} != domain area {domain_area}")
        # sum of length * outward normal per cell, edge by edge
        ln = self.edge_lengths[:, None] * self.edge_normals
        cells = np.stack((self.edge_left, self.edge_right), axis=1).ravel()
        terms = np.stack((ln, -ln), axis=1).reshape(-1, 2)
        on = cells != BOUNDARY
        acc = np.zeros((self.n_cells, 2))
        np.add.at(acc, cells[on], terms[on])
        scale = np.sqrt(self.cell_areas.mean())
        if np.max(np.abs(acc)) > 1e-12 * max(scale, 1.0) * 100:
            raise MeshError("cell edge closure violated")
        return True


def _match_periodic(sides, mids, periods):
    """Pair the sides (B,) whose midpoints mids (B, 2) differ by one of the
    lattice translations of periods (2, 2), each side with the first free
    match in the order +-t1, +-t2, +-(t1 + t2), +-(t1 - t2). Returns the
    side pairs (K, 2) and the shifts (K, 2): the right cell of an edge
    lives at -t."""
    t1, t2 = periods
    cand = np.array([t1, -t1, t2, -t2, t1 + t2, -(t1 + t2), t1 - t2, t2 - t1])
    scale = max(np.linalg.norm(t1), np.linalg.norm(t2))
    dist, near = cKDTree(mids).query(mids[:, None, :] + cand)
    hit = (dist < 1e-8 * scale) & (near != np.arange(len(sides))[:, None])
    used = np.zeros(len(sides), dtype=bool)
    pairs, shifts = [], []
    for i in range(len(sides)):
        if used[i]:
            continue
        free = np.flatnonzero(hit[i] & ~used[near[i]])
        if not len(free):
            raise _UnpairedSide(f"unpaired periodic boundary side {sides[i]}")
        j = near[i, free[0]]
        pairs.append((sides[i], sides[j]))
        shifts.append(-cand[free[0]])
        used[i] = used[j] = True
    return np.array(pairs).reshape(-1, 2), np.array(shifts).reshape(-1, 2)


# -- generating patterns -------------------------------------------------

SQRT3 = np.sqrt(3.0)


def pattern_side_length(kind, h_E):
    """Element side lengths giving equal area across the four patterns."""
    if kind == "square":
        return 3.0 ** 0.25 / 2.0 * h_E
    if kind == "hexagon":
        return h_E / np.sqrt(6.0)
    if kind == "rtri":
        return 3.0 ** 0.25 / np.sqrt(2.0) * h_E
    if kind == "etri":
        return h_E
    raise MeshError(f"unknown pattern kind {kind!r}")


def h_E_from_area(area):
    """Equilateral-triangle side length with the given element area."""
    if not np.isfinite(area):
        raise MeshError(f"element_area = {area} is not finite")
    if area <= 0:
        raise MeshError("element area must be positive")
    return np.sqrt(4.0 * area / SQRT3)


@dataclass
class GeneratingPattern:
    """One- or two-element polygon motif whose lattice translations tile the plane."""
    kind: str
    elements: list          # list of (n, 2) vertex arrays
    lattice: np.ndarray     # (2, 2), rows a1, a2

    @classmethod
    def make(cls, kind, element_area, orientation="flat"):
        """orientation applies to hexagons: "flat" puts an edge at the top
        (columns of cells), "pointy" a vertex (rows of cells)."""
        if orientation not in ("flat", "pointy"):
            raise MeshError(f"unknown orientation {orientation!r}")
        if orientation == "pointy":
            pat = cls.make(kind, element_area, "flat")
            if kind != "hexagon":
                return pat
            rot = np.array([[0.0, -1.0], [1.0, 0.0]])
            els = [el @ rot.T for el in pat.elements]
            return cls(kind, els, pat.lattice @ rot.T)
        h = pattern_side_length(kind, h_E_from_area(element_area))
        if kind == "square":
            el = np.array([[0.0, 0.0], [h, 0.0], [h, h], [0.0, h]])
            lat = np.array([[h, 0.0], [0.0, h]])
            return cls(kind, [el], lat)
        if kind == "hexagon":
            ang = np.arange(6) * np.pi / 3.0
            el = h * np.stack([np.cos(ang), np.sin(ang)], axis=1)
            lat = np.array([[1.5 * h, SQRT3 / 2.0 * h], [1.5 * h, -SQRT3 / 2.0 * h]])
            return cls(kind, [el], lat)
        if kind == "rtri":
            upper = np.array([[0.0, 0.0], [h, h], [0.0, h]])
            lower = np.array([[0.0, 0.0], [h, 0.0], [h, h]])
            lat = np.array([[h, 0.0], [0.0, h]])
            return cls(kind, [upper, lower], lat)
        if kind == "etri":
            up = np.array([[0.0, 0.0], [h, 0.0], [0.5 * h, SQRT3 / 2.0 * h]])
            down = np.array([[h, 0.0], [1.5 * h, SQRT3 / 2.0 * h], [0.5 * h, SQRT3 / 2.0 * h]])
            lat = np.array([[h, 0.0], [0.5 * h, SQRT3 / 2.0 * h]])
            return cls(kind, [up, down], lat)
        raise MeshError(f"unknown pattern kind {kind!r}")

    def rect_period(self):
        """Smallest (width, height, translate offsets) of a rectangle-periodic
        unit for this pattern's lattice; hexagons must be pointy."""
        a1, a2 = self.lattice
        if self.kind in ("square", "rtri"):
            return (a1[0], a2[1], [np.zeros(2)])
        if self.kind == "hexagon":
            # two hexagons per rectangular period (offset rows)
            return (a2[0] - a1[0], a1[1] + a2[1], [np.zeros(2), a1])
        if self.kind == "etri":
            # two patterns per rectangular period (offset rows)
            return (a1[0], 2.0 * a2[1], [np.zeros(2), a2])
        raise MeshError(self.kind)


def _lattice_instances(shapes, a1, a2, m1_range, m2_range):
    """Every shape of shapes (s, nv, 2) moved by m1*a1 + m2*a2, for each
    (m2, m1) in row-major order: (n * s, nv, 2)."""
    m2, m1 = np.meshgrid(m2_range, m1_range, indexing="ij")
    offsets = m1.reshape(-1, 1) * a1 + m2.reshape(-1, 1) * a2
    shapes = np.asarray(shapes, float)
    return (offsets[:, None, None] + shapes).reshape(-1, *shapes.shape[1:])


def _vertex_pool(points, snap):
    """Vertices, the vertex index (P,) of each of points (P, 2) and the
    farthest a point moved. Points that round to one multiple of snap share
    a vertex, numbered by and placed at their first occurrence."""
    keys = np.rint(points / snap).astype(np.int64)   # -0.0 becomes 0
    order = np.lexsort(keys.T)   # stable: a group's first point leads it
    lead = np.r_[True, np.any(np.diff(keys[order], axis=0) != 0, axis=1)]
    first = order[lead]
    index = np.empty_like(order)
    index[order] = np.argsort(np.argsort(first))[np.cumsum(lead) - 1]
    verts = points[np.sort(first)]
    moved = np.linalg.norm(points - verts[index], axis=1).max(initial=0.0)
    return verts, index, moved


def _row_major_cells(points, cell_ptr, instance, min_area, snap):
    """Vertices and CSR pair of the polygons stored back to back in points
    (`ragged_polygons`) that have area above min_area, sorted by centroid
    y, then x, both rounded to 1e-9, ties by instance (n,); the farthest
    the vertex pool moved a point; then the areas and centroids of the
    polygons dropped."""
    area, centroid, _ = ragged_polygons(points, cell_ptr)
    # numpy's rounding, which round() of a numpy float uses too
    order = np.lexsort((instance, *np.round(centroid, 9).T))
    order = order[area[order] > min_area]
    size = np.diff(cell_ptr)[order]
    kept = np.cumsum(np.r_[0, size])
    gather = np.repeat(cell_ptr[order] - kept[:-1], size) + np.arange(kept[-1])
    verts, index, moved = _vertex_pool(points[gather], snap)
    small = area <= min_area
    return verts, kept, index, moved, area[small], centroid[small]


def build_pattern_tiling(kind, element_area, n1, n2):
    """Torus mesh of n1 x n2 lattice translates of the generating pattern.

    Works for oblique lattices (hexagons, equilateral triangles); periodicity
    is taken modulo the superlattice vectors n1*a1 and n2*a2.
    """
    pat = GeneratingPattern.make(kind, element_area)
    a1, a2 = pat.lattice
    polys = _lattice_instances(pat.elements, a1, a2, range(n1), range(n2))
    verts, index, _ = _vertex_pool(polys.reshape(-1, 2),
                                   1e-9 * np.sqrt(element_area))
    return PolyMesh(verts, np.arange(0, len(index) + 1, polys.shape[1]),
                    index, periods=(n1 * a1, n2 * a2))


def _clip_polygon_halfplane(poly, point, normal):
    """Sutherland-Hodgman clip of polygon to {x : (x - point) . normal <= 0}."""
    out = []
    n = len(poly)
    d = [np.dot(p - point, normal) for p in poly]
    for i in range(n):
        j = (i + 1) % n
        if d[i] <= 0:
            out.append(poly[i])
        if (d[i] < 0 < d[j]) or (d[j] < 0 < d[i]):
            t = d[i] / (d[i] - d[j])
            out.append(poly[i] + t * (poly[j] - poly[i]))
    return np.array(out) if out else np.zeros((0, 2))


def clip_polygon_rect(poly, x0, y0, x1, y1):
    poly = np.asarray(poly, float)
    for point, normal in (((x0, 0), (-1, 0)), ((x1, 0), (1, 0)),
                          ((0, y0), (0, -1)), ((0, y1), (0, 1))):
        poly = _clip_polygon_halfplane(poly, np.array(point, float),
                                       np.array(normal, float))
        if len(poly) < 3:
            return np.zeros((0, 2))
    return poly


def _dedupe_loop(poly, snap):
    out = []
    for p in poly:
        if not out or np.linalg.norm(p - out[-1]) > snap:
            out.append(p)
    if len(out) > 1 and np.linalg.norm(out[0] - out[-1]) <= snap:
        out.pop()
    return np.array(out)


def _checked_domain(domain):
    """The bounds (x0, y0, x1, y1) of a finite rectangle of positive area."""
    x0, y0, x1, y1 = bounds = tuple(map(float, domain))
    for name, value in zip(("x0", "y0", "x1", "y1"), bounds):
        if not np.isfinite(value):
            raise MeshError(f"{name} = {value} is not finite")
    if x1 <= x0 or y1 <= y0:
        raise MeshError("degenerate domain")
    for name, size in (("width", x1 - x0), ("height", y1 - y0)):
        if not np.isfinite(size):
            raise MeshError(f"domain {name} = {size} is not finite")
    return bounds


def build_regular_mesh(kind, element_area, domain=UNIT_SQUARE, periodic=False,
                       boundary_tag="inflow_outflow"):
    """Tile an axis-aligned rectangle with one of the four generating patterns.

    Non-periodic: boundary cells are clipped to the rectangle. Periodic: the
    pattern is scaled anisotropically (within 5% area change) so an integer
    number of lattice periods fits the rectangle exactly. Hexagons are
    pointy-top so cells line up in rows.

    Every lattice instance is placed at once as an array; cells are sorted
    row-major by centroid and share the points that round to one multiple
    of 1e-9 sqrt(element_area).
    """
    x0, y0, x1, y1 = _checked_domain(domain)
    W, H = x1 - x0, y1 - y0
    pat = GeneratingPattern.make(kind, element_area, "pointy")
    if periodic:
        pw, ph, offsets = pat.rect_period()
        ni = max(1, round(W / pw))
        nj = max(1, round(H / ph))
        sx = W / (ni * pw)
        sy = H / (nj * ph)
        if abs(sx * sy - 1.0) > 0.05:
            raise MeshError(
                f"no commensurable periodic lattice within 5% area adjustment "
                f"(scale {sx:.4f} x {sy:.4f})")
        scale = np.array([sx, sy])
        base = np.array([x0, y0]) + scale * _lattice_instances(
            np.reshape(offsets, (-1, 1, 2)), (pw, 0.0), (0.0, ph), range(ni),
            range(nj)).reshape(-1, 2)
        shapes = np.multiply(pat.elements, scale)
        polys = (base[:, None, None] + shapes).reshape(-1, *shapes.shape[1:])
        meets = inside = np.ones(len(polys), dtype=bool)
        options = {"periods": ((W, 0.0), (0.0, H))}
    else:
        # cover the rectangle with padded lattice instances
        a1, a2 = pat.lattice
        inv = np.linalg.inv(np.stack([a1, a2], axis=1))
        mm = np.array([[x0, y0], [x1, y0], [x0, y1], [x1, y1]]) @ inv.T
        lo_m = np.floor(mm.min(axis=0)).astype(int) - 2   # pad 2 each way
        hi_m = np.ceil(mm.max(axis=0)).astype(int) + 2
        polys = _lattice_instances(pat.elements, a1, a2, range(lo_m[0], hi_m[0]),
                                   range(lo_m[1], hi_m[1]))
        lo, hi = polys.min(axis=1), polys.max(axis=1)
        meets = np.all((lo <= (x1, y1)) & (hi >= (x0, y0)), axis=1)
        inside = np.all((lo >= (x0, y0)) & (hi <= (x1, y1)), axis=1)
        options = {"boundary_tag": boundary_tag}
    # clipping returns the instances inside unchanged and those outside empty
    snap = 1e-9 * np.sqrt(element_area)
    whole = np.flatnonzero(inside)
    clipped, narrow, moved = {}, 0.0, 0.0
    for i in np.flatnonzero(meets & ~inside):
        piece = clip_polygon_rect(polys[i], x0, y0, x1, y1)
        if len(c := _dedupe_loop(piece, snap)) >= 3:
            clipped[i] = c
            if len(c) < len(piece):
                # a point the loop dropped moved onto its nearest kept one
                moved = max(moved, np.linalg.norm(
                    piece[:, None] - c, axis=2).min(axis=1).max())
        elif len(piece):
            # a piece narrower than the snap, which the vertex pool would
            # close up, is left out, and its area with it
            with np.errstate(divide="ignore", invalid="ignore"):
                narrow += polygon_area_centroid(piece)[0]
    verts, cell_ptr, cell_idx, pooled, lost_area, lost_centroid = (
        _row_major_cells(
            np.concatenate([polys[whole].reshape(-1, 2),
                            *clipped.values()]),
            np.cumsum([0] + [polys.shape[1]] * len(whole)
                      + [len(c) for c in clipped.values()]),
            np.array([*whole, *clipped]), 1e-10 * element_area, snap))
    mesh = PolyMesh(verts, cell_ptr, cell_idx, **options)
    mesh.row_height = abs(pat.lattice[1, 1])
    try:
        mesh.validate(domain_area=W * H - narrow, moved=max(moved, pooled))
    except MeshError as exc:
        if not len(lost_area):
            raise
        # a domain side just off a lattice line clips slivers below the
        # area floor, whose gaps fail the area sum
        gap = np.abs(lost_centroid[:, [0, 0, 1, 1]] - (x0, x1, y0, y1))
        near = np.unique(gap.argmin(axis=1))
        sides = " and ".join(f"{('x0', 'x1', 'y0', 'y1')[i]} = "
                             f"{(x0, x1, y0, y1)[i]!r}" for i in near)
        raise MeshError(
            f"{exc}: {len(lost_area)} clipped pieces of total area "
            f"{lost_area.sum():.3g} along {sides} fell below the area floor "
            f"of 1e-10 element areas (a domain side just off a lattice "
            f"line)") from exc
    return mesh


# -- randomized Delaunay / Voronoi pair ----------------------------------

def build_random_mesh_pair(h, delta=None, domain=UNIT_SQUARE, seed=0):
    """Perturbed-grid Delaunay triangulation and clipped Voronoi diagram.

    Generating points sit on the h-grid of the rectangle, each coordinate
    independently perturbed by Uniform[-delta, delta] (numpy default_rng /
    PCG64, from the given seed; delta defaults to RANDOM_JITTER h). Points
    leaving the rectangle are discarded; the Voronoi cells are clipped to
    the rectangle by half-plane intersection with the bisectors of the
    Delaunay neighbors.
    """
    if not (np.isfinite(h) and h > 0):
        raise MeshError(f"h must be finite and positive, got {h}")
    if delta is None:
        delta = RANDOM_JITTER * h
    x0, y0, x1, y1 = _checked_domain(domain)
    if not 0 <= delta < h / 2:
        raise MeshError(f"perturbation must satisfy 0 <= delta < h/2, "
                        f"got delta={delta}")
    nx = int(round((x1 - x0) / h)) + 1
    ny = int(round((y1 - y0) / h)) + 1
    if nx * ny < 3:
        raise MeshError("fewer than 3 generating points")
    gx, gy = np.meshgrid(x0 + h * np.arange(nx), y0 + h * np.arange(ny))
    pts = np.stack([gx.ravel(), gy.ravel()], axis=1)
    rng = np.random.default_rng(seed)
    pts = pts + rng.uniform(-delta, delta, size=pts.shape)
    inside = ((pts[:, 0] >= x0) & (pts[:, 0] <= x1) &
              (pts[:, 1] >= y0) & (pts[:, 1] <= y1))
    pts = pts[inside]
    tri = Delaunay(pts)

    # Delaunay mesh: the triangles as-is. Nearly collinear generating points
    # (a tiny delta, e.g. three points on one side of the rectangle) leave
    # sliver triangles; DgSpace finds dependent monomials on some of area up
    # to ~2e-8 h^2, so any below 1e-7 h^2 is refused here by index and area.
    dmesh = PolyMesh(pts.copy(), np.arange(0, tri.simplices.size + 1, 3),
                     tri.simplices.ravel())
    slivers = np.flatnonzero(dmesh.cell_areas < 1e-7 * h * h)
    if len(slivers):
        t = slivers[0]
        raise MeshError(f"near-degenerate Delaunay triangle {t} "
                        f"(area {dmesh.cell_areas[t]:.3g})")

    # Voronoi mesh: rectangle clipped by neighbor bisectors
    indptr, nbrs = tri.vertex_neighbor_vertices
    rect = np.array([[x0, y0], [x1, y0], [x1, y1], [x0, y1]])
    snap = 1e-7 * h
    cells = []
    for i in range(len(pts)):
        poly = rect
        for j in nbrs[indptr[i]:indptr[i + 1]]:
            mid = 0.5 * (pts[i] + pts[j])
            nrm = pts[j] - pts[i]
            poly = _clip_polygon_halfplane(poly, mid, nrm)
            if len(poly) < 3:
                break
        poly = _dedupe_loop(poly, snap)
        if len(poly) < 3 or polygon_area_centroid(poly)[0] < 1e-10 * h * h:
            raise MeshError(f"near-degenerate Voronoi cell for point {i}")
        cells.append(poly)
    order = np.lexsort(pts.T)   # by y, then x
    verts, index, moved = _vertex_pool(
        np.concatenate([cells[ix] for ix in order]), snap)
    vmesh = PolyMesh(verts, np.cumsum([0] + [len(cells[ix]) for ix in order]),
                     index)
    vmesh.validate(domain_area=(x1 - x0) * (y1 - y0), moved=moved)
    return dmesh, vmesh


# -- natural ordering ----------------------------------------------------

def natural_ordering(mesh):
    """Row-major (y band, then x) permutation of cell indices.

    Bands are found by clustering centroid y values. On a regular tiling a
    new band starts at any gap above half its `row_height`, the height of
    the pointy pattern's second lattice vector: this groups the two
    triangles of a split square/rhombus into one band, interleaved along x,
    while keeping distinct rows apart even when clipped boundary cells blur
    the gap structure. On any other mesh the threshold is 60% of the
    largest gap.
    """
    cx, cy = mesh.cell_centroids.T
    order = np.argsort(cy, kind="stable")
    gaps = np.diff(cy[order])
    band = np.zeros(mesh.n_cells, dtype=int)
    if len(gaps) and gaps.max() > 0:
        thr = (0.6 * gaps.max() if mesh.row_height is None
               else 0.5 * mesh.row_height)
        band[order[1:]] = np.cumsum(gaps > thr)
    return np.lexsort((cx, band))   # stable: ties keep cell order


# -- mesh file I/O -------------------------------------------------------

def write_mesh(mesh, path):
    """Header, full-precision vertices, cells, periods, row height."""
    lines = ["polymesh 1"]
    lines.append(f"vertices {len(mesh.vertices)}")
    for v in mesh.vertices:
        lines.append(f"{float(v[0])!r} {float(v[1])!r}")
    lines.append(f"cells {mesh.n_cells}")
    ptr, idx = mesh.cell_ptr.tolist(), mesh.cell_idx.tolist()
    lines += [" ".join(map(str, idx[a:b])) for a, b in zip(ptr, ptr[1:])]
    if mesh.periods is not None:
        x1, y1, x2, y2 = mesh.periods.ravel().tolist()
        lines.append(f"periodic {x1!r} {y1!r} {x2!r} {y2!r}")
    if mesh.row_height is not None:
        lines.append(f"row_height {float(mesh.row_height)!r}")
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


def read_mesh(path):
    """Read the format of write_mesh. The optional line `periodic x1 y1 x2
    y2` gives the torus's two translations, which glue every boundary side
    to its translate; the optional line after it sets the mesh's row
    height. Any other non-blank line is refused."""
    with open(path) as f:
        raw = f.read().splitlines()

    def fail(lineno, msg):
        raise MeshError(f"{path}:{lineno + 1}: {msg}")

    def count(i, name):
        tok = raw[i].split() if i < len(raw) else []
        if len(tok) != 2 or tok[0] != name or not tok[1].isdecimal():
            fail(i, f"expected '{name} N'")
        return int(tok[1])

    def values(i, kind, what, n=None, skip=0):
        try:
            vals = [kind(t) for t in raw[i].split()[skip:]]
        except (IndexError, ValueError):
            vals = None
        if vals is None or n not in (None, len(vals)):
            fail(i, f"expected {what}")
        return vals

    if not raw or raw[0].strip() != "polymesh 1":
        fail(0, "expected header 'polymesh 1'")
    nv = count(1, "vertices")
    verts = [values(2 + k, float, "'x y'", 2) for k in range(nv)]
    i = 2 + nv
    nc = count(i, "cells")
    cells = [values(i + 1 + k, int, "vertex indices") for k in range(nc)]
    i += 1 + nc
    periods = row_height = None
    if i < len(raw) and raw[i].split()[:1] == ["periodic"]:
        what = "'periodic x1 y1 x2 y2' with finite values"
        periods = values(i, float, what, 4, skip=1)
        if not np.all(np.isfinite(periods)):
            fail(i, f"expected {what}")
        periods, periodic_line, i = np.reshape(periods, (2, 2)), i, i + 1
    if i < len(raw) and raw[i].strip():
        what = "'row_height y' with y finite and positive"
        row_height, = values(i, float, what, 1, skip=1)
        if raw[i].split()[0] != "row_height" or not 0.0 < row_height < np.inf:
            fail(i, f"expected {what}")
        i += 1
    for j in range(i, len(raw)):
        if raw[j].strip():
            fail(j, f"unexpected {raw[j].strip()!r}")
    try:
        mesh = PolyMesh(verts, np.cumsum([0] + [len(c) for c in cells]),
                        [v for c in cells for v in c], periods=periods)
    except _VertexError as exc:
        fail(2 + exc.item, str(exc))
    except _UnpairedSide as exc:
        fail(periodic_line, str(exc))
    mesh.row_height = row_height
    return mesh
