"""Polygonal meshes: regular generating-pattern tessellations, randomized
Delaunay/Voronoi pairs, element ordering, and mesh file I/O."""

from dataclasses import dataclass

import numpy as np
from scipy.spatial import Delaunay, cKDTree

from .basis import polygon_area_centroid

BOUNDARY = -1

PATTERN_KINDS = ("hexagon", "square", "rtri", "etri")


class MeshError(Exception):
    pass


class _PairError(MeshError):
    """An invalid periodic pair; `pair` is its index in the given list."""

    def __init__(self, pair, msg):
        super().__init__(msg)
        self.pair = pair


class PolyMesh:
    """Planar polygonal tessellation with edge-neighbor topology.

    `cells` are vertex-index lists, turned counter-clockwise. A directed
    side is a pair of consecutive vertices of a cell; sides are numbered in
    cell order. An edge is a side and its reverse, a boundary side, or two
    boundary sides glued periodically. The edges are arrays in edge order:
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

    periodic_pairs is None (every unmatched side is a boundary edge),
    "auto" (each unmatched side pairs with its translate by a combination
    of the two periodic_translations) or a list of side-index pairs
    (a, b), side b being side a translated and reversed.
    """

    def __init__(self, vertices, cells, periodic_pairs=None, boundary_tag="inflow_outflow",
                 periodic_translations=None):
        self.vertices = np.asarray(vertices, dtype=float)
        self.cells = [list(map(int, c)) for c in cells]
        if not self.cells:
            raise MeshError("empty cell list")
        self.n_cells = len(self.cells)
        self.boundary_tag = boundary_tag
        counts = np.array([len(c) for c in self.cells])
        self._orient_ccw(counts)
        self._build_edges(counts, periodic_pairs, periodic_translations)

    # -- construction ----------------------------------------------------

    def _orient_ccw(self, counts):
        """Reverse the clockwise cells; set areas and centroids, computed
        for each group of cells with the same vertex count at once."""
        short = np.flatnonzero(counts < 3)
        if len(short):
            raise MeshError(
                f"cell {self.cells[short[0]]} has fewer than 3 vertices")
        flat = np.concatenate(self.cells)
        missing = (flat < 0) | (flat >= len(self.vertices))
        if missing.any():
            c = np.repeat(np.arange(self.n_cells), counts)[missing][0]
            raise MeshError(f"cell references missing vertex: {self.cells[c]}")
        self.cell_areas = np.empty(self.n_cells)
        self.cell_centroids = np.empty((self.n_cells, 2))
        for nv in np.unique(counts):
            idx = np.flatnonzero(counts == nv)
            cells = np.array([self.cells[c] for c in idx])
            area, centroid = polygon_area_centroid(self.vertices[cells])
            flip = area < 0
            if flip.any():
                cells[flip] = cells[flip, ::-1]
                area[flip], centroid[flip] = polygon_area_centroid(
                    self.vertices[cells[flip]])
                for c in idx[flip]:
                    self.cells[c].reverse()
            self.cell_areas[idx], self.cell_centroids[idx] = area, centroid
        if np.any(self.cell_areas <= 0.0):
            raise MeshError("cell with non-positive area")

    def _build_edges(self, counts, periodic_pairs, translations):
        # directed sides (a, b) in cell order; the partner of a side is the
        # side (b, a), or -1
        ends = np.stack((np.concatenate(self.cells),
                         np.concatenate([c[1:] + c[:1] for c in self.cells])),
                        axis=1)
        side_cell = np.repeat(np.arange(self.n_cells), counts)
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
        if periodic_pairs is None:
            pairs, shifts = np.empty((0, 2), dtype=np.int64), np.empty((0, 2))
        elif periodic_pairs == "auto":
            pairs, shifts = _match_periodic(unmatched, mids[unmatched],
                                            translations)
        else:
            pairs = self._checked_pairs(periodic_pairs, partner, p0, p1)
            shifts = mids[pairs[:, 0]] - mids[pairs[:, 1]]
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

    def _checked_pairs(self, pairs, partner, p0, p1):
        """pairs as a (K, 2) array, after checking that each names two
        boundary sides, not named before, the second the first translated
        and reversed."""
        seen = set()
        for k, (a, b) in enumerate(pairs):
            for s in (a, b):
                if not 0 <= s < len(partner):
                    msg = f"side {s} out of range 0..{len(partner) - 1}"
                elif partner[s] >= 0:
                    msg = f"side {s} is not a boundary side"
                elif s in seen:
                    msg = f"side {s} is paired twice"
                else:
                    seen.add(s)
                    continue
                raise _PairError(k, f"periodic pair {a} {b}: {msg}")
            gap = (p0[b] - p1[a]) - (p1[b] - p0[a])
            if np.hypot(*gap) > 1e-9 * np.hypot(*(p1[a] - p0[a])):
                raise _PairError(k, f"periodic pair {a} {b}: side {b} is not "
                                    f"side {a} translated and reversed")
        return np.array(pairs, dtype=np.int64).reshape(-1, 2)

    # -- queries ---------------------------------------------------------

    def cell_vertices(self, c):
        return self.vertices[self.cells[c]]

    @property
    def is_periodic(self):
        return len(self.periodic_map) > 0

    # -- validation ------------------------------------------------------

    def validate(self, domain_area=None):
        if domain_area is not None:
            total = self.cell_areas.sum()
            if abs(total - domain_area) > 1e-12 * domain_area:
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


def _match_periodic(sides, mids, translations):
    """Pair the sides (B,) whose midpoints mids (B, 2) differ by one of the
    lattice translations, each side with the first free match in the order
    +-t1, +-t2, +-(t1 + t2), +-(t1 - t2). Returns the side pairs (K, 2) and
    the shifts (K, 2): the right cell of an edge lives at -t."""
    if not translations:
        raise MeshError("periodic matching requires translation vectors")
    t1, t2 = (np.asarray(t, float) for t in translations)
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
            raise MeshError(f"unpaired periodic boundary side {sides[i]}")
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
    if area <= 0:
        raise MeshError("element area must be positive")
    return np.sqrt(4.0 * area / SQRT3)


@dataclass
class GeneratingPattern:
    """One- or two-element polygon motif whose lattice translations tile the plane."""
    kind: str
    elements: list          # list of (n, 2) vertex arrays
    lattice: np.ndarray     # (2, 2), rows a1, a2
    orientation: str = "flat"

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
            return cls(kind, els, pat.lattice @ rot.T, "pointy")
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

    @property
    def element_area(self):
        return polygon_area_centroid(self.elements[0])[0]

    def rect_period(self):
        """Smallest (width, height, translate offsets) of a rectangle-periodic
        unit for this pattern's lattice."""
        a1, a2 = self.lattice
        if self.kind in ("square", "rtri"):
            return (a1[0], a2[1], [np.zeros(2)])
        if self.kind == "hexagon":
            if self.orientation == "pointy":
                # two hexagons per rectangular period (offset rows)
                return (a2[0] - a1[0], a1[1] + a2[1], [np.zeros(2), a1])
            # two hexagons per rectangular period (offset columns)
            return (a1[0] + a2[0], a1[1] - a2[1], [np.zeros(2), a1])
        if self.kind == "etri":
            # two patterns per rectangular period (offset rows)
            return (a1[0], 2.0 * a2[1], [np.zeros(2), a2])
        raise MeshError(self.kind)


def _vertex_pool():
    pool = {}
    verts = []

    def get(pt, snap):
        key = (round(pt[0] / snap), round(pt[1] / snap))
        idx = pool.get(key)
        if idx is None:
            idx = len(verts)
            pool[key] = idx
            verts.append(np.asarray(pt, float))
        return idx

    return verts, get


def build_pattern_tiling(kind, element_area, n1, n2, periodic=True):
    """Torus mesh of n1 x n2 lattice translates of the generating pattern.

    Works for oblique lattices (hexagons, equilateral triangles); periodicity
    is taken modulo the superlattice vectors n1*a1 and n2*a2.
    """
    pat = GeneratingPattern.make(kind, element_area)
    a1, a2 = pat.lattice
    snap = 1e-9 * np.sqrt(element_area)
    verts, get = _vertex_pool()
    cells = []
    for m2 in range(n2):
        for m1 in range(n1):
            off = m1 * a1 + m2 * a2
            for el in pat.elements:
                cells.append([get(p + off, snap) for p in el])
    mesh = PolyMesh(verts, cells,
                    periodic_pairs="auto" if periodic else None,
                    periodic_translations=(n1 * a1, n2 * a2))
    return mesh


def _clip_polygon_halfplane(poly, point, normal):
    """Sutherland-Hodgman clip of polygon to {x : (x - point) . normal <= 0}."""
    out = []
    n = len(poly)
    if n == 0:
        return poly
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


def _row_major_key(poly):
    """Sort key of a polygon: its centroid's y, then x, rounded to 1e-9."""
    c = polygon_area_centroid(poly)[1]
    return round(c[1], 9), round(c[0], 9)


def build_regular_mesh(kind, element_area, domain, periodic=False,
                       boundary_tag="inflow_outflow", orientation="pointy"):
    """Tile an axis-aligned rectangle with one of the four generating patterns.

    Non-periodic: boundary cells are clipped to the rectangle. Periodic: the
    pattern is scaled anisotropically (within 5% area change) so an integer
    number of lattice periods fits the rectangle exactly. Hexagons default to
    the pointy-top orientation so cells line up in rows.
    """
    x0, y0, x1, y1 = map(float, domain)
    W, H = x1 - x0, y1 - y0
    if element_area <= 0:
        raise MeshError("element area must be positive")
    if W <= 0 or H <= 0:
        raise MeshError("degenerate domain")
    pat = GeneratingPattern.make(kind, element_area, orientation)
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
        snap = 1e-9 * np.sqrt(element_area)
        verts, get = _vertex_pool()
        cells = []
        instances = []
        for j in range(nj):
            for i in range(ni):
                for off in offsets:
                    base = np.array([x0, y0]) + scale * (np.array([i * pw, j * ph]) + off)
                    for el in pat.elements:
                        poly = base + el * scale
                        instances.append(poly)
        for poly in sorted(instances, key=_row_major_key):
            cells.append([get(p, snap) for p in poly])
        mesh = PolyMesh(verts, cells, periodic_pairs="auto",
                        periodic_translations=((W, 0.0), (0.0, H)))
        mesh.validate(domain_area=W * H)
        return mesh
    # non-periodic: cover and clip
    a1, a2 = pat.lattice
    inv = np.linalg.inv(np.stack([a1, a2], axis=1))
    corners = np.array([[x0, y0], [x1, y0], [x0, y1], [x1, y1]])
    mm = corners @ inv.T
    pad = 2
    m1_range = range(int(np.floor(mm[:, 0].min())) - pad, int(np.ceil(mm[:, 0].max())) + pad)
    m2_range = range(int(np.floor(mm[:, 1].min())) - pad, int(np.ceil(mm[:, 1].max())) + pad)
    snap = 1e-9 * np.sqrt(element_area)
    polys = []
    for m2 in m2_range:
        for m1 in m1_range:
            off = m1 * a1 + m2 * a2
            for el in pat.elements:
                poly = el + off
                lo, hi = poly.min(axis=0), poly.max(axis=0)
                # wholly outside, clipping leaves nothing the area test keeps;
                # wholly inside, it returns the polygon unchanged
                if lo[0] > x1 or hi[0] < x0 or lo[1] > y1 or hi[1] < y0:
                    continue
                if lo[0] >= x0 and hi[0] <= x1 and lo[1] >= y0 and hi[1] <= y1:
                    clipped = poly
                else:
                    clipped = clip_polygon_rect(poly, x0, y0, x1, y1)
                if len(clipped) >= 3:
                    clipped = _dedupe_loop(clipped, snap)
                    if len(clipped) >= 3:
                        area, _ = polygon_area_centroid(clipped)
                        if area > 1e-10 * element_area:
                            polys.append(clipped)
    verts, get = _vertex_pool()
    cells = [[get(p, snap) for p in poly]
             for poly in sorted(polys, key=_row_major_key)]
    mesh = PolyMesh(verts, cells, boundary_tag=boundary_tag)
    mesh.validate(domain_area=W * H)
    return mesh


# -- randomized Delaunay / Voronoi pair ----------------------------------

def build_random_mesh_pair(h, delta, domain=(0.0, 0.0, 1.0, 1.0), seed=0):
    """Perturbed-grid Delaunay triangulation and clipped Voronoi diagram.

    Generating points sit on the h-grid of the rectangle, each coordinate
    independently perturbed by Uniform[-delta, delta] (numpy default_rng /
    PCG64, from the given seed). Points leaving the rectangle are discarded;
    the Voronoi cells are clipped to the rectangle by half-plane intersection
    with the bisectors of the Delaunay neighbors.
    """
    x0, y0, x1, y1 = map(float, domain)
    if delta < 0 or delta >= h / 2:
        raise MeshError("perturbation must satisfy 0 <= delta < h/2")
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
    dmesh = PolyMesh(pts.copy(), [list(s) for s in tri.simplices])
    slivers = np.flatnonzero(dmesh.cell_areas < 1e-7 * h * h)
    if len(slivers):
        t = slivers[0]
        raise MeshError(f"near-degenerate Delaunay triangle {t} "
                        f"(area {dmesh.cell_areas[t]:.3g})")

    # Voronoi mesh: rectangle clipped by neighbor bisectors
    indptr, nbrs = tri.vertex_neighbor_vertices
    rect = np.array([[x0, y0], [x1, y0], [x1, y1], [x0, y1]])
    snap = 1e-7 * h
    verts, get = _vertex_pool()
    cells = []
    centers = []
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
        centers.append(pts[i])
    order = sorted(range(len(cells)),
                   key=lambda ix: (centers[ix][1], centers[ix][0]))
    vcells = [[get(p, snap) for p in cells[ix]] for ix in order]
    vmesh = PolyMesh(verts, vcells)
    vmesh.validate(domain_area=(x1 - x0) * (y1 - y0))
    return dmesh, vmesh


# -- natural ordering ----------------------------------------------------

def pattern_row_height(kind, element_area, orientation="pointy"):
    """Vertical spacing between cell rows of a regular tiling.

    For the two-triangle patterns one "row" holds both triangles of each
    split square/rhombus, so their centroids interleave along x.
    """
    h = pattern_side_length(kind, h_E_from_area(element_area))
    if kind in ("square", "rtri"):
        return h
    if kind == "etri":
        return SQRT3 / 2.0 * h
    if kind == "hexagon":
        return 1.5 * h if orientation == "pointy" else SQRT3 / 2.0 * h
    raise MeshError(f"unknown pattern kind {kind!r}")


def natural_ordering(mesh, band_height=None):
    """Row-major (y band, then x) permutation of cell indices.

    Bands are found by clustering centroid y values. With band_height given
    (the known row spacing of a regular tiling), a new band starts at any gap
    above half of it; this groups the two triangles of a split square into one
    band, interleaved along x, while keeping distinct rows apart even when
    clipped boundary cells blur the gap structure. Without it, the threshold
    falls back to 60% of the largest gap.
    """
    cy = mesh.cell_centroids[:, 1]
    cx = mesh.cell_centroids[:, 0]
    order = np.argsort(cy, kind="stable")
    gaps = np.diff(cy[order])
    band = np.zeros(mesh.n_cells, dtype=int)
    if len(gaps) and gaps.max() > 0:
        thr = 0.5 * band_height if band_height is not None else 0.6 * gaps.max()
        b = 0
        band[order[0]] = 0
        for i, g in enumerate(gaps):
            if g > thr:
                b += 1
            band[order[i + 1]] = b
    perm = sorted(range(mesh.n_cells), key=lambda c: (band[c], cx[c], c))
    return np.array(perm, dtype=int)


# -- mesh file I/O -------------------------------------------------------

def write_mesh(mesh, path):
    """Text format: header, full-precision vertices, cells, periodic pairs."""
    lines = ["polymesh 1"]
    lines.append(f"vertices {len(mesh.vertices)}")
    for v in mesh.vertices:
        lines.append(f"{float(v[0])!r} {float(v[1])!r}")
    lines.append(f"cells {mesh.n_cells}")
    for c in mesh.cells:
        lines.append(" ".join(str(i) for i in c))
    if mesh.is_periodic:
        lines.append(f"periodic {len(mesh.periodic_map)}")
        for a, b in mesh.periodic_map:
            lines.append(f"{a} {b}")
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


def read_mesh(path):
    """Read the format of write_mesh. The optional periodic section lists
    pairs of directed side indices (in cell order) glued by translation."""
    with open(path) as f:
        raw = f.read().splitlines()

    def fail(lineno, msg):
        raise MeshError(f"{path}:{lineno + 1}: {msg}")

    def count(i, name):
        tok = raw[i].split() if i < len(raw) else []
        if len(tok) != 2 or tok[0] != name or not tok[1].isdecimal():
            fail(i, f"expected '{name} N'")
        return int(tok[1])

    def values(i, kind, what, n=None):
        try:
            vals = [kind(t) for t in raw[i].split()]
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
    pairs = []
    if i < len(raw) and raw[i].strip():
        pairs = [values(i + 1 + k, int, "two side indices", 2)
                 for k in range(count(i, "periodic"))]
    try:
        return PolyMesh(verts, cells, periodic_pairs=pairs or None)
    except _PairError as exc:
        fail(i + 1 + exc.pair, str(exc))
