"""Polygonal meshes: regular generating-pattern tessellations, randomized
Delaunay/Voronoi pairs, element ordering, and mesh file I/O."""

from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import Delaunay, cKDTree

from .basis import polygon_area_centroid

BOUNDARY = -1

PATTERN_KINDS = ("hexagon", "square", "rtri", "etri")


class MeshError(Exception):
    pass


@dataclass
class Edge:
    left: int                 # cell on the side the normal points away from
    right: int                # neighbor cell, or BOUNDARY
    v0: int
    v1: int
    normal: np.ndarray        # unit outward normal w.r.t. left
    length: float
    shift: np.ndarray         # translation: right cell polygon + shift touches edge
    tag: str = "interior"     # interior | periodic | inflow_outflow | exact_state


class PolyMesh:
    """Planar polygonal tessellation with edge-neighbor topology."""

    def __init__(self, vertices, cells, periodic_pairs=None, boundary_tag="inflow_outflow",
                 periodic_translations=None):
        self.vertices = np.asarray(vertices, dtype=float)
        self.cells = [list(map(int, c)) for c in cells]
        if not self.cells:
            raise MeshError("empty cell list")
        self._orient_ccw()
        self.n_cells = len(self.cells)
        areas = []
        centroids = []
        for c in self.cells:
            a, ctr = polygon_area_centroid(self.vertices[c])
            areas.append(a)
            centroids.append(ctr)
        self.cell_areas = np.array(areas)
        self.cell_centroids = np.array(centroids)
        if np.any(self.cell_areas <= 0.0):
            raise MeshError("cell with non-positive area")
        self.edges: list[Edge] = []
        self.periodic_map: list[tuple[int, int]] = []
        self._build_edges(periodic_pairs, periodic_translations, boundary_tag)

    # -- construction ----------------------------------------------------

    def _orient_ccw(self):
        for c in self.cells:
            if len(c) < 3:
                raise MeshError(f"cell {c} has fewer than 3 vertices")
            if max(c) >= len(self.vertices) or min(c) < 0:
                raise MeshError(f"cell references missing vertex: {c}")
            area, _ = polygon_area_centroid(self.vertices[c])
            if area < 0:
                c.reverse()

    def _sides(self):
        """All (cell, v_a, v_b) directed sides in cell order."""
        out = []
        for ci, c in enumerate(self.cells):
            for k in range(len(c)):
                out.append((ci, c[k], c[(k + 1) % len(c)]))
        return out

    def _build_edges(self, periodic_pairs, periodic_translations, boundary_tag):
        sides = self._sides()
        directed = {}
        for si, (ci, a, b) in enumerate(sides):
            if (a, b) in directed:
                raise MeshError(f"duplicate directed side ({a}, {b})")
            directed[(a, b)] = si
        matched = [False] * len(sides)
        boundary_sides = []
        for si, (ci, a, b) in enumerate(sides):
            if matched[si]:
                continue
            sj = directed.get((b, a))
            if sj is not None and sj != si:
                cj = sides[sj][0]
                self._add_edge(ci, cj, a, b, np.zeros(2), "interior")
                matched[si] = matched[sj] = True
            else:
                boundary_sides.append(si)
        if periodic_pairs == "auto":
            self._match_periodic(sides, boundary_sides, periodic_translations)
        else:
            for si in boundary_sides:
                ci, a, b = sides[si]
                self._add_edge(ci, BOUNDARY, a, b, np.zeros(2), boundary_tag)

    def _match_periodic(self, sides, boundary_sides, translations):
        if not translations:
            raise MeshError("periodic matching requires translation vectors")
        t1, t2 = (np.asarray(t, float) for t in translations)
        cand = [t1, -t1, t2, -t2, t1 + t2, -(t1 + t2), t1 - t2, t2 - t1]
        mids = {}
        scale = max(np.linalg.norm(t1), np.linalg.norm(t2))
        for si in boundary_sides:
            ci, a, b = sides[si]
            mid = 0.5 * (self.vertices[a] + self.vertices[b])
            mids[si] = mid
        tree_pts = np.array([mids[si] for si in boundary_sides])
        tree = cKDTree(tree_pts)
        used = set()
        for idx, si in enumerate(boundary_sides):
            if si in used:
                continue
            found = None
            for t in cand:
                target = mids[si] + t
                dist, j = tree.query(target)
                if dist < 1e-8 * scale:
                    sj = boundary_sides[j]
                    if sj != si and sj not in used:
                        found = (sj, t)
                        break
            if found is None:
                raise MeshError(f"unpaired periodic boundary side {si}")
            sj, t = found
            ci, a, b = sides[si]
            cj, a2, b2 = sides[sj]
            # one edge record per geometric interface; right cell lives at -t
            self._add_edge(ci, cj, a, b, -t, "periodic")
            self.periodic_map.append((si, sj))
            used.add(si)
            used.add(sj)

    def _add_edge(self, left, right, v0, v1, shift, tag):
        p0 = self.vertices[v0]
        p1 = self.vertices[v1]
        d = p1 - p0
        length = float(np.hypot(d[0], d[1]))
        if length <= 0:
            raise MeshError("zero-length edge")
        normal = np.array([d[1], -d[0]]) / length
        self.edges.append(Edge(left, right, v0, v1, normal, length,
                               np.asarray(shift, float), tag))

    # -- queries ---------------------------------------------------------

    def cell_vertices(self, c):
        return self.vertices[self.cells[c]]

    def edge_arrays(self):
        """Per-edge left and right cells (E,), unit normals and shifts
        (E, 2), as arrays in edge order."""
        left = np.array([e.left for e in self.edges], dtype=np.int64)
        right = np.array([e.right for e in self.edges], dtype=np.int64)
        normals = np.array([e.normal for e in self.edges]).reshape(-1, 2)
        shifts = np.array([e.shift for e in self.edges]).reshape(-1, 2)
        return left, right, normals, shifts

    @property
    def is_periodic(self):
        return any(e.tag == "periodic" for e in self.edges)

    def set_boundary_tag(self, tag):
        for e in self.edges:
            if e.right == BOUNDARY:
                e.tag = tag

    # -- validation ------------------------------------------------------

    def validate(self, domain_area=None):
        if domain_area is not None:
            total = self.cell_areas.sum()
            if abs(total - domain_area) > 1e-12 * domain_area:
                raise MeshError(f"area sum {total} != domain area {domain_area}")
        acc = np.zeros((self.n_cells, 2))
        for e in self.edges:
            acc[e.left] += e.length * e.normal
            if e.right != BOUNDARY:
                acc[e.right] -= e.length * e.normal
        scale = np.sqrt(self.cell_areas.mean())
        if np.max(np.abs(acc)) > 1e-12 * max(scale, 1.0) * 100:
            raise MeshError("cell edge closure violated")
        return True


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
        # sort instances row-major by centroid
        keyed = sorted(range(len(instances)),
                       key=lambda ix: (round(polygon_area_centroid(instances[ix])[1][1], 9),
                                       round(polygon_area_centroid(instances[ix])[1][0], 9)))
        for ix in keyed:
            cells.append([get(p, snap) for p in instances[ix]])
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
                clipped = clip_polygon_rect(poly, x0, y0, x1, y1)
                if len(clipped) >= 3:
                    clipped = _dedupe_loop(clipped, snap)
                    if len(clipped) >= 3:
                        area, _ = polygon_area_centroid(clipped)
                        if area > 1e-10 * element_area:
                            polys.append(clipped)
    polys.sort(key=lambda p: (round(polygon_area_centroid(p)[1][1], 9),
                              round(polygon_area_centroid(p)[1][0], 9)))
    verts, get = _vertex_pool()
    cells = [[get(p, snap) for p in poly] for poly in polys]
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
    if mesh.periodic_map:
        lines.append(f"periodic {len(mesh.periodic_map)}")
        for a, b in mesh.periodic_map:
            lines.append(f"{a} {b}")
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


def read_mesh(path):
    with open(path) as f:
        raw = f.read().splitlines()

    def fail(lineno, msg):
        raise MeshError(f"{path}:{lineno + 1}: {msg}")

    if not raw or raw[0].strip() != "polymesh 1":
        fail(0, "expected header 'polymesh 1'")
    i = 1
    try:
        tok = raw[i].split()
        assert tok[0] == "vertices"
        nv = int(tok[1])
    except Exception:
        fail(i, "expected 'vertices N'")
    verts = []
    for k in range(nv):
        i += 1
        try:
            x, y = map(float, raw[i].split())
        except Exception:
            fail(i, "expected 'x y'")
        verts.append((x, y))
    i += 1
    try:
        tok = raw[i].split()
        assert tok[0] == "cells"
        nc = int(tok[1])
    except Exception:
        fail(i, "expected 'cells M'")
    cells = []
    for k in range(nc):
        i += 1
        try:
            cells.append([int(t) for t in raw[i].split()])
        except Exception:
            fail(i, "expected vertex indices")
    pairs = []
    if i + 1 < len(raw) and raw[i + 1].strip():
        i += 1
        tok = raw[i].split()
        if tok[0] != "periodic":
            fail(i, "expected 'periodic K'")
        np_pairs = int(tok[1])
        for k in range(np_pairs):
            i += 1
            a, b = map(int, raw[i].split())
            pairs.append((a, b))
    mesh = PolyMesh(verts, cells)
    if pairs:
        mesh = _mesh_with_periodic_sides(verts, cells, pairs)
    return mesh


def _mesh_with_periodic_sides(verts, cells, pairs):
    """Rebuild a mesh pairing the given directed side indices periodically."""
    mesh = PolyMesh(verts, cells)
    sides = mesh._sides()
    # remove the boundary edges corresponding to paired sides, then add
    # a periodic edge per pair (shift from midpoint difference)
    new = PolyMesh.__new__(PolyMesh)
    new.vertices = mesh.vertices
    new.cells = mesh.cells
    new.n_cells = mesh.n_cells
    new.cell_areas = mesh.cell_areas
    new.cell_centroids = mesh.cell_centroids
    new.edges = []
    new.periodic_map = list(pairs)
    paired = {a for a, b in pairs} | {b for a, b in pairs}
    directed = {}
    for si, (ci, a, b) in enumerate(sides):
        directed[(a, b)] = si
    done = set()
    for si, (ci, a, b) in enumerate(sides):
        if si in done:
            continue
        sj = directed.get((b, a))
        if sj is not None and sj != si:
            new._add_edge(ci, sides[sj][0], a, b, np.zeros(2), "interior")
            done.add(si)
            done.add(sj)
        elif si not in paired:
            new._add_edge(ci, BOUNDARY, a, b, np.zeros(2), "inflow_outflow")
            done.add(si)
    for a, b in pairs:
        ci, va, vb = sides[a]
        cj, va2, vb2 = sides[b]
        mid_a = 0.5 * (new.vertices[va] + new.vertices[vb])
        mid_b = 0.5 * (new.vertices[va2] + new.vertices[vb2])
        new._add_edge(ci, cj, va, vb, mid_b - mid_a, "periodic")
        done.add(a)
        done.add(b)
    return new
