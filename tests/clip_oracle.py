"""The per-polygon Sutherland-Hodgman clip and dedupe that the mesh builders
once ran on each polygon, kept as the oracle of `mesh._clip_halfplanes`:
the rectangle clip of each boundary instance of a regular mesh and the
per-cell loop of the Voronoi mesh."""

import numpy as np


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


def _dedupe_loop(poly, snap):
    out = []
    for p in poly:
        if not out or np.linalg.norm(p - out[-1]) > snap:
            out.append(p)
    if len(out) > 1 and np.linalg.norm(out[0] - out[-1]) <= snap:
        out.pop()
    return np.array(out)


def clip_polygon(poly, points, normals):
    """poly clipped to the half-planes (x - point) . normal <= 0 in turn;
    empty once fewer than 3 points are left."""
    poly = np.asarray(poly, float)
    for point, normal in zip(points, normals):
        poly = _clip_polygon_halfplane(poly, np.asarray(point, float),
                                       np.asarray(normal, float))
        if len(poly) < 3:
            return np.zeros((0, 2))
    return poly


def clip_polygon_rect(poly, x0, y0, x1, y1):
    return clip_polygon(poly, ((x0, 0), (x1, 0), (0, y0), (0, y1)),
                        ((-1, 0), (1, 0), (0, -1), (0, 1)))


def voronoi_cells(pts, tri, rect, snap):
    """The cell of each of pts in the polygon rect: rect clipped by the
    bisectors of the point's Delaunay neighbors in tri, then deduped."""
    indptr, nbrs = tri.vertex_neighbor_vertices
    cells = []
    for i in range(len(pts)):
        poly = rect
        for j in nbrs[indptr[i]:indptr[i + 1]]:
            mid = 0.5 * (pts[i] + pts[j])
            nrm = pts[j] - pts[i]
            poly = _clip_polygon_halfplane(poly, mid, nrm)
            if len(poly) < 3:
                break
        cells.append(_dedupe_loop(poly, snap))
    return cells
