"""The per-polygon rectangle clip that `build_regular_mesh` once ran on
each boundary instance, kept as the oracle of its batched clip."""

import numpy as np

from polydg.mesh import _clip_polygon_halfplane


def clip_polygon_rect(poly, x0, y0, x1, y1):
    poly = np.asarray(poly, float)
    for point, normal in (((x0, 0), (-1, 0)), ((x1, 0), (1, 0)),
                          ((0, y0), (0, -1)), ((0, y1), (0, 1))):
        poly = _clip_polygon_halfplane(poly, np.array(point, float),
                                       np.array(normal, float))
        if len(poly) < 3:
            return np.zeros((0, 2))
    return poly
