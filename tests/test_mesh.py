"""Mesh construction, validation, ordering, and serialization tests."""

import re

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

import clip_oracle
from polydg import experiments
from polydg import mesh as mesh_module
from polydg.basis import polygon_area_centroid
from polydg.mesh import (BOUNDARY, UNIT_SQUARE, GeneratingPattern, MeshError,
                         PolyMesh, build_pattern_tiling, build_random_mesh_pair,
                         build_regular_mesh, h_E_from_area, natural_ordering,
                         pattern_side_length, read_mesh, write_mesh)

PATTERNS = ("hexagon", "square", "rtri", "etri")


def csr(cells):
    """The CSR pair (cell_ptr, cell_idx) of vertex-index lists."""
    return (np.cumsum([0] + [len(c) for c in cells]),
            np.array([v for c in cells for v in c], dtype=np.int64))


def cell_lists(cell_ptr, cell_idx):
    """The vertex-index lists of a CSR pair."""
    return [list(map(int, cell_idx[a:b]))
            for a, b in zip(cell_ptr[:-1], cell_ptr[1:])]


def test_equal_area_law():
    h_E = 1.3
    area = np.sqrt(3.0) / 4.0 * h_E ** 2
    for kind in PATTERNS:
        pat = GeneratingPattern.make(kind, area)
        for el in pat.elements:
            a = 0.5 * abs(np.sum(el[:, 0] * np.roll(el[:, 1], -1)
                                 - np.roll(el[:, 0], -1) * el[:, 1]))
            assert abs(a - area) < 1e-12 * area


def test_side_length_relations():
    h_E = 1.0
    assert pattern_side_length("square", h_E) == pytest.approx(3.0 ** 0.25 / 2.0)
    assert pattern_side_length("hexagon", h_E) == pytest.approx(1.0 / np.sqrt(6.0))
    assert pattern_side_length("rtri", h_E) == pytest.approx(3.0 ** 0.25 / np.sqrt(2.0))
    assert pattern_side_length("etri", h_E) == pytest.approx(1.0)
    assert h_E_from_area(np.sqrt(3.0) / 4.0) == pytest.approx(1.0)


def test_pattern_tiles_plane_by_area():
    # 3x3 patch of lattice translates covers 9 * pattern area with no overlap
    for kind in PATTERNS:
        mesh = build_pattern_tiling(kind, 1.0, 3, 3)
        pat = GeneratingPattern.make(kind, 1.0)
        expected = 9 * len(pat.elements) * 1.0
        assert mesh.cell_areas.sum() == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("kind", PATTERNS)
def test_edge_reciprocity_and_closure(kind):
    mesh = build_regular_mesh(kind, 0.01, (0.0, 0.0, 1.0, 1.0))
    # closed polygons: sum of length * outward normal vanishes per cell
    acc = np.zeros((mesh.n_cells, 2))
    for left, right, length, normal in zip(mesh.edge_left, mesh.edge_right,
                                           mesh.edge_lengths,
                                           mesh.edge_normals):
        acc[left] += length * normal
        if right != BOUNDARY:
            acc[right] -= length * normal
    # boundary edges of each cell included via the BOUNDARY branch
    for c in range(mesh.n_cells):
        assert np.linalg.norm(acc[c]) < 1e-12


@pytest.mark.parametrize("kind", PATTERNS)
def test_domain_area_covered(kind):
    mesh = build_regular_mesh(kind, 0.01, (0.0, 0.0, 1.0, 1.0))
    assert mesh.cell_areas.sum() == pytest.approx(1.0, rel=1e-12)


def test_periodic_square_count():
    side = 2.0 * np.pi / 10.0
    mesh = build_regular_mesh("square", side * side,
                              (0.0, 0.0, 2.0 * np.pi, 2.0 * np.pi),
                              periodic=True)
    assert mesh.n_cells == 100
    assert mesh.is_periodic
    # 10x10 grid: 40 boundary sides glued into 20 pairs, no unpaired sides
    assert len(mesh.periodic_map) == 20
    assert np.all(mesh.edge_right != BOUNDARY)


def test_periodic_rtri_count_is_twice_squares():
    mesh_s = build_regular_mesh("square", 0.25 * 0.25, (0.0, 0.0, 1.0, 1.0),
                                periodic=True)
    mesh_t = build_regular_mesh("rtri", 0.5 * 0.25 * 0.25,
                                (0.0, 0.0, 1.0, 1.0), periodic=True)
    assert mesh_t.n_cells == 2 * mesh_s.n_cells  # half-area triangles


def test_build_errors():
    with pytest.raises(MeshError):
        build_regular_mesh("square", -1.0, (0, 0, 1, 1))
    with pytest.raises(MeshError):
        build_regular_mesh("square", 0.01, (0, 0, 0, 1))
    with pytest.raises(MeshError):
        build_regular_mesh("nonagon", 0.01, (0, 0, 1, 1))
    with pytest.raises(MeshError):
        # hexagon lattice cannot fit a tiny sliver domain within 5% rescale
        build_regular_mesh("hexagon", 1.0, (0, 0, 8, 8), periodic=True)


def test_random_pair_determinism_and_duality():
    d1, v1 = build_random_mesh_pair(0.1, 0.025, (0, 0, 1, 1), seed=7)
    d2, v2 = build_random_mesh_pair(0.1, 0.025, (0, 0, 1, 1), seed=7)
    assert np.array_equal(d1.vertices, d2.vertices)
    assert np.array_equal(v1.vertices, v2.vertices)
    assert np.array_equal(d1.cell_ptr, d2.cell_ptr)
    assert np.array_equal(d1.cell_idx, d2.cell_idx)
    # each Voronoi cell contains its generating point (= Delaunay vertex,
    # cells ordered by sorted generating point)
    assert v1.cell_areas.sum() == pytest.approx(1.0, rel=1e-12)


def test_random_pair_delta_zero_gives_grid():
    d, v = build_random_mesh_pair(0.25, 0.0, (0, 0, 1, 1), seed=0)
    # unperturbed: Voronoi cells away from the boundary are 0.25-squares
    areas = np.sort(v.cell_areas)
    assert np.any(np.abs(areas - 0.0625) < 1e-9)
    assert v.n_cells == 25


def test_random_pair_errors():
    with pytest.raises(MeshError):
        build_random_mesh_pair(0.1, 0.06, (0, 0, 1, 1), seed=0)


@pytest.mark.parametrize("h, delta, message", [
    (np.nan, None, "h must be finite and positive, got nan"),
    (0.0, None, "h must be finite and positive, got 0.0"),
    (-0.1, None, "h must be finite and positive, got -0.1"),
    (0.1, np.nan, "0 <= delta < h/2, got delta=nan")])
def test_random_pair_refuses_bad_h_and_delta(h, delta, message):
    with pytest.raises(MeshError, match=re.escape(message)):
        build_random_mesh_pair(h, delta)


@pytest.mark.parametrize("domain, message", [
    ((np.nan, 0, 1, 1), "x0 = nan is not finite"),
    ((0, 0, np.inf, 1), "x1 = inf is not finite"),
    ((0, 0, 0, 1), "degenerate domain"),
    ((1, 0, 0, 1), "degenerate domain"),
    ((-1e308, 0, 1e308, 1), "domain width = inf is not finite"),
    ((0, -1e308, 1, 1e308), "domain height = inf is not finite")])
def test_random_pair_refuses_a_bad_domain(domain, message):
    # the check and the messages of build_regular_mesh
    with pytest.raises(MeshError, match=f"^{re.escape(message)}$"):
        build_random_mesh_pair(0.1, domain=domain)


@pytest.mark.parametrize("h, delta, domain, message", [
    # the jitter pushes every point of the 2 x 2 grid out of the square
    (0.9, None, UNIT_SQUARE,
     "fewer than 3 generating points inside the domain"),
    # three collinear points
    (0.5, 0.0, (0, 0, 1, 0.01),
     "cannot triangulate the generating points: ")])
def test_random_pair_refuses_points_qhull_cannot_triangulate(h, delta, domain,
                                                             message):
    with pytest.raises(MeshError, match=f"^{re.escape(message)}"):
        build_random_mesh_pair(h, delta, domain)


@pytest.mark.parametrize("domain, message", [
    ((-1e308, 0, 1e308, 1), "domain width = inf is not finite"),
    ((0, -1e308, 1, 1e308), "domain height = inf is not finite")])
def test_regular_mesh_refuses_an_overflowing_domain(domain, message):
    # finite bounds whose width or height overflows to inf
    with pytest.raises(MeshError, match=f"^{re.escape(message)}$"):
        build_regular_mesh("square", 0.01, domain)


def test_natural_ordering_square_grid_identity():
    mesh = build_regular_mesh("square", (1.0 / 3.0) ** 2, (0, 0, 1, 1))
    perm = natural_ordering(mesh)
    assert np.array_equal(perm, np.arange(9))


def test_natural_ordering_single_cell():
    mesh = PolyMesh([(0, 0), (1, 0), (0, 1)], [0, 3], [0, 1, 2])
    assert np.array_equal(natural_ordering(mesh), [0])


def test_natural_ordering_is_bijection():
    for kind in PATTERNS:
        mesh = build_regular_mesh(kind, 0.01, (0, 0, 1, 1))
        perm = natural_ordering(mesh)
        assert sorted(perm) == list(range(mesh.n_cells))


def pattern_row_height(kind, element_area):
    """The row height natural_ordering was once given by its callers: the
    height of the pointy pattern's second lattice vector."""
    pattern = GeneratingPattern.make(kind, element_area, "pointy")
    return abs(pattern.lattice[1, 1])


def row_height_reference(kind, element_area):
    """The per-kind row heights pattern_row_height replaced."""
    h = pattern_side_length(kind, h_E_from_area(element_area))
    if kind in ("square", "rtri"):
        return h
    if kind == "etri":
        return np.sqrt(3.0) / 2.0 * h
    return 1.5 * h


@pytest.mark.parametrize("kind", PATTERNS)
def test_row_height_is_the_per_kind_table(kind):
    for area in np.geomspace(1e-6, 1e3, 2005):
        side = np.sqrt(area)
        mesh = build_regular_mesh(kind, area, (0.0, 0.0, side, side))
        assert mesh.row_height.hex() == row_height_reference(kind, area).hex()


def banded_ordering_reference(mesh, row_height):
    """Cells by centroid y, a new row at each gap above half of row_height,
    each row by centroid x; ties keep cell order."""
    cx, cy = mesh.cell_centroids.T
    rows, last = [], None
    for c in sorted(range(mesh.n_cells), key=lambda c: cy[c]):
        if last is None or cy[c] - last > 0.5 * row_height:
            rows.append([])
        rows[-1].append(c)
        last = cy[c]
    return [c for row in rows for c in sorted(row, key=lambda c: (cx[c], c))]


DRIVER_MESHES = {
    "advect": (experiments.advection_mesh, experiments.ADVECTION_H ** 2),
    "advect-periodic": (
        lambda k: experiments.advection_mesh(k, periodic=True),
        experiments.ADVECTION_H ** 2),
    "euler": (experiments.euler_mesh, experiments.EULER_H ** 2),
}


@pytest.mark.parametrize("kind", PATTERNS)
@pytest.mark.parametrize("case", DRIVER_MESHES)
def test_natural_ordering_uses_the_pattern_row_height(kind, case):
    build, area = DRIVER_MESHES[case]
    mesh = build(kind)
    band = pattern_row_height(kind, area)
    assert mesh.row_height.hex() == band.hex()
    assert np.array_equal(natural_ordering(mesh),
                          banded_ordering_reference(mesh, band))


def test_only_regular_meshes_carry_a_row_height(tmp_path):
    mesh = build_regular_mesh("rtri", 0.01, (0, 0, 1, 1))
    write_mesh(mesh, tmp_path / "rtri.mesh")
    # a file without its row_height line reads as a mesh without one
    text = (tmp_path / "rtri.mesh").read_text()
    assert text.endswith(f"row_height {float(mesh.row_height)!r}\n")
    (tmp_path / "rtri.mesh").write_text(text[:text.rindex("row_height")])
    others = (read_mesh(tmp_path / "rtri.mesh"),
              build_pattern_tiling("rtri", 1.0, 2, 2),
              *build_random_mesh_pair(0.2, 0.05))
    assert [m.row_height for m in others] == [None] * 4
    # without it the band threshold is 60 % of the largest centroid-y gap
    gaps = np.diff(np.sort(mesh.cell_centroids[:, 1]))
    assert np.array_equal(natural_ordering(others[0]),
                          banded_ordering_reference(mesh,
                                                    1.2 * gaps.max()))


@pytest.mark.parametrize("kind", PATTERNS)
@pytest.mark.parametrize("case", DRIVER_MESHES)
def test_mesh_file_keeps_the_row_height(kind, case, tmp_path):
    mesh = DRIVER_MESHES[case][0](kind)
    write_mesh(mesh, tmp_path / "m.mesh")
    back = read_mesh(tmp_path / "m.mesh")
    assert back.row_height.hex() == mesh.row_height.hex()
    assert np.array_equal(natural_ordering(back), natural_ordering(mesh))


def test_natural_ordering_interleaves_split_squares():
    # the two triangles of each split square share a band, alternating in x
    mesh = build_regular_mesh("rtri", 0.125, (0, 0, 1, 1), periodic=True)
    perm = natural_ordering(mesh)
    cy = mesh.cell_centroids[perm, 1]
    # first band holds 2 * 2 = 4 triangles of the bottom row of squares
    assert np.all(cy[:4] < 0.5)
    cx = mesh.cell_centroids[perm[:4], 0]
    assert np.all(np.diff(cx) > 0)


ROUNDTRIP_MESHES = {
    **{f"{kind}-{bc}": (lambda k=kind, per=bc == "periodic":
                        experiments.advection_mesh(k, periodic=per))
       for kind in PATTERNS for bc in ("zero-inflow", "periodic")},
    "voronoi": lambda: build_random_mesh_pair(0.2, 0.05, seed=7)[1],
    "delaunay": lambda: build_random_mesh_pair(0.2, 0.05, seed=7)[0],
}


@pytest.mark.parametrize("name", ROUNDTRIP_MESHES)
def test_mesh_roundtrip(name, tmp_path):
    mesh = ROUNDTRIP_MESHES[name]()
    path = tmp_path / "m.mesh"
    write_mesh(mesh, path)
    back = read_mesh(path)
    assert back.boundary_tag == mesh.boundary_tag
    for array in MESH_ARRAYS:
        a, b = getattr(back, array), getattr(mesh, array)
        assert a.dtype == b.dtype, array
        assert np.array_equal(a, b), array
    assert back.is_periodic == name.endswith("-periodic")
    assert np.array_equal(back.periods, mesh.periods)   # None if not periodic
    assert back.row_height == mesh.row_height   # None on random meshes
    assert np.array_equal(natural_ordering(back), natural_ordering(mesh))
    # and written again, byte for byte
    write_mesh(back, tmp_path / "again.mesh")
    assert (tmp_path / "again.mesh").read_bytes() == path.read_bytes()


def test_mesh_roundtrip_periodic(tmp_path):
    mesh = build_regular_mesh("square", 0.0625, (0, 0, 1, 1), periodic=True)
    path = tmp_path / "m.mesh"
    write_mesh(mesh, path)
    back = read_mesh(path)
    assert back.is_periodic
    assert np.array_equal(back.periodic_map, mesh.periodic_map)
    # the right cell of a periodic edge is moved onto the edge by the shift
    assert np.array_equal(back.edge_shifts, mesh.edge_shifts)


UNIT_SQUARE = ("polymesh 1\nvertices 4\n0.0 0.0\n1.0 0.0\n1.0 1.0\n0.0 1.0\n"
               "cells 1\n0 1 2 3\n")


def test_read_mesh_periodic_section(tmp_path):
    # the unit square glued to a torus: side 2 (top) is side 0 (bottom)
    # moved by t2 = (0, 1), side 3 (left) is side 1 (right) moved by -t1
    path = tmp_path / "m.mesh"
    path.write_text(UNIT_SQUARE + "periodic 1.0 0.0 0.0 1.0\n")
    mesh = read_mesh(path)
    assert np.array_equal(mesh.periods, [[1.0, 0.0], [0.0, 1.0]])
    assert np.array_equal(mesh.periodic_map, [[0, 2], [1, 3]])
    assert np.array_equal(mesh.edge_right, [0, 0])
    assert np.array_equal(mesh.edge_shifts, [[0.0, -1.0], [1.0, 0.0]])


def test_read_mesh_refuses_a_file_that_is_not_utf8(tmp_path):
    bad = tmp_path / "bad.mesh"
    bad.write_bytes(b"polymesh 1\nvertices 1\n\xff\xfe 0.0\n")
    with pytest.raises(MeshError, match=f"^cannot read mesh file "
                                        f"{re.escape(str(bad))}: not UTF-8"):
        read_mesh(bad)


def test_read_mesh_errors(tmp_path):
    bad = tmp_path / "bad.mesh"
    bad.write_text("polymesh 1\nvertices 1\n0.0 0.0\ncells 1\n0 1 2\n")
    with pytest.raises(MeshError):
        read_mesh(bad)
    bad.write_text("not a mesh\n")
    with pytest.raises(MeshError, match="header"):
        read_mesh(bad)
    bad.write_text("polymesh 1\nvertices 0\ncells 0\n")
    with pytest.raises(MeshError):
        read_mesh(bad)
    bad.write_text("polymesh 1\nvertices two\n0.0 0.0\n")
    with pytest.raises(MeshError, match=":2: expected 'vertices N'$"):
        read_mesh(bad)
    expected = "expected 'periodic x1 y1 x2 y2' with finite values$"
    for line in ["periodic 1.0 0.0 0.0", "periodic 1.0 0.0 0.0 1.0 0.0",
                 "periodic 1", "periodic 1.0 0.0 0.0 x", "periodic",
                 "periodic nan 0.0 0.0 1.0", "periodic 1.0 0.0 0.0 inf"]:
        bad.write_text(UNIT_SQUARE + line + "\n")
        with pytest.raises(MeshError, match=f":9: {expected}"):
            read_mesh(bad)
    # the top side is the bottom one moved by (0, 1), not by (0, 2)
    bad.write_text(UNIT_SQUARE + "periodic 1.0 0.0 0.0 2.0\n")
    with pytest.raises(MeshError,
                       match=":9: unpaired periodic boundary side 0$"):
        read_mesh(bad)
    # two unit squares side by side: moved by (1, 0), the left side (3)
    # lands on the side cell 0 shares with cell 1, not on a boundary side
    two = ("polymesh 1\nvertices 6\n0 0\n1 0\n2 0\n0 1\n1 1\n2 1\n"
           "cells 2\n0 1 4 3\n1 2 5 4\n")
    bad.write_text(two + "periodic 1.0 0.0 0.0 1.0\n")
    with pytest.raises(MeshError,
                       match=":12: unpaired periodic boundary side 3$"):
        read_mesh(bad)
    bad.write_text(two + "periodic 2.0 0.0 0.0 1.0\n")
    assert len(read_mesh(bad).periodic_map) == 3


@pytest.mark.parametrize("cells, line, message", [
    (["0 1 2", "0 1 7"], 8, "cell 1 references missing vertex 7"),
    (["0 1"], 7, "cell 0 has 2 vertices, fewer than 3")])
def test_read_mesh_names_the_bad_cell_line(cells, line, message, tmp_path):
    path = tmp_path / "m.mesh"
    path.write_text("polymesh 1\nvertices 3\n0 0\n1 0\n0 1\n"
                    f"cells {len(cells)}\n" + "\n".join(cells) + "\n")
    with pytest.raises(MeshError, match=f"^{re.escape(str(path))}:{line}: "
                                        f"{message}$"):
        read_mesh(path)


def test_read_mesh_row_height_line(tmp_path):
    path = tmp_path / "m.mesh"
    for tail in ("row_height 0.5\n", "row_height 0.5\n\n",
                 "periodic 1.0 0.0 0.0 1.0\nrow_height 0.5\n"):
        path.write_text(UNIT_SQUARE + tail)
        assert read_mesh(path).row_height == 0.5
    expected = "expected 'row_height y' with y finite and positive$"
    for tail, line in [("row_height\n", 9), ("row_height x\n", 9),
                       ("row_height nan\n", 9), ("row_height inf\n", 9),
                       ("row_height -1\n", 9), ("row_height 0.5 1\n", 9),
                       ("rows 2\n", 9), ("periodic 1 0 0 1\n1\n", 10)]:
        path.write_text(UNIT_SQUARE + tail)
        with pytest.raises(MeshError, match=f":{line}: {expected}"):
            read_mesh(path)
    # no line is left unread: not one after the row height, nor the row
    # height after a blank line
    for tail, line, unread in [
            ("row_height 0.5\ngarbage here\n", 10, "garbage here"),
            ("row_height 0.5\nperiodic 1 0 0 1\n", 10, "periodic 1 0 0 1"),
            ("\n\nrow_height 0.5\n", 11, "row_height 0.5"),
            ("\nperiodic 1 0 0 1\n", 10, "periodic 1 0 0 1")]:
        path.write_text(UNIT_SQUARE + tail)
        with pytest.raises(MeshError,
                           match=f":{line}: unexpected '{unread}'$"):
            read_mesh(path)


SQUARE_VERTICES = [(0, 0), (1, 0), (1, 1), (0, 1)]


@pytest.mark.parametrize("vertices, cells, options, message", [
    (SQUARE_VERTICES, [[0, 1, 2], [0, 1, 2]], {},
     r"^duplicate directed side \(0, 1\)$"),
    ([(0, 0), (1, 0), (1, 0), (0, 1)], [[0, 1, 2, 3]], {},
     "^zero-length edge$"),
    ([(0, 0), (1, 0), (2, 0)], [[0, 1, 2]], {},
     "^cell with non-positive area$"),
    (SQUARE_VERTICES, [[0, 1, 2, 3]], {"periods": ((1, 0),)},
     r"^periods must be two 2-vectors, not an array of shape \(1, 2\)$"),
    # the top side is the bottom one moved by (0, 1), not by (0, 2)
    (SQUARE_VERTICES, [[0, 1, 2, 3]], {"periods": ((1, 0), (0, 2))},
     "^unpaired periodic boundary side 0$")])
def test_polymesh_refuses_bad_topology(vertices, cells, options, message):
    with np.errstate(invalid="ignore"), pytest.raises(MeshError,
                                                      match=message):
        PolyMesh(vertices, *csr(cells), **options)


@pytest.mark.parametrize("cell_ptr, cell_idx, message", [
    ([0], [], "^empty cell list$"),
    ([1, 4], [0, 1, 2, 3], r"^cell_ptr runs from 1 to 4, not from 0 to "
                           r"len\(cell_idx\) = 4$"),
    ([0, 3], [0, 1, 2, 3], r"^cell_ptr runs from 0 to 3, not from 0 to "
                           r"len\(cell_idx\) = 4$"),
    ([0, 3, 5], [0, 1, 2, 2, 3], "^cell 1 has 2 vertices, fewer than 3$"),
    ([0, 4, 3, 6], [0, 1, 2, 3, 0, 2],
     "^cell 1 has -1 vertices, fewer than 3$"),
    ([0, 3, 6], [0, 1, 2, 2, 3, 4], "^cell 1 references missing vertex 4$"),
    ([0, 3], [0, -1, 2], "^cell 0 references missing vertex -1$")])
def test_polymesh_refuses_a_bad_csr_pair(cell_ptr, cell_idx, message):
    with pytest.raises(MeshError, match=message):
        PolyMesh(SQUARE_VERTICES, cell_ptr, cell_idx)


def test_random_pair_names_delaunay_sliver():
    # a perturbation of 1e-9 h leaves three boundary points on x = 1 nearly
    # collinear; their triangle is refused at build time instead of failing
    # later in DgSpace
    with pytest.raises(MeshError,
                       match=r"Delaunay triangle 5 \(area 4\.26e-12\)"):
        build_random_mesh_pair(0.2, 2e-10, (0, 0, 1, 1), seed=239)


# -- the dict-based side matcher the array build replaced --------------------

def ref_mesh(vertices, cell_ptr, cell_idx, periods=None,
             boundary_tag="inflow_outflow"):
    """The per-cell, per-side construction kept as the reference: vertices,
    cells (vertex-index lists), areas, centroids, periodic map and the edges
    as (left, right, v0, v1, normal, length, shift) tuples."""
    vertices = np.asarray(vertices, dtype=float)
    cells = cell_lists(cell_ptr, cell_idx)
    for c in cells:
        if polygon_area_centroid(vertices[c])[0] < 0:
            c.reverse()
    measured = [polygon_area_centroid(vertices[c]) for c in cells]
    sides = [(ci, c[k], c[(k + 1) % len(c)])
             for ci, c in enumerate(cells) for k in range(len(c))]
    directed = {(a, b): si for si, (_, a, b) in enumerate(sides)}
    edges = []

    def add(left, right, v0, v1, shift):
        d = vertices[v1] - vertices[v0]
        length = float(np.hypot(d[0], d[1]))
        edges.append((left, right, v0, v1, np.array([d[1], -d[0]]) / length,
                      length, np.asarray(shift, float)))

    matched = [False] * len(sides)
    boundary = []
    for si, (ci, a, b) in enumerate(sides):
        if matched[si]:
            continue
        sj = directed.get((b, a))
        if sj is not None and sj != si:
            add(ci, sides[sj][0], a, b, np.zeros(2))
            matched[si] = matched[sj] = True
        else:
            boundary.append(si)
    periodic_map = []
    if periods is not None:
        t1, t2 = (np.asarray(t, float) for t in periods)
        cand = [t1, -t1, t2, -t2, t1 + t2, -(t1 + t2), t1 - t2, t2 - t1]
        scale = max(np.linalg.norm(t1), np.linalg.norm(t2))
        mids = {si: 0.5 * (vertices[sides[si][1]] + vertices[sides[si][2]])
                for si in boundary}
        tree = cKDTree(np.array([mids[si] for si in boundary]))
        used = set()
        for si in boundary:
            if si in used:
                continue
            for t in cand:
                dist, j = tree.query(mids[si] + t)
                sj = boundary[j]
                if dist < 1e-8 * scale and sj != si and sj not in used:
                    break
            else:
                raise AssertionError(f"unpaired side {si}")
            add(sides[si][0], sides[sj][0], *sides[si][1:], -t)
            periodic_map.append((si, sj))
            used |= {si, sj}
    else:
        for si in boundary:
            add(sides[si][0], BOUNDARY, *sides[si][1:], np.zeros(2))
    return (vertices, cells, np.array([a for a, _ in measured]),
            np.array([c for _, c in measured]), periodic_map, edges)


def assert_mesh_equals(mesh, ref):
    vertices, cells, areas, centroids, periodic_map, edges = ref
    assert np.array_equal(mesh.vertices, vertices)
    cell_ptr, cell_idx = csr(cells)
    assert np.array_equal(mesh.cell_ptr, cell_ptr)
    assert np.array_equal(mesh.cell_idx, cell_idx)
    assert np.array_equal(mesh.cell_areas, areas)
    assert np.array_equal(mesh.cell_centroids, centroids)
    assert np.array_equal(mesh.periodic_map,
                          np.reshape(periodic_map, (-1, 2)))
    left, right, v0, v1, normal, length, shift = map(np.array, zip(*edges))
    assert np.array_equal(mesh.edge_left, left)
    assert np.array_equal(mesh.edge_right, right)
    assert np.array_equal(mesh.edge_vertices, np.stack((v0, v1), axis=1))
    assert np.array_equal(mesh.edge_normals, normal)
    assert np.array_equal(mesh.edge_lengths, length)
    assert np.array_equal(mesh.edge_shifts, shift)


@pytest.fixture
def built(monkeypatch):
    """Every PolyMesh the builders construct, with its arguments."""
    calls = []

    class Recording(PolyMesh):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            calls.append((self, args, kwargs))

    monkeypatch.setattr(mesh_module, "PolyMesh", Recording)
    return calls


def half_clockwise_voronoi():
    """A Voronoi mesh given with every other cell clockwise."""
    _, voronoi = build_random_mesh_pair(0.2, 0.05, seed=7)
    cells = cell_lists(voronoi.cell_ptr, voronoi.cell_idx)
    cells = [c[::-1] if i % 2 else c for i, c in enumerate(cells)]
    return mesh_module.PolyMesh(voronoi.vertices, *csr(cells))


MESH_BUILDS = {
    **{f"advect-{kind}-{bc}": (lambda k=kind, per=bc == "periodic":
                               experiments.advection_mesh(k, periodic=per))
       for kind in PATTERNS for bc in ("zero-inflow", "periodic")},
    **{f"euler-{kind}": (lambda k=kind: experiments.euler_mesh(k))
       for kind in PATTERNS},
    **{f"tiling-{kind}": (lambda k=kind: build_pattern_tiling(k, 1.0, 4, 4))
       for kind in PATTERNS},
    "random-pair": lambda: build_random_mesh_pair(0.2, 0.05, seed=7),
    "half-clockwise": half_clockwise_voronoi,
}


@pytest.mark.parametrize("name", MESH_BUILDS)
def test_mesh_equals_side_matcher_reference(built, name):
    MESH_BUILDS[name]()
    assert built
    for mesh, args, kwargs in built:
        assert_mesh_equals(mesh, ref_mesh(*args, **kwargs))


def test_read_periodic_mesh_equals_side_matcher_reference(built, tmp_path):
    build_regular_mesh("square", 0.0625, (0, 0, 1, 1), periodic=True)
    (mesh, args, kwargs), = built
    write_mesh(mesh, tmp_path / "m.mesh")
    assert_mesh_equals(read_mesh(tmp_path / "m.mesh"), ref_mesh(*args, **kwargs))


# -- the per-instance loop the array build replaced ---------------------------

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


def _row_major_key(poly):
    """Sort key of a polygon: its centroid's y, then x, rounded to 1e-9."""
    c = polygon_area_centroid(poly)[1]
    return round(c[1], 9), round(c[0], 9)


def instance_loop_reference(kind, element_area, domain=None, periodic=False,
                            boundary_tag="inflow_outflow", tiling=None):
    """The mesh of build_regular_mesh(kind, element_area, domain, periodic,
    boundary_tag), or of build_pattern_tiling(kind, element_area, *tiling)
    when tiling is given and periodic is True, built one lattice instance
    and one vertex at a time through a dict vertex pool."""
    snap = 1e-9 * np.sqrt(element_area)
    verts, get = _vertex_pool()
    if tiling is not None:
        n1, n2 = tiling
        pat = GeneratingPattern.make(kind, element_area)
        a1, a2 = pat.lattice
        cells = []
        for m2 in range(n2):
            for m1 in range(n1):
                off = m1 * a1 + m2 * a2
                for el in pat.elements:
                    cells.append([get(p + off, snap) for p in el])
        return PolyMesh(verts, *csr(cells),
                        periods=(n1 * a1, n2 * a2) if periodic else None)
    x0, y0, x1, y1 = map(float, domain)
    W, H = x1 - x0, y1 - y0
    pat = GeneratingPattern.make(kind, element_area, "pointy")
    if periodic:
        pw, ph, offsets = pat.rect_period()
        ni = max(1, round(W / pw))
        nj = max(1, round(H / ph))
        scale = np.array([W / (ni * pw), H / (nj * ph)])
        instances = []
        for j in range(nj):
            for i in range(ni):
                for off in offsets:
                    base = (np.array([x0, y0])
                            + scale * (np.array([i * pw, j * ph]) + off))
                    for el in pat.elements:
                        instances.append(base + el * scale)
        cells = [[get(p, snap) for p in poly]
                 for poly in sorted(instances, key=_row_major_key)]
        return PolyMesh(verts, *csr(cells),
                        periods=((W, 0.0), (0.0, H)))
    a1, a2 = pat.lattice
    inv = np.linalg.inv(np.stack([a1, a2], axis=1))
    corners = np.array([[x0, y0], [x1, y0], [x0, y1], [x1, y1]])
    mm = corners @ inv.T
    m1_range = range(int(np.floor(mm[:, 0].min())) - 2,
                     int(np.ceil(mm[:, 0].max())) + 2)
    m2_range = range(int(np.floor(mm[:, 1].min())) - 2,
                     int(np.ceil(mm[:, 1].max())) + 2)
    polys = []
    for m2 in m2_range:
        for m1 in m1_range:
            off = m1 * a1 + m2 * a2
            for el in pat.elements:
                poly = el + off
                lo, hi = poly.min(axis=0), poly.max(axis=0)
                if lo[0] > x1 or hi[0] < x0 or lo[1] > y1 or hi[1] < y0:
                    continue
                if (lo[0] >= x0 and hi[0] <= x1 and lo[1] >= y0
                        and hi[1] <= y1):
                    clipped = poly
                else:
                    clipped = clip_oracle.clip_polygon_rect(poly, x0, y0, x1,
                                                            y1)
                if len(clipped) >= 3:
                    clipped = clip_oracle._dedupe_loop(clipped, snap)
                    if (len(clipped) >= 3 and polygon_area_centroid(clipped)[0]
                            > 1e-10 * element_area):
                        polys.append(clipped)
    cells = [[get(p, snap) for p in poly]
             for poly in sorted(polys, key=_row_major_key)]
    return PolyMesh(verts, *csr(cells), boundary_tag=boundary_tag)


MESH_ARRAYS = ("vertices", "cell_ptr", "cell_idx", "cell_areas",
               "cell_centroids", "edge_left",
               "edge_right", "edge_vertices", "edge_normals", "edge_lengths",
               "edge_shifts", "periodic_map")


def assert_same_mesh(mesh, ref):
    assert mesh.boundary_tag == ref.boundary_tag
    assert mesh.n_cells == ref.n_cells
    for name in MESH_ARRAYS:
        a, b = getattr(mesh, name), getattr(ref, name)
        assert a.dtype == b.dtype, name
        assert np.array_equal(a, b), name


UNIT = (0.0, 0.0, 1.0, 1.0)
OFFSET = (0.3, -0.7, 1.6, 0.2)
SLIVERS = (-1e-7, -1e-7, 1.0 + 1e-7, 1.0 + 1e-7)
SUB_SNAP = (0.0, 1e-12, 0.96875, 1.0 + 1e-12)
INSTANCE_LOOP_CASES = {
    "h0.2": (lambda k: build_regular_mesh(k, 0.04, UNIT),
             lambda k: instance_loop_reference(k, 0.04, UNIT)),
    "h0.05": (lambda k: build_regular_mesh(k, 0.0025, UNIT),
              lambda k: instance_loop_reference(k, 0.0025, UNIT)),
    "h0.1-offset": (lambda k: build_regular_mesh(k, 0.01, OFFSET),
                    lambda k: instance_loop_reference(k, 0.01, OFFSET)),
    # edges 1e-7 outside lattice lines leave slivers, some below the area
    # floor, which the builder drops
    "h0.1-slivers": (lambda k: build_regular_mesh(k, 0.01, SLIVERS),
                     lambda k: instance_loop_reference(k, 0.01, SLIVERS)),
    # edges 1e-12 off lattice lines leave pieces narrower than the vertex
    # snap, which the builder drops (the square mesh was refused)
    "h0.25-sub-snap": (lambda k: build_regular_mesh(k, 0.0625, SUB_SNAP),
                       lambda k: instance_loop_reference(k, 0.0625,
                                                         SUB_SNAP)),
    "euler": (experiments.euler_mesh,
              lambda k: instance_loop_reference(
                  k, experiments.EULER_H ** 2, experiments.EULER_DOMAIN,
                  boundary_tag="exact_state")),
    "advect-periodic": (
        lambda k: experiments.advection_mesh(k, periodic=True),
        lambda k: instance_loop_reference(k, experiments.ADVECTION_H ** 2,
                                          UNIT, periodic=True)),
    "tiling-4x4": (lambda k: build_pattern_tiling(k, 1.0, 4, 4),
                   lambda k: instance_loop_reference(k, 1.0, tiling=(4, 4),
                                                     periodic=True)),
}


@pytest.mark.parametrize("kind", PATTERNS)
@pytest.mark.parametrize("case", INSTANCE_LOOP_CASES)
def test_regular_mesh_equals_instance_loop_reference(kind, case):
    build, reference = INSTANCE_LOOP_CASES[case]
    assert_same_mesh(build(kind), reference(kind))


def assert_csr_invariants(mesh):
    """cell_ptr starts at 0 and steps by at least 3, cell_idx is in range,
    every stored cell turns counter-clockwise, and cell_vertices(c) reads
    cell c's slice of cell_idx. The first `n_inner` edges are the inner
    ones, which the layout of the advection and Euler terms rests on, and
    a periodic mesh has no boundary edge."""
    on_boundary = mesh.edge_right == BOUNDARY
    assert mesh.n_inner == np.count_nonzero(~on_boundary)
    assert not on_boundary[:mesh.n_inner].any()
    assert mesh.periods is None or not on_boundary.any()
    ptr, idx = mesh.cell_ptr, mesh.cell_idx
    assert ptr.dtype == idx.dtype == np.int64
    assert ptr[0] == 0 and ptr[-1] == len(idx)
    assert np.all(np.diff(ptr) >= 3)
    assert np.all((idx >= 0) & (idx < len(mesh.vertices)))
    for c in range(mesh.n_cells):
        verts = mesh.cell_vertices(c)
        assert np.array_equal(verts, mesh.vertices[idx[ptr[c]:ptr[c + 1]]])
        assert polygon_area_centroid(verts)[0] > 0.0


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), h=st.floats(0.1, 0.3),
       delta=st.floats(0.05, 0.45), kind=st.sampled_from(PATTERNS),
       area=st.floats(0.002, 0.05), periodic=st.booleans())
def test_cells_are_a_valid_csr_pair(seed, h, delta, kind, area, periodic):
    meshes = list(build_random_mesh_pair(h, delta * h, seed=seed))
    width = height = 1.0
    if periodic:
        # whole rectangular periods
        pw, ph, _ = GeneratingPattern.make(kind, area, "pointy").rect_period()
        width, height = max(1, round(1 / pw)) * pw, max(1, round(1 / ph)) * ph
    meshes.append(build_regular_mesh(kind, area, (0.0, 0.0, width, height),
                                     periodic=periodic))
    for mesh in meshes:
        assert_csr_invariants(mesh)


def test_fine_regular_mesh_equals_instance_loop_reference():
    area = 0.0125 ** 2
    mesh = build_regular_mesh("hexagon", area, UNIT)
    assert mesh.n_cells > 6000
    assert_same_mesh(mesh, instance_loop_reference("hexagon", area, UNIT))


@settings(max_examples=15, deadline=None)
@given(kind=st.sampled_from(PATTERNS), h=st.floats(0.04, 0.3),
       x0=st.floats(-2.0, 2.0), y0=st.floats(-2.0, 2.0),
       width=st.floats(0.2, 1.2), height=st.floats(0.2, 1.2),
       periodic=st.booleans(), stretch=st.floats(0.99, 1.01))
def test_random_regular_mesh_equals_instance_loop_reference(
        kind, h, x0, y0, width, height, periodic, stretch):
    if periodic:
        # whole rectangular periods, stretched by at most 1 % each way
        pw, ph, _ = GeneratingPattern.make(kind, h * h, "pointy").rect_period()
        width = max(1, round(width / pw)) * pw * stretch
        height = max(1, round(height / ph)) * ph / stretch
    domain = (x0, y0, x0 + width, y0 + height)
    assert_same_mesh(build_regular_mesh(kind, h * h, domain, periodic=periodic),
                     instance_loop_reference(kind, h * h, domain,
                                             periodic=periodic))


def clip_everything_reference(kind, element_area, domain):
    """(vertices, cell_ptr, cell_idx) of build_regular_mesh, non-periodic,
    built by clipping every padded lattice instance against the
    rectangle."""
    x0, y0, x1, y1 = map(float, domain)
    pat = GeneratingPattern.make(kind, element_area, "pointy")
    a1, a2 = pat.lattice
    inv = np.linalg.inv(np.stack([a1, a2], axis=1))
    corners = np.array([[x0, y0], [x1, y0], [x0, y1], [x1, y1]])
    mm = corners @ inv.T
    m1_range = range(int(np.floor(mm[:, 0].min())) - 2,
                     int(np.ceil(mm[:, 0].max())) + 2)
    m2_range = range(int(np.floor(mm[:, 1].min())) - 2,
                     int(np.ceil(mm[:, 1].max())) + 2)
    snap = 1e-9 * np.sqrt(element_area)
    polys = []
    for m2 in m2_range:
        for m1 in m1_range:
            off = m1 * a1 + m2 * a2
            for el in pat.elements:
                clipped = clip_oracle.clip_polygon_rect(el + off, x0, y0, x1,
                                                        y1)
                if len(clipped) >= 3:
                    clipped = clip_oracle._dedupe_loop(clipped, snap)
                    if (len(clipped) >= 3 and polygon_area_centroid(clipped)[0]
                            > 1e-10 * element_area):
                        polys.append(clipped)
    verts, get = _vertex_pool()
    cells = [[get(p, snap) for p in poly]
             for poly in sorted(polys, key=_row_major_key)]
    ref = PolyMesh(verts, *csr(cells))
    return ref.vertices, ref.cell_ptr, ref.cell_idx


@pytest.mark.parametrize("kind", PATTERNS)
@pytest.mark.parametrize("h, domain", [(0.2, (0, 0, 1, 1)),
                                       (0.05, (0, 0, 1, 1)),
                                       (0.1, (0.3, -0.7, 1.6, 0.2))])
def test_regular_mesh_equals_clip_everything_reference(kind, h, domain):
    mesh = build_regular_mesh(kind, h * h, domain)
    vertices, cell_ptr, cell_idx = clip_everything_reference(kind, h * h,
                                                              domain)
    assert np.array_equal(mesh.vertices, vertices)
    assert np.array_equal(mesh.cell_ptr, cell_ptr)
    assert np.array_equal(mesh.cell_idx, cell_idx)


def lattice_polys(kind, element_area, bounds, shift=(0.0, 0.0)):
    """The padded lattice instances build_regular_mesh places over the
    rectangle bounds, moved by shift: (m, nv, 2)."""
    x0, y0, x1, y1 = bounds
    pat = GeneratingPattern.make(kind, element_area, "pointy")
    a1, a2 = pat.lattice
    inv = np.linalg.inv(np.stack([a1, a2], axis=1))
    mm = np.array([[x0, y0], [x1, y0], [x0, y1], [x1, y1]]) @ inv.T
    lo = np.floor(mm.min(axis=0)).astype(int) - 2
    hi = np.ceil(mm.max(axis=0)).astype(int) + 2
    return mesh_module._lattice_instances(
        pat.elements, a1, a2, range(lo[0], hi[0]), range(lo[1], hi[1])) + shift


def rect_halfplanes(bounds):
    """The points and normals (4, 2) of the rectangle bounds' half-planes
    x >= x0, x <= x1, y >= y0, y <= y1, as build_regular_mesh clips."""
    x0, y0, x1, y1 = bounds
    return (np.array([(x0, y0), (x1, y1), (x0, y0), (x1, y1)], float),
            np.array([(-1, 0), (1, 0), (0, -1), (0, 1)], float))


def assert_clip_matches_oracle(polys, points, normals, snap):
    """The batched clip and dedupe of polys (m, nv, 2) by the half-planes
    points and normals ((m, k, 2) or (k, 2)) give, byte for byte, the
    pieces of the per-polygon clip_polygon and _dedupe_loop, and drop the
    same ones; returns the clip's and the dedupe's point counts (m,)."""
    pieces, count, kept = mesh_module._clip_halfplanes(polys, points, normals,
                                                       snap)
    shape = (len(polys), *np.shape(points)[-2:])
    points, normals = (np.broadcast_to(a, shape) for a in (points, normals))
    for r, poly in enumerate(polys):
        piece = clip_oracle.clip_polygon(poly, points[r], normals[r])
        assert count[r] == len(piece)
        assert pieces[r, :count[r]].tobytes() == piece.tobytes()
        ours = pieces[r][kept[r]]
        ref = clip_oracle._dedupe_loop(piece, snap) if len(piece) else piece
        assert len(ours) == len(ref) and ours.tobytes() == ref.tobytes()
    return count, kept.sum(1)


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(PATTERNS), h=st.floats(0.1, 0.4),
       shift=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
       corner=st.tuples(st.floats(-0.5, 0.5), st.floats(-0.5, 0.5)),
       size=st.tuples(st.floats(0.2, 1.0), st.floats(0.2, 1.0)),
       nudges=st.lists(st.sampled_from([None, 0.0, 0.25, -0.25, 4.0]),
                       min_size=4, max_size=4),
       bisectors=st.integers(0, 3), seed=st.integers(0, 2 ** 32 - 1))
@example(kind="square", h=0.25, shift=(0.0, 0.0), corner=(0.0, 0.0),
         size=(1.0, 1.0), nudges=[None] * 4, bisectors=0, seed=0)
def test_batched_clip_equals_per_polygon_oracle(kind, h, shift, corner, size,
                                                nudges, bisectors, seed):
    """Random rectangles over shifted lattices; a side with a nudge moves
    onto the nearest vertex coordinate, then by nudge snaps: onto vertices
    and edges, just inside or outside them, or a few snaps away. Then up to
    3 bisector-style half-planes per polygon, as a Voronoi cell takes: of a
    point near the polygon and a neighbor about h away, some through one of
    the polygon's vertices, some with a zero normal, the padding of a cell
    with fewer neighbors."""
    snap = 1e-9 * h
    bounds = [*corner, corner[0] + size[0], corner[1] + size[1]]
    polys = lattice_polys(kind, h * h, bounds, h * np.array(shift))
    for s, nudge in enumerate(nudges):
        if nudge is not None:
            coord = polys[..., s % 2].ravel()
            bounds[s] = (coord[np.abs(coord - bounds[s]).argmin()]
                         + nudge * snap)
    assume(bounds[0] < bounds[2] and bounds[1] < bounds[3])
    rng = np.random.default_rng(seed)
    m, nv = polys.shape[:2]
    own = polys.mean(1)[:, None] + h * rng.uniform(-0.5, 0.5,
                                                   (m, bisectors, 2))
    other = own + h * rng.uniform(-1.5, 1.5, (m, bisectors, 2))
    mids, normals = 0.5 * (own + other), other - own
    through = rng.random((m, bisectors)) < 0.25
    mids[through] = polys[np.nonzero(through)[0],
                          rng.integers(0, nv, np.count_nonzero(through))]
    normals[rng.random((m, bisectors)) < 0.25] = 0.0
    rect_points, rect_normals = (np.broadcast_to(a, (m, 4, 2))
                                 for a in rect_halfplanes(bounds))
    assert_clip_matches_oracle(polys, np.concatenate([rect_points, mids], 1),
                               np.concatenate([rect_normals, normals], 1),
                               snap)


def test_batched_clip_special_cases():
    # square lattice on its own lines: vertices on every side, edges along
    # them, and instances touching each corner from outside
    polys = lattice_polys("square", 0.0625, UNIT)
    on_x0 = polys[..., 0] == 0.0
    assert np.any(on_x0 & np.roll(on_x0, -1, axis=1))
    count, size = assert_clip_matches_oracle(polys, *rect_halfplanes(UNIT),
                                             2.5e-10)
    assert np.all(size == count) and np.count_nonzero(count) == 16
    # a hexagon vertex on the corner (x0, y0)
    polys = lattice_polys("hexagon", 0.04, UNIT)
    x0, y0 = polys[len(polys) // 2, 0]
    assert np.sum(np.all(polys == (x0, y0), axis=2)) >= 2
    assert_clip_matches_oracle(
        polys, *rect_halfplanes((x0, y0, x0 + 0.9, y0 + 0.8)), 2e-10)
    # pieces narrower than the snap, left out
    polys = lattice_polys("square", 0.0625, UNIT)
    count, size = assert_clip_matches_oracle(
        polys, *rect_halfplanes((-1e-11, 0.0, 1.0, 1.0)), 2.5e-10)
    assert np.any((count >= 3) & (size < 3))
    # a corner cut off by less than the snap: a dropped point
    polys = lattice_polys("rtri", 0.0625, UNIT)
    count, size = assert_clip_matches_oracle(
        polys, *rect_halfplanes((1e-11, 0.0, 1.0, 1.0)), 2.5e-10)
    assert np.any((size >= 3) & (size < count))
    # points exactly the snap from the last kept one, and a closing point
    # exactly the snap from the first: both dropped
    square = np.array([[[0, 0], [0.5, 0], [2, 0], [2, 2], [0, 2], [0, 0.5]]],
                      float)
    count, size = assert_clip_matches_oracle(
        square, *rect_halfplanes((-1, -1, 3, 3)), 0.5)
    assert count[0] == 6 and size[0] == 4


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("jitter", [0.0, 1e-9, 1e-5, 0.25, 0.45])
@pytest.mark.parametrize("h", [0.25, 0.1, 0.05])
def test_voronoi_mesh_equals_per_cell_oracle(h, jitter, seed):
    """The Voronoi mesh's vertices and cells are, byte for byte, those the
    per-cell loop gives. With no jitter four points share a circle, and
    Qhull's neighbor order decides the clip order; 1e-5 h is nearly that.
    A jitter of 1e-9 h leaves boundary points so nearly collinear that the
    build refuses a Delaunay sliver before it makes any Voronoi cell."""
    from scipy.spatial import Delaunay
    try:
        delaunay, voronoi = build_random_mesh_pair(h, jitter * h, seed=seed)
    except MeshError as exc:
        assert jitter == 1e-9
        assert str(exc).startswith("near-degenerate Delaunay triangle")
        return
    pts, snap = delaunay.vertices, 1e-7 * h
    rect = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    cells = clip_oracle.voronoi_cells(pts, Delaunay(pts), rect, snap)
    order = np.lexsort(pts.T)
    verts, index, _ = mesh_module._vertex_pool(
        np.concatenate([cells[i] for i in order]), snap)
    ref = PolyMesh(verts, np.cumsum([0] + [len(cells[i]) for i in order]),
                   index)
    for name in ("vertices", "cell_ptr", "cell_idx"):
        a, b = getattr(voronoi, name), getattr(ref, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


def test_voronoi_refusal_names_the_first_point_by_index(monkeypatch):
    # the cells are pooled in the order of their points by y, then x,
    # where point 12 comes before 10 and 11: refused cells 11 and 12 name
    # point 11, not 12 or its position 10, and before PolyMesh sees them
    delaunay, _ = build_random_mesh_pair(0.25, seed=0)
    assert list(np.lexsort(delaunay.vertices.T)[10:13]) == [12, 10, 11]
    clip = mesh_module._clip_halfplanes

    def drop_two(*args):
        pieces, size, kept = clip(*args)
        kept[[11, 12]] = False
        return pieces, size, kept

    monkeypatch.setattr(mesh_module, "_clip_halfplanes", drop_two)
    with pytest.raises(MeshError,
                       match="^near-degenerate Voronoi cell for point 11$"):
        build_random_mesh_pair(0.25, seed=0)


# -- non-finite input ---------------------------------------------------------

NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("area, domain, name", [
    (NAN, UNIT, "element_area"), (INF, UNIT, "element_area"),
    (0.01, (NAN, 0.0, 1.0, 1.0), "x0"), (0.01, (0.0, 0.0, 1.0, INF), "y1"),
    (0.01, (0.0, -INF, 1.0, 1.0), "y0")])
@pytest.mark.parametrize("periodic", [False, True])
def test_regular_mesh_refuses_non_finite_input(area, domain, name, periodic):
    with pytest.raises(MeshError, match=f"^{name} = -?(nan|inf) is not finite"):
        build_regular_mesh("square", area, domain, periodic=periodic)


@pytest.mark.parametrize("area", [NAN, INF])
def test_pattern_tiling_refuses_non_finite_area(area):
    with pytest.raises(MeshError, match="^element_area = (nan|inf) is not"):
        build_pattern_tiling("hexagon", area, 2, 2)


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_polymesh_refuses_a_non_finite_vertex(bad):
    vertices = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (float(bad), 1.0)]
    with pytest.raises(MeshError,
                       match=fr"^vertex 3 = \({bad}, 1\.0\) is not finite$"):
        PolyMesh(vertices, [0, 3, 6], [0, 1, 2, 0, 2, 3])


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_read_mesh_names_the_non_finite_vertex_line(bad, tmp_path):
    # vertex 2 is on line 5; without the check it read as a mesh whose
    # area is NaN and whose validate() held
    path = tmp_path / "m.mesh"
    path.write_text(UNIT_SQUARE.replace("1.0 1.0\n", f"{bad} 1.0\n"))
    with pytest.raises(MeshError, match=fr":5: vertex 2 = \({bad}, 1\.0\) "
                                        "is not finite$"):
        read_mesh(path)


@pytest.mark.parametrize("kind", PATTERNS)
@pytest.mark.parametrize("x0", [3e-11, -3e-11, -1e-10])
def test_domain_side_within_the_vertex_snap_of_a_lattice_line(kind, x0):
    # the side sits within the snap (2.5e-10 here) of the lattice line x = 0:
    # the snap moves the clipped pieces' points onto it, which moves the
    # area sum by up to the boundary length times the distance (hexagon and
    # etri were refused at x0 < 0)
    mesh = build_regular_mesh(kind, 0.0625, (x0, 0.0, 1.0, 1.0))
    assert mesh.n_cells == build_regular_mesh(kind, 0.0625).n_cells
    assert mesh.cell_areas.min() > 0.0
    assert abs(mesh.cell_areas.sum() - (1.0 - x0)) <= 4.0 * abs(x0)


@pytest.mark.parametrize("kind", ["etri", "rtri"])
def test_domain_side_just_off_a_lattice_line_is_named(kind):
    # the clipped slivers along x0 fall below the area floor and are dropped
    with pytest.raises(MeshError, match=(
            r"^area sum \S+ != domain area 1\.000001: 7 clipped pieces of "
            r"total area \S+ along x0 = -1e-06 fell below the area floor")):
        build_regular_mesh(kind, 0.01, (-1e-6, 0.0, 1.0, 1.0))
