"""Mesh construction, validation, ordering, and serialization tests."""

import numpy as np
import pytest

from polydg.mesh import (BOUNDARY, GeneratingPattern, MeshError, PolyMesh,
                         build_pattern_tiling, build_random_mesh_pair,
                         build_regular_mesh, h_E_from_area, natural_ordering,
                         pattern_row_height, pattern_side_length, read_mesh,
                         write_mesh)

PATTERNS = ("hexagon", "square", "rtri", "etri")


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
        mesh = build_pattern_tiling(kind, 1.0, 3, 3, periodic=True)
        pat = GeneratingPattern.make(kind, 1.0)
        expected = 9 * len(pat.elements) * 1.0
        assert mesh.cell_areas.sum() == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("kind", PATTERNS)
def test_edge_reciprocity_and_closure(kind):
    mesh = build_regular_mesh(kind, 0.01, (0.0, 0.0, 1.0, 1.0))
    # closed polygons: sum of length * outward normal vanishes per cell
    acc = np.zeros((mesh.n_cells, 2))
    for e in mesh.edges:
        acc[e.left] += e.length * e.normal
        if e.right != BOUNDARY:
            acc[e.right] -= e.length * e.normal
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
    assert all(e.right != BOUNDARY for e in mesh.edges)


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
    assert d1.cells == d2.cells
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


def test_natural_ordering_square_grid_identity():
    mesh = build_regular_mesh("square", (1.0 / 3.0) ** 2, (0, 0, 1, 1))
    perm = natural_ordering(mesh)
    assert np.array_equal(perm, np.arange(9))


def test_natural_ordering_single_cell():
    mesh = PolyMesh([(0, 0), (1, 0), (0, 1)], [[0, 1, 2]])
    assert np.array_equal(natural_ordering(mesh), [0])


def test_natural_ordering_is_bijection():
    for kind in PATTERNS:
        mesh = build_regular_mesh(kind, 0.01, (0, 0, 1, 1))
        perm = natural_ordering(mesh, pattern_row_height(kind, 0.01))
        assert sorted(perm) == list(range(mesh.n_cells))


def test_natural_ordering_interleaves_split_squares():
    # the two triangles of each split square share a band, alternating in x
    mesh = build_regular_mesh("rtri", 0.125, (0, 0, 1, 1), periodic=True)
    perm = natural_ordering(mesh, pattern_row_height("rtri", 0.125))
    cy = mesh.cell_centroids[perm, 1]
    # first band holds 2 * 2 = 4 triangles of the bottom row of squares
    assert np.all(cy[:4] < 0.5)
    cx = mesh.cell_centroids[perm[:4], 0]
    assert np.all(np.diff(cx) > 0)


def test_mesh_roundtrip(tmp_path):
    mesh = build_regular_mesh("hexagon", 0.01, (0, 0, 1, 1))
    path = tmp_path / "m.mesh"
    write_mesh(mesh, path)
    back = read_mesh(path)
    assert np.array_equal(back.vertices, mesh.vertices)
    assert back.cells == mesh.cells


def test_mesh_roundtrip_periodic(tmp_path):
    mesh = build_regular_mesh("square", 0.0625, (0, 0, 1, 1), periodic=True)
    path = tmp_path / "m.mesh"
    write_mesh(mesh, path)
    back = read_mesh(path)
    assert back.is_periodic
    assert len(back.periodic_map) == len(mesh.periodic_map)


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


def test_random_pair_names_delaunay_sliver():
    # a perturbation of 1e-9 h leaves three boundary points on x = 1 nearly
    # collinear; their triangle is refused at build time instead of failing
    # later in DgSpace
    with pytest.raises(MeshError,
                       match=r"Delaunay triangle 5 \(area 4\.26e-12\)"):
        build_random_mesh_pair(0.2, 2e-10, (0, 0, 1, 1), seed=239)
