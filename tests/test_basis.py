"""Quadrature exactness and orthonormal basis construction tests."""

import collections

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polydg import basis as basis_module
from polydg.basis import (DEGREES, BasisError, CellBases, DgSpace,
                          check_degree, edge_quadrature, n_local,
                          monomial_exponents, polygon_quadrature)
from polydg.experiments import advection_mesh
from polydg.mesh import (MeshError, PolyMesh, build_random_mesh_pair,
                         build_regular_mesh)

UNIT_SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])


def regular_polygon(n, radius=1.0):
    ang = 2.0 * np.pi * np.arange(n) / n
    return radius * np.stack([np.cos(ang), np.sin(ang)], axis=1)


def test_polygon_quadrature_monomial_exactness():
    # all monomials x^i y^j, i + j <= q, on the unit square: integral
    # is 1 / ((i+1)(j+1))
    for q in (0, 2, 4, 6):
        quad = polygon_quadrature(UNIT_SQUARE, q)
        assert quad.weights.sum() == pytest.approx(1.0, rel=1e-13)
        for i in range(q + 1):
            for j in range(q + 1 - i):
                val = quad.integrate(lambda x, y: x ** i * y ** j)
                assert val == pytest.approx(1.0 / ((i + 1) * (j + 1)),
                                            rel=1e-12)


def test_polygon_quadrature_hexagon_symmetry():
    hexagon = regular_polygon(6)
    quad = polygon_quadrature(hexagon, 3)
    assert quad.integrate(lambda x, y: x) == pytest.approx(0.0, abs=1e-13)
    assert quad.integrate(lambda x, y: y) == pytest.approx(0.0, abs=1e-13)
    assert np.all(quad.weights > 0)


def test_edge_quadrature():
    q = edge_quadrature(np.array([0.0, 0.0]), np.array([2.0, 0.0]), 1)
    assert q.weights.sum() == pytest.approx(2.0)
    q = edge_quadrature(np.array([0.0, 0.0]), np.array([1.0, 0.0]), 1)
    assert q.integrate(lambda x, y: x) == pytest.approx(0.5)
    # degree-7 monomial with a 4-node rule
    q = edge_quadrature(np.array([0.0, 0.0]), np.array([1.0, 0.0]), 7)
    assert len(q.weights) == 4
    assert q.integrate(lambda x, y: x ** 7) == pytest.approx(1.0 / 8.0,
                                                             rel=1e-13)


@pytest.mark.parametrize("rule, message", [
    (lambda: edge_quadrature([1.0, 2.0], [1.0, 2.0], 3), "zero-length edge"),
    (lambda: polygon_quadrature([[0.0, 0.0], [1.0, 0.0]], 2),
     "at least 3 vertices"),
    (lambda: polygon_quadrature([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]], 2),
     r"degenerate polygon \(area 0\)")])
def test_degenerate_quadrature_domains_raise(rule, message):
    with np.errstate(invalid="ignore"), pytest.raises(BasisError,
                                                      match=message):
        rule()


def test_check_degree_accepts_integer_degrees_only():
    for p in DEGREES:
        check_degree(p)
    for p in (1.5, 1.0, -1, 4):
        with pytest.raises(BasisError, match=f"degree p={p} unsupported"):
            check_degree(p)


def test_n_local_and_exponent_order():
    assert [n_local(p) for p in range(4)] == [1, 3, 6, 10]
    # graded lexicographic: 1, x, y, x^2, xy, y^2, ...
    assert monomial_exponents(2) == [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1),
                                     (0, 2)]


@pytest.mark.parametrize("p", [0, 1, 2, 3])
def test_orthonormal_basis_gram_identity(p):
    verts = regular_polygon(5, 0.8) + 2.0
    basis = CellBases(verts, [0, 5], np.arange(5), p).bases[0]
    G = basis.gram()
    assert np.max(np.abs(G - np.eye(n_local(p)))) < 1e-10


def test_first_basis_function_is_inverse_sqrt_area():
    verts = 2.0 * UNIT_SQUARE  # area 4
    basis = CellBases(verts, [0, 4], np.arange(4), 0).bases[0]
    vals = basis.eval(np.array([[0.3, 0.7], [1.5, 1.9]]))
    assert np.allclose(vals, 0.5)


def test_scaling_robustness():
    tiny = 1e-3 * regular_polygon(6)
    basis = CellBases(tiny, [0, 6], np.arange(6), 3).bases[0]
    G = basis.gram()
    assert np.max(np.abs(G - np.eye(10))) < 1e-10


def test_space_on_clipped_mesh():
    # boundary cells of a clipped hexagon mesh include pentagons; the basis
    # must stay orthonormal there
    mesh = build_regular_mesh("hexagon", 0.04, (0, 0, 1, 1))
    space = DgSpace(mesh, 3)
    for c in range(mesh.n_cells):
        G = space.bases[c].gram()
        assert np.max(np.abs(G - np.eye(10))) < 1e-10


def test_projection_of_polynomial_is_exact():
    mesh = build_regular_mesh("square", 0.25, (0, 0, 1, 1))
    space = DgSpace(mesh, 2)
    coeffs = space.project(lambda x, y: 1.0 + 2.0 * x - y + x * y)
    for c in range(mesh.n_cells):
        pts = space.bases[c].quadrature.nodes
        vals = space.evaluate(coeffs, c, pts)
        exact = 1.0 + 2.0 * pts[:, 0] - pts[:, 1] + pts[:, 0] * pts[:, 1]
        assert np.max(np.abs(vals - exact)) < 1e-12


# -- the batched build against the per-cell build it replaced ---------------
# The functions below are the per-cell quadrature and Gram-Schmidt code that
# DgSpace ran before it built all cells at once, kept as the reference.

def ref_triangle_quadrature(v0, v1, v2, degree):
    n = max(1, (degree + 3) // 2)
    xg, wg = np.polynomial.legendre.leggauss(n)
    a = 0.5 * (xg + 1.0)  # map to [0, 1]
    wa = 0.5 * wg
    A, B = np.meshgrid(a, a, indexing="ij")
    WA, WB = np.meshgrid(wa, wa, indexing="ij")
    # reference triangle (0,0), (1,0), (0,1): x = a (1 - b), y = b
    xr = (A * (1.0 - B)).ravel()
    yr = B.ravel()
    w = (WA * WB * (1.0 - B)).ravel()

    v0 = np.asarray(v0, float)
    e1 = np.asarray(v1, float) - v0
    e2 = np.asarray(v2, float) - v0
    jac = e1[0] * e2[1] - e1[1] * e2[0]
    nodes = v0[None, :] + np.outer(xr, e1) + np.outer(yr, e2)
    return nodes, w * jac


def ref_area_centroid(verts):
    x = verts[:, 0]
    y = verts[:, 1]
    xn = np.roll(x, -1)
    yn = np.roll(y, -1)
    cross = x * yn - xn * y
    area = 0.5 * np.sum(cross)
    cx = np.sum((x + xn) * cross) / (6.0 * area)
    cy = np.sum((y + yn) * cross) / (6.0 * area)
    return area, np.array([cx, cy])


def ref_polygon_quadrature(verts, degree):
    area, centroid = ref_area_centroid(verts)
    nodes = []
    weights = []
    nv = len(verts)
    for i in range(nv):
        x, w = ref_triangle_quadrature(centroid, verts[i],
                                       verts[(i + 1) % nv], degree)
        nodes.append(x)
        weights.append(w)
    return np.vstack(nodes), np.concatenate(weights)


def ref_edge_quadrature(p0, p1, degree):
    length = np.linalg.norm(p1 - p0)
    n = max(1, (degree + 2) // 2)
    xg, wg = np.polynomial.legendre.leggauss(n)
    t = 0.5 * (xg + 1.0)
    nodes = p0[None, :] + np.outer(t, p1 - p0)
    return nodes, 0.5 * length * wg


def ref_coeffs(verts, p, nodes, w):
    exps = monomial_exponents(p)
    _, centroid = ref_area_centroid(verts)
    d = verts - centroid
    diameter = 2.0 * np.max(np.hypot(d[:, 0], d[:, 1]))
    s = (nodes - centroid) / diameter
    V = np.empty((len(s), len(exps)))
    for k, (i, j) in enumerate(exps):
        V[:, k] = s[:, 0] ** i * s[:, 1] ** j
    n = len(exps)
    C = np.eye(n)
    # modified Gram-Schmidt, twice for stability
    for _ in range(2):
        B = V @ C.T  # basis values at quad nodes, (nq, n)
        for i in range(n):
            for j in range(i):
                proj = np.dot(w, B[:, i] * B[:, j])
                B[:, i] -= proj * B[:, j]
                C[i] -= proj * C[j]
            nrm = np.sqrt(np.dot(w, B[:, i] ** 2))
            B[:, i] /= nrm
            C[i] /= nrm
    return C


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 2 ** 16), p=st.integers(0, 3),
       jitter=st.floats(0.1, 0.45))
def test_batched_space_matches_per_cell_build(seed, p, jitter):
    # jitter well below 0.1 h leaves near-collinear generating points, whose
    # sliver cells neither build can handle
    h = 0.2
    for mesh in build_random_mesh_pair(h, jitter * h, seed=seed):
        space = DgSpace(mesh, p)
        for c in range(mesh.n_cells):
            verts = mesh.cell_vertices(c)
            nodes, w = ref_polygon_quadrature(verts,
                                              basis_module.volume_degree(p))
            q = space.bases[c].quadrature
            assert np.array_equal(q.nodes, nodes)
            assert np.array_equal(q.weights, w)
            C = ref_coeffs(verts, p, nodes, w)
            err = np.max(np.abs(space.bases[c].coeffs - C))
            assert err <= 1e-13 * np.max(np.abs(C))
        for (v0, v1), q in zip(mesh.edge_vertices, space.edge_quads):
            nodes, w = ref_edge_quadrature(mesh.vertices[v0],
                                           mesh.vertices[v1], 2 * p + 1)
            assert np.array_equal(q.nodes, nodes)
            assert np.array_equal(q.weights, w)


def test_dgspace_computes_each_gauss_rule_once(monkeypatch):
    calls = collections.Counter()
    leggauss = np.polynomial.legendre.leggauss

    def counting(n):
        calls[n] += 1
        return leggauss(n)

    monkeypatch.setattr(np.polynomial.legendre, "leggauss", counting)
    basis_module._gauss_legendre.cache_clear()
    basis_module._reference_triangle_rule.cache_clear()
    mesh = advection_mesh("hexagon")
    assert mesh.n_cells == 448
    DgSpace(mesh, 3)
    # 5 points per direction in the cells, 4 along the edges
    assert calls == {5: 1, 4: 1}


def test_collapsed_cell_is_named():
    # a unit square and a sliver triangle of area 5e-16
    verts = [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0], [2.0, 0.0],
             [2.0, 1e-15]]
    mesh = PolyMesh(verts, [0, 4, 7], [0, 1, 2, 3, 1, 4, 5])
    with pytest.raises(BasisError, match=r"degenerate cell 1 at \[1\.6"):
        DgSpace(mesh, 1)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_vertex_is_named(bad):
    # 2 x 2 unit squares; vertex 8, (2, 2), belongs to cell 3 only
    g = np.arange(3.0)
    verts = np.stack(np.meshgrid(g, g), axis=-1).reshape(-1, 2)
    cell_ptr = [0, 4, 8, 12, 16]
    cell_idx = [0, 1, 4, 3, 1, 2, 5, 4, 3, 4, 7, 6, 4, 5, 8, 7]
    DgSpace(PolyMesh(verts, cell_ptr, cell_idx), 2)
    verts[8, 1] = bad
    # a PolyMesh refuses the vertex itself; CellBases names the cell
    with pytest.raises(MeshError, match=f"^vertex 8 = \\(2\\.0, {bad}\\) is "
                                        "not finite$"):
        PolyMesh(verts, cell_ptr, cell_idx)
    with np.errstate(invalid="ignore"), \
            pytest.raises(BasisError, match="degenerate cell 3 at"):
        CellBases(verts, cell_ptr, cell_idx, 2)


# -- the function-major build against the cell-major one it replaced --------
# The three functions below are the monomial builders and Gram-Schmidt that
# CellBases ran when each cell's values were one row of a cell-major
# (k, n, nq) array, kept as the oracle: the function-major build must give
# the same bytes.

def cell_major_monomial_values(exps, s):
    out = np.empty(s.shape[:-1] + (len(exps),))
    for k, (i, j) in enumerate(exps):
        out[..., k] = s[..., 0] ** i * s[..., 1] ** j
    return out


def cell_major_monomial_grads(exps, s, scale):
    gx = np.zeros(s.shape[:-1] + (len(exps),))
    gy = np.zeros_like(gx)
    for k, (i, j) in enumerate(exps):
        if i > 0:
            gx[..., k] = i * s[..., 0] ** (i - 1) * s[..., 1] ** j / scale
        if j > 0:
            gy[..., k] = j * s[..., 0] ** i * s[..., 1] ** (j - 1) / scale
    return gx, gy


def cell_major_orthonormalize(V, w):
    k, _, n = V.shape
    C = np.broadcast_to(np.eye(n), (k, n, n)).copy()
    w = w[:, None, :]

    def inner(a):
        return (w @ a[:, :, None])[:, 0]

    for _ in range(2):
        B = V @ C.transpose(0, 2, 1)
        B = np.ascontiguousarray(B.transpose(0, 2, 1))
        for i in range(n):
            for j in range(i):
                proj = inner(B[:, i] * B[:, j])
                B[:, i] -= proj * B[:, j]
                C[:, i] -= proj * C[:, j]
            nrm = np.sqrt(inner(B[:, i] ** 2)[:, 0])[:, None]
            B[:, i] /= nrm
            C[:, i] /= nrm
    return C


def assert_same_bytes(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape
    assert np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(
        b).tobytes()


def assert_matches_cell_major_build(bases):
    for cells, nodes, weights, values in bases.groups:
        s = bases._scaled(cells, nodes)
        V = cell_major_monomial_values(bases.exps, s)
        C = cell_major_orthonormalize(V, weights)
        assert_same_bytes(bases.coeffs[cells], C)
        assert_same_bytes(values, V @ C.transpose(0, 2, 1))
        assert_same_bytes(bases.values(cells, nodes), values)
        ct = C.transpose(0, 2, 1)
        gx, gy = cell_major_monomial_grads(bases.exps, s,
                                           bases.diameters[cells][:, None])
        for got, ref in zip(bases.gradients(cells, nodes), (gx, gy)):
            assert_same_bytes(got, ref @ ct)


@pytest.mark.parametrize("p", DEGREES)
@pytest.mark.parametrize("kind", ["hexagon", "square", "rtri", "etri"])
def test_function_major_build_matches_cell_major_bytes(kind, p):
    assert_matches_cell_major_build(
        DgSpace(build_regular_mesh(kind, 0.01, (0, 0, 1, 1)), p))


@pytest.mark.parametrize("p", DEGREES)
def test_function_major_build_matches_cell_major_bytes_random_pair(p):
    for mesh in build_random_mesh_pair(0.1):
        assert_matches_cell_major_build(DgSpace(mesh, p))


@pytest.mark.parametrize("p", DEGREES)
def test_function_major_build_of_one_cell_matches_cell_major_bytes(p):
    # a one-cell batch starts from an identity it must be able to write
    bases = CellBases(regular_polygon(5, 0.8) + 2.0, [0, 5], np.arange(5), p)
    assert len(bases.groups) == 1 and len(bases.groups[0][0]) == 1
    assert_matches_cell_major_build(bases)
