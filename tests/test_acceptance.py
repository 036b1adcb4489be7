"""End-to-end acceptance checks against the published reference results.

Each solver-comparison table is computed once per module in a fixture; the
individual claims (per-cell iteration counts, per-column winners, orderings)
are separate tests so an unmatched cell is reported precisely.
"""

import numpy as np
import pytest

from polydg.basis import DgSpace
from polydg.blocklinalg import (BlockSparseMatrix, block_jacobi_solve,
                                factor_bilu0, gmres, jacobi_iteration_matrix,
                                spectral_radius)
from polydg.discretization import (assemble_advection, gaussian_pulse,
                                   rotating_velocity)
from polydg.mesh import (build_pattern_tiling, build_regular_mesh,
                         h_E_from_area, pattern_side_length)
from polydg.oned import backward_euler_matrix, lambda_max_1d
from polydg.timestepping import backward_euler_system, dirk3_step
from polydg.vonneumann import (PatternSymbol, check_admissible,
                               closed_form_p0_eigs, paper_wave_coords,
                               ratio_table, timestep_family)
from polydg.experiments import (run_advect, run_euler_vortex,
                                run_random_advect)

PATTERNS = ("hexagon", "square", "rtri", "etri")
K_LABELS = ("k1", "k2", "k3")
AREA = np.sqrt(3.0) / 4.0  # element area at h_E = 1

# -- reference values (rows p = 0..3, columns k1, k2, k3) -----------------

REF_LOG_RATIOS = {
    ("hexagon", 0): (1.0, 1.0, 1.0),
    ("hexagon", 1): (1.0, 1.0, 1.0),
    ("hexagon", 2): (1.0, 1.0, 1.0),
    ("hexagon", 3): (1.077183, 1.070785, 1.066101),
    ("square", 0): (1.128939, 1.133989, 1.136772),
    ("square", 1): (1.058098, 1.118222, 1.130101),
    ("square", 2): (1.095785, 1.118510, 1.129314),
    ("square", 3): (1.0, 1.0, 1.0),
    ("rtri", 0): (1.128939, 1.133989, 1.136772),
    ("rtri", 1): (1.084223, 1.132326, 1.137313),
    ("rtri", 2): (1.111863, 1.126951, 1.133634),
    ("rtri", 3): (1.010482, 1.005391, 1.002733),
    ("etri", 0): (1.207328, 1.215467, 1.219948),
    ("etri", 1): (1.137267, 1.201638, 1.214376),
    ("etri", 2): (1.177503, 1.201918, 1.213527),
    ("etri", 3): (1.074570, 1.074570, 1.074570),
}

REF_JACOBI = {
    "hexagon": ((33, 57, 104), (21, 41, 77), (24, 41, 77), (21, 39, 75)),
    "square": ((35, 61, 109), (21, 42, 83), (22, 42, 83), (22, 42, 81)),
    "rtri": ((39, 68, 128), (26, 51, 100), (25, 51, 100), (25, 51, 100)),
    "etri": ((37, 67, 123), (25, 47, 92), (25, 47, 92), (24, 47, 91)),
}

REF_RANDOM = {
    "voronoi": ((27, 32, 38), (24, 33, 38), (24, 32, 36), (22, 31, 36)),
    "delaunay": ((38, 48, 52), (33, 45, 48), (33, 46, 50), (33, 44, 48)),
}
REF_RANDOM_CELLS = {"voronoi": 410, "delaunay": 759}

REF_GMRES_JACOBI = {
    "hexagon": ((31, 53, 92), (25, 42, 80), (28, 47, 86), (28, 49, 90)),
    "square": ((37, 64, 116), (27, 51, 101), (27, 51, 98), (27, 52, 100)),
    "rtri": ((40, 70, 134), (33, 61, 123), (31, 60, 117), (29, 59, 115)),
    "etri": ((39, 67, 124), (33, 58, 113), (32, 59, 113), (31, 57, 111)),
}

REF_GMRES_ILU0 = {
    "hexagon": ((8, 11, 16), (10, 13, 20), (11, 15, 23), (10, 13, 22)),
    "square": ((8, 10, 16), (8, 11, 19), (7, 10, 17), (8, 10, 18)),
    "rtri": ((13, 19, 32), (10, 14, 28), (10, 15, 27), (11, 14, 28)),
    "etri": ((11, 15, 27), (10, 12, 22), (9, 12, 22), (9, 12, 22)),
}

REF_EULER_JACOBI = {
    "hexagon": ((32, 49, 78), (31, 50, 83), (50, 90, 158), (53, 97, 171)),
    "square": ((34, 51, 89), (31, 54, 92), (54, 99, 181), (55, 105, 201)),
    "rtri": ((37, 56, 97), (41, 64, 112), (58, 101, 189), (59, 113, 217)),
    "etri": ((37, 57, 95), (39, 62, 113), (54, 99, 179), (60, 114, 215)),
}

REF_EULER_GMRES_JACOBI = {
    "hexagon": ((55, 74, 106), (50, 92, 126), (61, 110, 153), (76, 141, 195)),
    "square": ((62, 84, 155), (52, 93, 132), (67, 126, 185), (78, 149, 222)),
    "rtri": ((63, 87, 162), (81, 106, 184), (96, 132, 242), (85, 159, 299)),
    "etri": ((66, 90, 167), (81, 108, 187), (72, 133, 197), (85, 161, 245)),
}

REF_EULER_GMRES_ILU0 = {
    "hexagon": ((24, 32, 42), (21, 36, 48), (29, 48, 57), (29, 50, 64)),
    "square": ((24, 28, 45), (21, 33, 40), (24, 41, 49), (27, 48, 60)),
    "rtri": ((31, 40, 70), (35, 40, 60), (36, 48, 69), (31, 49, 75)),
    "etri": ((28, 37, 65), (37, 44, 70), (33, 56, 68), (38, 64, 80)),
}

CELLS = [(pat, p, i) for pat in PATTERNS for p in range(4)
         for i in range(3)]
CELL_IDS = [f"{pat}-p{p}-{K_LABELS[i]}" for pat, p, i in CELLS]


def report_counts(report):
    """{(pattern, p, k_index): iterations} from an experiment report."""
    assert report.all_converged
    out = {}
    for row in report.rows:
        key = (row["pattern"], int(row["p"]), K_LABELS.index(row["k_label"]))
        out[key] = int(row["iterations"])
    return out


# =====================================================================
# 1. one-dimensional model: assembled spectral radius vs closed form
# =====================================================================

@pytest.mark.parametrize("k_over_h", [0.2, 1.0 / 3.0, 0.5, 1.0, 2.5])
def test_1d_spectral_radius_closed_form(k_over_h):
    n, h = 32, 1.0 / 32.0
    k = k_over_h * h
    A = backward_euler_matrix(n, h, k)
    rho = spectral_radius(jacobi_iteration_matrix(A))
    expect = 2.0 * k * abs(h - 3.0 * k) / (h * h + 4.0 * h * k + 6.0 * k * k)
    if k_over_h == 1.0 / 3.0:
        assert rho <= 1e-12
    else:
        assert rho == pytest.approx(expect, abs=1e-10)
    assert lambda_max_1d(h, k) == pytest.approx(expect, abs=1e-14)


# =====================================================================
# 2. p = 0 closed-form symbol eigenvalues, random admissible draws
# =====================================================================

@pytest.mark.parametrize("kind", PATTERNS)
def test_p0_closed_forms_random_draws(kind):
    rng = np.random.default_rng(12345)
    h = pattern_side_length(kind, h_E_from_area(AREA))
    checked = 0
    while checked < 100:
        a, b = rng.uniform(0.0, 1.5, 2)
        try:
            check_admissible(kind, a, b)
        except Exception:
            continue
        k = rng.uniform(0.1, 6.0)
        nx, ny = rng.uniform(-4.0, 4.0, 2)
        sym = PatternSymbol(kind, 0, AREA, (a, b))
        R = sym.jacobi_symbol(k, *sym.wave_phases(nx, ny))
        eigs = np.linalg.eigvals(R)
        wx, wy = paper_wave_coords(kind, nx, ny)
        closed = closed_form_p0_eigs(kind, h, a, b, k, wx, wy)
        for lam in closed:
            assert np.min(np.abs(eigs - lam)) < 1e-12
        checked += 1


# =====================================================================
# 3. symbol oracle: assembled periodic tiling vs symbol spectrum union
# =====================================================================

@pytest.mark.parametrize("kind", PATTERNS)
@pytest.mark.parametrize("p", [0, 1])
def test_symbol_matches_assembled_tiling(kind, p):
    n1 = n2 = 4
    theta = {"square": 0.6, "hexagon": 0.4, "rtri": 0.5, "etri": 0.4}[kind]
    vel = (np.cos(theta), np.sin(theta))
    k = 2.0
    mesh = build_pattern_tiling(kind, AREA, n1, n2)
    space = DgSpace(mesh, p)
    M, L = assemble_advection(space, vel)
    A = backward_euler_system(M, L, k)
    eigs = np.linalg.eigvals(jacobi_iteration_matrix(A, dim_cap=4000))
    sym = PatternSymbol(kind, p, AREA, vel)
    for m1 in range(n1):
        for m2 in range(n2):
            phases = (2.0 * np.pi * m1 / n1, 2.0 * np.pi * m2 / n2)
            R = sym.jacobi_symbol(k, *phases)
            for lam in np.linalg.eigvals(R):
                assert np.min(np.abs(eigs - lam)) < 1e-8


# =====================================================================
# 4. symbol-analysis log-ratio table
# =====================================================================

@pytest.fixture(scope="module")
def log_ratio_table():
    return ratio_table([0, 1, 2, 3], list(K_LABELS))


@pytest.mark.parametrize("cell", CELLS, ids=CELL_IDS)
def test_log_ratio_cell(log_ratio_table, cell):
    pat, p, i = cell
    _, ratio = log_ratio_table[(pat, p, K_LABELS[i])]
    assert ratio == pytest.approx(REF_LOG_RATIOS[(pat, p)][i], abs=0.02)


@pytest.mark.parametrize("p,i", [(p, i) for p in range(4) for i in range(3)])
def test_log_ratio_winner(log_ratio_table, p, i):
    ratios = {pat: log_ratio_table[(pat, p, K_LABELS[i])][1]
              for pat in PATTERNS}
    winner = min(ratios, key=ratios.get)
    assert winner == ("square" if p == 3 else "hexagon")
    assert ratios[winner] == pytest.approx(1.0, abs=1e-12)


# =====================================================================
# 5. block Jacobi advection iteration counts
# =====================================================================

@pytest.fixture(scope="module")
def jacobi_counts():
    return report_counts(run_advect(solver="jacobi", preconditioner="none"))


@pytest.mark.parametrize("cell", CELLS, ids=CELL_IDS)
def test_jacobi_advection_cell(jacobi_counts, cell):
    pat, p, i = cell
    expect = REF_JACOBI[pat][p][i]
    assert abs(jacobi_counts[cell] - expect) <= 0.10 * expect


@pytest.mark.parametrize("p,i", [(p, i) for p in range(4) for i in range(3)])
def test_jacobi_advection_column_winner(jacobi_counts, p, i):
    counts = {pat: jacobi_counts[(pat, p, i)] for pat in PATTERNS}
    best = min(counts.values())
    assert min(counts["hexagon"], counts["square"]) == best


# =====================================================================
# 6. perturbed Voronoi vs Delaunay
# =====================================================================

@pytest.fixture(scope="module")
def random_advect_report():
    return run_random_advect(seed=0)


def random_counts(report):
    out = {}
    cells = {}
    for row in report.rows:
        key = (row["pattern"], int(row["p"]), K_LABELS.index(row["k_label"]))
        out[key] = int(row["iterations"])
        cells[row["pattern"]] = int(row["mesh"].split("(")[1].split()[0])
    return out, cells


@pytest.mark.parametrize("p,i", [(p, i) for p in range(4) for i in range(3)])
def test_voronoi_beats_delaunay(random_advect_report, p, i):
    counts, _ = random_counts(random_advect_report)
    assert counts[("voronoi", p, i)] < counts[("delaunay", p, i)]


@pytest.mark.parametrize("mesh_kind", ["voronoi", "delaunay"])
def test_random_mesh_cell_counts(random_advect_report, mesh_kind):
    _, cells = random_counts(random_advect_report)
    expect = REF_RANDOM_CELLS[mesh_kind]
    assert abs(cells[mesh_kind] - expect) <= 0.10 * expect


# =====================================================================
# 7. preconditioned GMRES advection iteration counts
# =====================================================================

@pytest.fixture(scope="module")
def gmres_jacobi_counts():
    return report_counts(run_advect(solver="gmres", preconditioner="jacobi"))


@pytest.fixture(scope="module")
def gmres_ilu0_counts():
    return report_counts(run_advect(solver="gmres", preconditioner="ilu0"))


@pytest.mark.parametrize("cell", CELLS, ids=CELL_IDS)
def test_gmres_jacobi_advection_cell(gmres_jacobi_counts, cell):
    pat, p, i = cell
    expect = REF_GMRES_JACOBI[pat][p][i]
    assert abs(gmres_jacobi_counts[cell] - expect) <= 0.10 * expect


@pytest.mark.parametrize("cell", CELLS, ids=CELL_IDS)
def test_gmres_ilu0_advection_cell(gmres_ilu0_counts, cell):
    pat, p, i = cell
    expect = REF_GMRES_ILU0[pat][p][i]
    assert abs(gmres_ilu0_counts[cell] - expect) <= 3


@pytest.mark.parametrize("cell", CELLS, ids=CELL_IDS)
def test_ilu0_beats_jacobi_preconditioning(gmres_jacobi_counts,
                                           gmres_ilu0_counts, cell):
    assert gmres_ilu0_counts[cell] < gmres_jacobi_counts[cell]


# =====================================================================
# 8. implicit Euler vortex step
# =====================================================================

EULER_SOLVERS = ("jacobi", "gmres+jacobi", "gmres+ilu0")
EULER_REFS = {"jacobi": REF_EULER_JACOBI,
              "gmres+jacobi": REF_EULER_GMRES_JACOBI,
              "gmres+ilu0": REF_EULER_GMRES_ILU0}


@pytest.fixture(scope="module")
def euler_report():
    return run_euler_vortex(solver_names=EULER_SOLVERS)


def euler_counts(report, solver_name):
    want = {"jacobi": ("jacobi", "none"),
            "gmres+jacobi": ("gmres", "jacobi"),
            "gmres+ilu0": ("gmres", "ilu0")}[solver_name]
    out = {}
    newton = {}
    for row in report.rows:
        if (row["solver"], row["preconditioner"]) != want:
            continue
        key = (row["pattern"], int(row["p"]), K_LABELS.index(row["k_label"]))
        out[key] = int(row["iterations"])
        newton[key] = int(row["newton_iters"])
    return out, newton


@pytest.mark.parametrize("cell", CELLS, ids=CELL_IDS)
def test_euler_newton_iteration_range(euler_report, cell):
    _, newton = euler_counts(euler_report, "jacobi")
    assert 3 <= newton[cell] <= 8


@pytest.mark.parametrize("solver", EULER_SOLVERS)
@pytest.mark.parametrize("cell", CELLS, ids=CELL_IDS)
def test_euler_linear_iteration_cell(euler_report, solver, cell):
    pat, p, i = cell
    counts, _ = euler_counts(euler_report, solver)
    expect = EULER_REFS[solver][pat][p][i]
    assert abs(counts[cell] - expect) <= 0.15 * expect


@pytest.mark.parametrize("solver", ["jacobi", "gmres+jacobi"])
@pytest.mark.parametrize("p,i", [(p, i) for p in range(4) for i in range(3)])
def test_euler_hexagon_minimal(euler_report, solver, p, i):
    counts, _ = euler_counts(euler_report, solver)
    others = [counts[(pat, p, i)] for pat in PATTERNS if pat != "hexagon"]
    assert counts[("hexagon", p, i)] <= min(others)


def test_euler_squares_minimal_for_ilu0(euler_report):
    counts, _ = euler_counts(euler_report, "gmres+ilu0")
    wins = 0
    for p in range(4):
        for i in range(3):
            col = {pat: counts[(pat, p, i)] for pat in PATTERNS}
            if col["square"] == min(col.values()):
                wins += 1
    assert wins >= 10


# =====================================================================
# 9. structural properties
# =====================================================================

def test_property_conservation():
    side = 0.25
    mesh = build_regular_mesh("square", side * side, (0.0, 0.0, 1.0, 1.0),
                              periodic=True)
    space = DgSpace(mesh, 1)
    M, L = assemble_advection(space, rotating_velocity)
    u = space.project(gaussian_pulse()).ravel()
    ones = space.project(lambda x, y: np.ones_like(x)).ravel()
    A = backward_euler_system(M, L, 0.1)
    unew, _, ok = block_jacobi_solve(A, M.matvec(u), tol=1e-14)
    assert ok
    assert ones @ M.matvec(unew) == pytest.approx(ones @ M.matvec(u),
                                                  rel=1e-11)


def test_property_flux_consistency():
    from polydg.euler import flux, lax_friedrichs_flux
    rng = np.random.default_rng(0)
    rho = 1.0 + rng.random(10)
    vx, vy = rng.standard_normal((2, 10))
    p = 1.0 + rng.random(10)
    E = p / (0.4 * rho) + 0.5 * (vx ** 2 + vy ** 2)
    u = np.stack([rho, rho * vx, rho * vy, rho * E], axis=-1)
    n = rng.standard_normal((10, 2))
    n /= np.linalg.norm(n, axis=1, keepdims=True)
    fn, _ = lax_friedrichs_flux(u, u, n, 1.4)
    f1, f2 = flux(u, 1.4)
    assert np.max(np.abs(fn - (f1 * n[:, :1] + f2 * n[:, 1:2]))) < 1e-14


def test_property_jacobian_finite_difference():
    from polydg.euler import EulerDiscretization, EulerParams
    mesh = build_regular_mesh("square", 0.25, (0.0, 0.0, 1.0, 1.0),
                              boundary_tag="exact_state")
    disc = EulerDiscretization(DgSpace(mesh, 1), EulerParams(x0=0.5, y0=0.5))
    U = disc.project_exact(0.0)
    _, alphas = disc.spatial_residual(U, 0.0)
    A = disc.spatial_jacobian(U, 0.0, alphas).to_dense()
    scale = max(1.0, np.max(np.abs(A)))
    eps = 1e-6
    rng = np.random.default_rng(1)
    for j in rng.choice(disc.dim, size=16, replace=False):
        dU = np.zeros(disc.dim)
        dU[j] = eps
        Rp, _ = disc.spatial_residual(U + dU, 0.0, frozen_alphas=alphas)
        Rm, _ = disc.spatial_residual(U - dU, 0.0, frozen_alphas=alphas)
        assert np.max(np.abs((Rp - Rm) / (2 * eps) - A[:, j])) < 1e-6 * scale


def test_property_quadrature_exactness():
    from polydg.basis import polygon_quadrature
    verts = np.array([[0.0, 0.0], [2.0, 0.2], [2.3, 1.7], [1.0, 2.4],
                      [-0.3, 1.2]])
    for deg in (2, 4, 6, 8):
        quad = polygon_quadrature(verts, deg)
        for i in range(deg + 1):
            for j in range(deg + 1 - i):
                val = quad.integrate(lambda x, y: x ** i * y ** j)
                ref = polygon_quadrature(verts, deg + 4).integrate(
                    lambda x, y: x ** i * y ** j)
                assert val == pytest.approx(ref, rel=1e-12, abs=1e-12)


def test_property_jacobi_spectrum_basis_invariance():
    # similarity by any block-diagonal change of local basis leaves the
    # block Jacobi iteration spectrum unchanged
    rng = np.random.default_rng(2)
    n, b = 6, 3
    blocks = {}
    for i in range(n):
        for j in range(n):
            if i == j or rng.random() < 0.4:
                blocks[(i, j)] = rng.standard_normal((b, b))
        blocks[(i, i)] += 3.0 * b * np.eye(b)
    A = BlockSparseMatrix.from_block_dict(n, b, blocks)
    T = [rng.standard_normal((b, b)) + 3.0 * np.eye(b) for _ in range(n)]
    tblocks = {}
    for (i, j), blk in blocks.items():
        tblocks[(i, j)] = np.linalg.solve(T[i], blk @ T[j])
    B = BlockSparseMatrix.from_block_dict(n, b, tblocks)
    ea = np.sort_complex(np.linalg.eigvals(jacobi_iteration_matrix(A)))
    eb = np.sort_complex(np.linalg.eigvals(jacobi_iteration_matrix(B)))
    for lam in ea:
        assert np.min(np.abs(eb - lam)) < 1e-10


def test_property_bilu0_exact_factorization():
    rng = np.random.default_rng(3)
    n, b = 8, 2
    blocks = {}
    for i in range(n):
        blocks[(i, i)] = rng.standard_normal((b, b)) + 4.0 * b * np.eye(b)
        if i > 0:
            blocks[(i, i - 1)] = rng.standard_normal((b, b))
    A = BlockSparseMatrix.from_block_dict(n, b, blocks)
    fac = factor_bilu0(A)
    assert np.max(np.abs(fac.lu_product_dense() - A.to_dense())) < 1e-10
    rhs = rng.standard_normal(A.dim)
    _, it, ok = gmres(A, rhs, preconditioner=fac)
    assert ok and it == 1


def test_property_dirk3_convergence_slope():
    M = BlockSparseMatrix.from_block_dict(1, 1, {(0, 0): np.eye(1)})
    L = BlockSparseMatrix.from_block_dict(1, 1, {(0, 0): np.eye(1)})
    errs = []
    steps = [16, 32, 64]
    for nsteps in steps:
        k = 1.0 / nsteps
        u = np.ones(1)
        for _ in range(nsteps):
            u = dirk3_step(M, L, k, u,
                           lambda S, r: np.linalg.solve(S.to_dense(), r))
        errs.append(abs(u[0] - np.exp(-1.0)))
    slope = np.polyfit(np.log(1.0 / np.array(steps)), np.log(errs), 1)[0]
    assert abs(slope - 3.0) < 0.1
