"""Experiment drivers: symbol-analysis ratio tables, variable-velocity
advection solves on regular and randomly perturbed meshes, and the implicit
Euler vortex step, each reported as CSV rows with a fixed header."""

import csv
import time
from dataclasses import dataclass, field

import numpy as np

from .basis import DgSpace
from .blocklinalg import (block_jacobi_solve, factor_bilu0,
                          factor_block_jacobi, gmres)
from .discretization import (advection_initial_condition, assemble_advection,
                             gaussian_pulse, rotating_velocity)
from .euler import EulerDiscretization, EulerParams
from .mesh import (build_random_mesh_pair, build_regular_mesh,
                   natural_ordering, pattern_row_height)
from .timestepping import newton_solve
from .vonneumann import SweepConfig, ratio_table

CSV_HEADER = ["experiment", "mesh", "pattern", "p", "k_label", "solver",
              "preconditioner", "iterations", "newton_iters",
              "final_residual", "wall_ms"]

# the only supported (solver, preconditioner) pairs, by name
SOLVER_CONFIGS = {
    "jacobi": ("jacobi", "none"),
    "gmres+jacobi": ("gmres", "jacobi"),
    "gmres+ilu0": ("gmres", "ilu0"),
}


class ExperimentError(Exception):
    pass


def solver_config_name(solver, preconditioner):
    """The SOLVER_CONFIGS name of a (solver, preconditioner) pair; any other
    pair is an ExperimentError."""
    for name, config in SOLVER_CONFIGS.items():
        if config == (solver, preconditioner):
            return name
    raise ExperimentError(
        f"unsupported solver/preconditioner combination "
        f"{solver}+{preconditioner} (choose from "
        f"{', '.join('+'.join(pair) for pair in SOLVER_CONFIGS.values())})")


@dataclass
class ExperimentReport:
    experiment: str
    config: dict
    rows: list = field(default_factory=list)
    all_converged: bool = True

    def add(self, mesh="", pattern="", p="", k_label="", solver="",
            preconditioner="", iterations="", newton_iters="",
            final_residual="", wall_ms="", converged=True, **extra):
        row = {"experiment": self.experiment, "mesh": mesh, "pattern": pattern,
               "p": p, "k_label": k_label, "solver": solver,
               "preconditioner": preconditioner, "iterations": iterations,
               "newton_iters": newton_iters, "final_residual": final_residual,
               "wall_ms": wall_ms}
        row.update(extra)
        if not converged:
            self.all_converged = False
        self.rows.append(row)

    def write_csv(self, path, extra_columns=()):
        header = CSV_HEADER + list(extra_columns)
        with open(path, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["# " + " ".join(
                f"{k}={v}" for k, v in sorted(self.config.items()))])
            w.writerow(header)
            for row in self.rows:
                w.writerow([row.get(col, "") for col in header])

    def format_table(self, extra_columns=()):
        header = CSV_HEADER + list(extra_columns)
        cols = [header] + [[str(row.get(c, "")) for c in header]
                           for row in self.rows]
        widths = [max(len(r[i]) for r in cols) for i in range(len(header))]
        lines = ["  ".join(r[i].ljust(widths[i]) for i in range(len(header)))
                 for r in cols]
        return "\n".join(lines)


def solve_linear(A, rhs, solver, preconditioner, tol, ordering=None,
                 max_iters=200000):
    """Dispatch one linear solve of a SOLVER_CONFIGS pair; returns
    (x, iterations, residual, ok)."""
    name = solver_config_name(solver, preconditioner)
    if name == "jacobi":
        x, it, ok = block_jacobi_solve(A, rhs, tol=tol, max_iters=max_iters)
    else:
        prec = (factor_block_jacobi(A) if name == "gmres+jacobi"
                else factor_bilu0(A, ordering))
        x, it, ok = gmres(A, rhs, preconditioner=prec, tol=tol,
                          max_iters=max_iters)
    bnorm = np.linalg.norm(rhs)
    res = float(np.linalg.norm(rhs - A.matvec(x)) / (bnorm if bnorm else 1.0))
    return x, it, res, ok


# -- symbol analysis ------------------------------------------------------

def run_analyze(p_list=(0, 1, 2, 3), k_labels=("k1", "k2", "k3"),
                config=None):
    config = config or SweepConfig()
    report = ExperimentReport("analyze", {
        "p": ",".join(map(str, p_list)), "k": ",".join(k_labels),
        "theta_samples": config.theta_samples,
        "wave_samples": config.wave_samples,
        "theta_range": config.theta_range})
    t0 = time.perf_counter()
    tab = ratio_table(list(p_list), list(k_labels), config)
    wall = 1000.0 * (time.perf_counter() - t0)
    for (kind, p, lab), (lam, ratio) in sorted(tab.items()):
        report.add(pattern=kind, p=p, k_label=lab, solver="symbol",
                   wall_ms=f"{wall / len(tab):.1f}",
                   lambda_max=f"{lam:.6f}", log_ratio=f"{ratio:.6f}")
    return report


ANALYZE_EXTRA_COLUMNS = ("lambda_max", "log_ratio")


# -- variable-velocity advection ------------------------------------------

ADVECTION_H = 0.05


def advection_timestep(label, h=ADVECTION_H):
    """k1 = h / max|beta| = h / sqrt(2); k2 = 2 k1; k3 = 4 k1."""
    k1 = h / np.sqrt(2.0)
    try:
        return {"k1": k1, "k2": 2.0 * k1, "k3": 4.0 * k1}[label]
    except KeyError:
        raise ExperimentError(f"unknown timestep label {label!r}")


def advection_mesh(pattern, h=ADVECTION_H, periodic=False):
    return build_regular_mesh(pattern, h * h, (0.0, 0.0, 1.0, 1.0),
                              periodic=periodic)


def run_advect_case(mesh, p, k, solver, preconditioner, tol=1e-14, n_steps=1,
                    band_height=None):
    """Project the Gaussian and advance n_steps backward Euler solves.

    Returns the iteration count of the last solve: the first few counts creep
    up as the state picks up the slowly converging solver modes, so a settled
    count characterizes the time-stepping regime better than the very first.
    """
    space = DgSpace(mesh, p)
    M, L = assemble_advection(mesh, space, rotating_velocity)
    A = L.scaled_add_diag(k, M.diagonal_blocks())
    u = advection_initial_condition(mesh, space, gaussian_pulse())
    ordering = (natural_ordering(mesh, band_height)
                if preconditioner == "ilu0" else None)
    t0 = time.perf_counter()
    it = 0
    res = 0.0
    ok = True
    for _step in range(n_steps):
        rhs = M.matvec(u)
        u, it, res, step_ok = solve_linear(A, rhs, solver, preconditioner,
                                           tol, ordering)
        ok = ok and step_ok
    wall = 1000.0 * (time.perf_counter() - t0) / max(1, n_steps)
    return it, res, ok, wall


def run_advect(patterns=("hexagon", "square", "rtri", "etri"),
               p_list=(0, 1, 2, 3), k_labels=("k1", "k2", "k3"),
               solver="jacobi", preconditioner="none", tol=1e-14,
               mesh_file=None, h=ADVECTION_H, n_steps=12, bc="zero-inflow"):
    from .mesh import read_mesh
    solver_config_name(solver, preconditioner)
    if bc not in ("zero-inflow", "periodic"):
        raise ExperimentError(f"unknown boundary condition {bc!r}")
    periodic = bc == "periodic"
    report = ExperimentReport("advect", {
        "h": h, "solver": solver, "preconditioner": preconditioner,
        "tol": tol, "p": ",".join(map(str, p_list)),
        "k": ",".join(k_labels), "bc": bc, "mesh_file": mesh_file or ""})
    for pattern in patterns if mesh_file is None else ("file",):
        if mesh_file is None:
            mesh = advection_mesh(pattern, h, periodic=periodic)
            mesh_name = f"regular-{pattern}"
            band = pattern_row_height(pattern, h * h)
        else:
            mesh = read_mesh(mesh_file)
            if periodic and not mesh.is_periodic:
                raise ExperimentError(f"bc 'periodic' needs a mesh file with "
                                      f"a periodic section: {mesh_file}")
            mesh_name = mesh_file
            band = None
        for p in p_list:
            for lab in k_labels:
                k = advection_timestep(lab, h)
                it, res, ok, wall = run_advect_case(
                    mesh, p, k, solver, preconditioner, tol,
                    n_steps=n_steps, band_height=band)
                report.add(mesh=mesh_name, pattern=pattern, p=p, k_label=lab,
                           solver=solver, preconditioner=preconditioner,
                           iterations=it, final_residual=f"{res:.3e}",
                           wall_ms=f"{wall:.1f}", converged=ok)
    return report


def run_random_advect(h=ADVECTION_H, delta=None, seed=0,
                      p_list=(0, 1, 2, 3), k_labels=("k1", "k2", "k3"),
                      solver="jacobi", preconditioner="none", tol=1e-14,
                      n_steps=12):
    solver_config_name(solver, preconditioner)
    if delta is None:
        delta = 0.25 * h
    delaunay, voronoi = build_random_mesh_pair(h, delta, seed=seed)
    report = ExperimentReport("random-advect", {
        "h": h, "delta": delta, "seed": seed, "solver": solver,
        "preconditioner": preconditioner, "tol": tol})
    for name, mesh in (("voronoi", voronoi), ("delaunay", delaunay)):
        for p in p_list:
            for lab in k_labels:
                k = advection_timestep(lab, h)
                it, res, ok, wall = run_advect_case(
                    mesh, p, k, solver, preconditioner, tol, n_steps=n_steps)
                report.add(mesh=f"{name}({mesh.n_cells} cells)", pattern=name,
                           p=p, k_label=lab, solver=solver,
                           preconditioner=preconditioner, iterations=it,
                           final_residual=f"{res:.3e}", wall_ms=f"{wall:.1f}",
                           converged=ok)
    return report


# -- Euler vortex ---------------------------------------------------------

EULER_DOMAIN = (0.0, 0.0, 20.0, 15.0)
EULER_H = 1.0


def euler_timestep(label, h=EULER_H):
    k1 = 0.03 * h
    try:
        return {"k1": k1, "k2": 2.0 * k1, "k3": 4.0 * k1}[label]
    except KeyError:
        raise ExperimentError(f"unknown timestep label {label!r}")


def euler_mesh(pattern, h=EULER_H):
    return build_regular_mesh(pattern, h * h, EULER_DOMAIN, periodic=False,
                              boundary_tag="exact_state")


def run_euler_case(mesh, p, k, solver_names, tol=1e-14, newton_tol=5e-13,
                   params=None, band_height=None):
    """One backward Euler step of the vortex via Newton.

    All requested solver configurations are run on the same sequence of
    Newton linear systems (driven by the first configuration's solution),
    so their iteration totals are directly comparable. Returns
    {name: (total_iterations, converged)}, newton_iters, final_newton_residual.
    """
    params = params or EulerParams()
    space = DgSpace(mesh, p)
    disc = EulerDiscretization(mesh, space, params)
    Un = disc.project_exact(0.0)
    Mblocks = disc.mass_blocks()
    ordering = (natural_ordering(mesh, band_height)
                if any(SOLVER_CONFIGS[name][1] == "ilu0"
                       for name in solver_names) else None)
    totals = {name: 0 for name in solver_names}
    ok_all = {name: True for name in solver_names}

    # the state of the last residual evaluation and its Lax-Friedrichs
    # coefficients: newton_solve asks for the Jacobian at the state whose
    # residual it has just evaluated
    last = {"u": None, "alphas": None}

    def residual(u):
        r, last["alphas"] = disc.spatial_residual(u, k)
        last["u"] = u
        W = disc.coeffs(u - Un)
        mr = np.einsum("cij,cj->ci", Mblocks, W.reshape(mesh.n_cells, -1))
        return mr.ravel() + k * r

    def jacobian(u):
        if last["u"] is u or np.array_equal(last["u"], u):
            alphas = last["alphas"]
        else:
            _, alphas = disc.spatial_residual(u, k)
        J = disc.spatial_jacobian(u, k, alphas)
        return J.scaled_add_diag(k, Mblocks)

    def linear_solver(A, rhs):
        x_drive, it_drive = None, None
        for name in solver_names:
            s, pc = SOLVER_CONFIGS[name]
            x, it, _res, ok = solve_linear(A, rhs, s, pc, tol, ordering)
            totals[name] += it
            ok_all[name] = ok_all[name] and ok
            if x_drive is None:
                x_drive, it_drive = x, it
        return x_drive, it_drive

    res = newton_solve(residual, jacobian, Un, linear_solver, tol=newton_tol)
    if not res.converged:
        raise ExperimentError(
            f"Newton failed to converge: residuals {res.residual_norms}")
    out = {name: (totals[name], ok_all[name]) for name in solver_names}
    return out, res.n_iters, res.residual_norms[-1]


def run_euler_vortex(patterns=("hexagon", "square", "rtri", "etri"),
                     p_list=(0, 1, 2, 3), k_labels=("k1", "k2", "k3"),
                     solver_names=("gmres+ilu0",), tol=1e-14,
                     newton_tol=5e-13):
    report = ExperimentReport("euler-vortex", {
        "tol": tol, "newton_tol": newton_tol,
        "solvers": "|".join(solver_names)})
    for pattern in patterns:
        mesh = euler_mesh(pattern)
        band = pattern_row_height(pattern, EULER_H * EULER_H)
        for p in p_list:
            for lab in k_labels:
                k = euler_timestep(lab)
                t0 = time.perf_counter()
                counts, n_newton, final = run_euler_case(
                    mesh, p, k, solver_names, tol, newton_tol,
                    band_height=band)
                wall = 1000.0 * (time.perf_counter() - t0)
                for name, (total, ok) in counts.items():
                    s, pc = SOLVER_CONFIGS[name]
                    report.add(mesh=f"regular-{pattern}", pattern=pattern,
                               p=p, k_label=lab, solver=s, preconditioner=pc,
                               iterations=total, newton_iters=n_newton,
                               final_residual=f"{final:.3e}",
                               wall_ms=f"{wall:.1f}", converged=ok)
    return report
