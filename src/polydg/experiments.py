"""Experiment drivers: symbol-analysis ratio tables, variable-velocity
advection solves on regular and randomly perturbed meshes, and the implicit
Euler vortex step, each reported as CSV rows with a fixed header."""

import csv
import time
from dataclasses import dataclass, field

import numpy as np

from .basis import DEGREES, DgSpace, check_degree
from .blocklinalg import (TOL, block_jacobi_solve, factor_bilu0,
                          factor_block_jacobi, gmres)
from .discretization import (assemble_advection, gaussian_pulse,
                             rotating_velocity)
from .euler import EulerDiscretization, EulerParams
from .mesh import (PATTERN_KINDS, RANDOM_JITTER, build_random_mesh_pair,
                   build_regular_mesh, natural_ordering, read_mesh)
from .timestepping import NEWTON_TOL, backward_euler_system, newton_solve
from .vonneumann import TIMESTEP_FACTORS, SweepConfig, ratio_table

CSV_HEADER = ["experiment", "mesh", "pattern", "p", "k_label", "solver",
              "preconditioner", "iterations", "newton_iters",
              "final_residual", "wall_ms"]

# the only supported (solver, preconditioner) pairs, by name
SOLVER_CONFIGS = {
    "jacobi": ("jacobi", "none"),
    "gmres+jacobi": ("gmres", "jacobi"),
    "gmres+ilu0": ("gmres", "ilu0"),
}
DEFAULT_SOLVER = "jacobi"
DEFAULT_PAIR = SOLVER_CONFIGS[DEFAULT_SOLVER]
BOUNDARY_CONDITIONS = ("zero-inflow", "periodic")


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


def _scaled_timestep(label, k1):
    """TIMESTEP_FACTORS[label] * k1; an unknown label is an ExperimentError."""
    if label not in TIMESTEP_FACTORS:
        raise ExperimentError(f"unknown timestep label {label!r}")
    return TIMESTEP_FACTORS[label] * k1


def _checked_steps(p_list, k_labels, timestep, h, patterns=(), **positive):
    """(label, timestep(label, h)) for each of k_labels, after checking the
    degrees, labels and pattern kinds, and that h and the `positive` values
    are finite and positive: bad input fails before any mesh is built."""
    for name, value in dict(h=h, **positive).items():
        if not (np.isfinite(value) and value > 0):
            raise ExperimentError(
                f"{name} must be finite and positive, got {value}")
    for p in p_list:
        check_degree(p)
    for kind in patterns:
        if kind not in PATTERN_KINDS:
            raise ExperimentError(f"unknown pattern kind {kind!r} "
                                  f"(choose from {', '.join(PATTERN_KINDS)})")
    return [(lab, timestep(lab, h)) for lab in k_labels]


def _check_solver_names(solver_names):
    """An ExperimentError if a name is not in SOLVER_CONFIGS."""
    for name in solver_names:
        if name not in SOLVER_CONFIGS:
            raise ExperimentError(
                f"unknown solver configuration {name!r} (choose from "
                f"{', '.join(SOLVER_CONFIGS)})")


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

    @property
    def columns(self):
        """CSV_HEADER, then the extra keys of the first row in their order."""
        first = self.rows[0] if self.rows else {}
        return CSV_HEADER + [key for key in first if key not in CSV_HEADER]

    def write_csv(self, path):
        header = self.columns
        with open(path, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["# " + " ".join(
                f"{k}={v}" for k, v in sorted(self.config.items()))])
            w.writerow(header)
            for row in self.rows:
                w.writerow([row.get(col, "") for col in header])

    def format_table(self):
        header = self.columns
        cols = [header] + [[str(row.get(c, "")) for c in header]
                           for row in self.rows]
        widths = [max(len(r[i]) for r in cols) for i in range(len(header))]
        lines = ["  ".join(r[i].ljust(widths[i]) for i in range(len(header)))
                 for r in cols]
        return "\n".join(lines)


def _timed(fn, *args):
    """fn(*args) and the milliseconds the call took."""
    t0 = time.perf_counter()
    out = fn(*args)
    return out, 1000.0 * (time.perf_counter() - t0)


def solve_linear(A, rhs, solver, preconditioner, tol, ordering=None):
    """Dispatch one linear solve of a SOLVER_CONFIGS pair; returns
    (x, iterations, residual, ok)."""
    name = solver_config_name(solver, preconditioner)
    if name == "jacobi":
        x, it, ok = block_jacobi_solve(A, rhs, tol=tol)
    else:
        prec = (factor_block_jacobi(A) if name == "gmres+jacobi"
                else factor_bilu0(A, ordering))
        x, it, ok = gmres(A, rhs, preconditioner=prec, tol=tol)
    bnorm = np.linalg.norm(rhs)
    res = float(np.linalg.norm(rhs - A.matvec(x)) / (bnorm if bnorm else 1.0))
    return x, it, res, ok


# -- symbol analysis ------------------------------------------------------

def run_analyze(p_list=DEGREES, k_labels=tuple(TIMESTEP_FACTORS),
                config=None):
    config = config or SweepConfig()
    report = ExperimentReport("analyze", {
        "p": ",".join(map(str, p_list)), "k": ",".join(k_labels),
        "theta_samples": config.theta_samples,
        "wave_samples": config.wave_samples,
        "theta_range": config.theta_range})
    tab, wall = _timed(ratio_table, list(p_list), list(k_labels), config)
    for (kind, p, lab), (lam, ratio) in sorted(tab.items()):
        report.add(pattern=kind, p=p, k_label=lab, solver="symbol",
                   wall_ms=f"{wall:.1f}",
                   lambda_max=f"{lam:.6f}", log_ratio=f"{ratio:.6f}")
    return report


# -- variable-velocity advection ------------------------------------------

ADVECTION_H = 0.05


def advection_timestep(label, h=ADVECTION_H):
    """k1 = h / max|beta| = h / sqrt(2); k2 = 2 k1; k3 = 4 k1."""
    return _scaled_timestep(label, h / np.sqrt(2.0))


def advection_mesh(pattern, h=ADVECTION_H, periodic=False):
    return build_regular_mesh(pattern, h * h, periodic=periodic)


def run_advect_case(mesh, p, k, solver, preconditioner, tol=TOL, n_steps=1):
    """Project the Gaussian and advance n_steps backward Euler solves.

    Returns the last solve's count and residual, and whether every solve
    converged. The first few counts creep up as the state picks up the
    slowly converging solver modes; a settled count characterizes the
    time-stepping regime better than the very first.
    """
    space = DgSpace(mesh, p)
    M, L = assemble_advection(space, rotating_velocity)
    A = backward_euler_system(M, L, k)
    u = space.project(gaussian_pulse()).ravel()
    ordering = natural_ordering(mesh) if preconditioner == "ilu0" else None
    it, res, ok = 0, 0.0, True
    for _step in range(n_steps):
        rhs = M.matvec(u)
        u, it, res, step_ok = solve_linear(A, rhs, solver, preconditioner,
                                           tol, ordering)
        ok = ok and step_ok
    return it, res, ok


def _advect_rows(report, meshes, p_list, steps, solver, preconditioner,
                 tol, n_steps):
    """Add a row per (mesh, p, k) to report; meshes yields (mesh name,
    pattern, mesh) and is drawn one mesh at a time."""
    for mesh_name, pattern, mesh in meshes:
        for p in p_list:
            for lab, k in steps:
                (it, res, ok), wall = _timed(run_advect_case, mesh, p, k,
                                             solver, preconditioner, tol,
                                             n_steps)
                report.add(mesh=mesh_name, pattern=pattern, p=p, k_label=lab,
                           solver=solver, preconditioner=preconditioner,
                           iterations=it, final_residual=f"{res:.3e}",
                           wall_ms=f"{wall:.1f}", converged=ok)
    return report


def run_advect(patterns=PATTERN_KINDS, p_list=DEGREES,
               k_labels=tuple(TIMESTEP_FACTORS), solver=DEFAULT_PAIR[0],
               preconditioner=DEFAULT_PAIR[1], tol=TOL, mesh_file=None,
               h=ADVECTION_H, n_steps=12, bc=BOUNDARY_CONDITIONS[0]):
    solver_config_name(solver, preconditioner)
    if bc not in BOUNDARY_CONDITIONS:
        raise ExperimentError(f"unknown boundary condition {bc!r}")
    steps = _checked_steps(p_list, k_labels, advection_timestep, h, patterns,
                           tol=tol, n_steps=n_steps)
    periodic = bc == "periodic"
    report = ExperimentReport("advect", {
        "h": h, "solver": solver, "preconditioner": preconditioner,
        "tol": tol, "p": ",".join(map(str, p_list)),
        "k": ",".join(k_labels), "bc": bc, "mesh_file": mesh_file or ""})
    if mesh_file is None:
        meshes = ((f"regular-{pattern}", pattern,
                   advection_mesh(pattern, h, periodic=periodic))
                  for pattern in patterns)
    else:
        mesh = read_mesh(mesh_file)
        if periodic and not mesh.is_periodic:
            raise ExperimentError(f"bc 'periodic' needs a mesh file with "
                                  f"a periodic section: {mesh_file}")
        meshes = [(mesh_file, "file", mesh)]
    return _advect_rows(report, meshes, p_list, steps, solver,
                        preconditioner, tol, n_steps)


def run_random_advect(h=ADVECTION_H, delta=None, seed=0, p_list=DEGREES,
                      k_labels=tuple(TIMESTEP_FACTORS), solver=DEFAULT_PAIR[0],
                      preconditioner=DEFAULT_PAIR[1], tol=TOL, n_steps=12):
    solver_config_name(solver, preconditioner)
    steps = _checked_steps(p_list, k_labels, advection_timestep, h,
                           tol=tol, n_steps=n_steps)
    if delta is None:
        delta = RANDOM_JITTER * h
    delaunay, voronoi = build_random_mesh_pair(h, delta, seed=seed)
    report = ExperimentReport("random-advect", {
        "h": h, "delta": delta, "seed": seed, "solver": solver,
        "preconditioner": preconditioner, "tol": tol})
    meshes = [(f"{name}({mesh.n_cells} cells)", name, mesh)
              for name, mesh in (("voronoi", voronoi), ("delaunay", delaunay))]
    return _advect_rows(report, meshes, p_list, steps, solver, preconditioner,
                        tol, n_steps)


# -- Euler vortex ---------------------------------------------------------

EULER_DOMAIN = (0.0, 0.0, 20.0, 15.0)
EULER_H = 1.0


def euler_timestep(label, h=EULER_H):
    """k1 = 0.03 h; k2 = 2 k1; k3 = 4 k1."""
    return _scaled_timestep(label, 0.03 * h)


def euler_mesh(pattern, h=EULER_H):
    return build_regular_mesh(pattern, h * h, EULER_DOMAIN, periodic=False,
                              boundary_tag="exact_state")


def run_euler_case(mesh, p, k, solver_names, tol=TOL, newton_tol=NEWTON_TOL):
    """One backward Euler step of the vortex via Newton.

    All requested solver configurations are run on the same sequence of
    Newton linear systems (driven by the first configuration's solution),
    so their iteration totals are directly comparable. Returns
    {name: (total_iterations, converged)}, newton_iters, final_newton_residual.
    """
    _check_solver_names(solver_names)
    space = DgSpace(mesh, p)
    disc = EulerDiscretization(space, EulerParams())
    Un = disc.project_exact(0.0)
    Mblocks = disc.mass_blocks()
    ordering = (natural_ordering(mesh)
                if any(SOLVER_CONFIGS[name][1] == "ilu0"
                       for name in solver_names) else None)
    totals = {name: 0 for name in solver_names}
    ok_all = {name: True for name in solver_names}

    # the Lax-Friedrichs coefficients of the last residual evaluation:
    # newton_solve asks for the Jacobian at the very state whose residual
    # it has just evaluated
    last = {}

    def residual(u):
        r, last["alphas"] = disc.spatial_residual(u, k)
        W = disc.coeffs(u - Un)
        mr = np.einsum("cij,cj->ci", Mblocks, W.reshape(mesh.n_cells, -1))
        return mr.ravel() + k * r

    def jacobian(u):
        J = disc.spatial_jacobian(u, k, last["alphas"])
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


def run_euler_vortex(patterns=PATTERN_KINDS, p_list=DEGREES,
                     k_labels=tuple(TIMESTEP_FACTORS),
                     solver_names=(DEFAULT_SOLVER,), tol=TOL,
                     newton_tol=NEWTON_TOL):
    _check_solver_names(solver_names)
    steps = _checked_steps(p_list, k_labels, euler_timestep, EULER_H,
                           patterns, tol=tol, newton_tol=newton_tol)
    report = ExperimentReport("euler-vortex", {
        "tol": tol, "newton_tol": newton_tol,
        "solvers": "|".join(solver_names)})
    for pattern in patterns:
        mesh = euler_mesh(pattern)
        for p in p_list:
            for lab, k in steps:
                (counts, n_newton, final), wall = _timed(
                    run_euler_case, mesh, p, k, solver_names, tol,
                    newton_tol)
                for name, (total, ok) in counts.items():
                    s, pc = SOLVER_CONFIGS[name]
                    report.add(mesh=f"regular-{pattern}", pattern=pattern,
                               p=p, k_label=lab, solver=s, preconditioner=pc,
                               iterations=total, newton_iters=n_newton,
                               final_residual=f"{final:.3e}",
                               wall_ms=f"{wall:.1f}", converged=ok)
    return report
