"""Command-line drivers for the solver experiments and mesh tooling.

Subcommands: analyze (symbol-analysis ratio table), advect (variable-velocity
advection iteration counts), random-advect (perturbed Delaunay/Voronoi pair),
euler-vortex (implicit Euler vortex step), mesh gen (mesh file generation).
Exit code is 0 only if every requested solve converged.
"""

import argparse
import sys

from . import experiments
from .experiments import (ADVECTION_H, ANALYZE_EXTRA_COLUMNS, run_advect,
                          run_analyze, run_euler_vortex, run_random_advect,
                          solver_config_name)
from .mesh import MeshError, build_random_mesh_pair, build_regular_mesh, write_mesh
from .vonneumann import SweepConfig

PATTERN_NAMES = {"hex": "hexagon", "square": "square", "rtri": "rtri",
                 "etri": "etri"}


def _csv_list(kind):
    def parse(text):
        return [kind(tok) for tok in text.split(",") if tok]
    return parse


def add_common_flags(sub):
    sub.add_argument("--out", default=None, help="output CSV path")
    sub.add_argument("--threads", type=int, default=None,
                     help="cap the numeric library thread count")


def add_solver_flags(sub):
    sub.add_argument("--solver", choices=("jacobi", "gmres"), default="jacobi")
    sub.add_argument("--preconditioner", choices=("none", "jacobi", "ilu0"),
                     default="none")
    sub.add_argument("--tol", type=float, default=1e-14,
                     help="linear solver convergence tolerance")
    sub.add_argument("--p", type=_csv_list(int), default=[0, 1, 2, 3],
                     help="comma-separated polynomial degrees")
    sub.add_argument("--k", type=_csv_list(str), default=["k1", "k2", "k3"],
                     help="comma-separated timestep labels")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="polydg",
        description="Mesh-pattern study of block iterative solvers for DG "
                    "discretizations.")
    subs = parser.add_subparsers(dest="command", required=True)

    an = subs.add_parser("analyze", help="symbol-analysis log-ratio table")
    add_common_flags(an)
    an.add_argument("--p", type=_csv_list(int), default=[0, 1, 2, 3])
    an.add_argument("--k", type=_csv_list(str), default=["k1", "k2", "k3"])
    an.add_argument("--theta-samples", type=int, default=32)
    an.add_argument("--wave-samples", type=int, default=48)
    an.add_argument("--theta-range", choices=("per-pattern", "quarter-pi"),
                    default="per-pattern")

    ad = subs.add_parser("advect", help="variable-velocity advection solves")
    add_common_flags(ad)
    add_solver_flags(ad)
    ad.add_argument("--pattern", type=_csv_list(str),
                    default=["hex", "square", "rtri", "etri"],
                    help="comma-separated patterns (hex|square|rtri|etri)")
    ad.add_argument("--mesh-file", default=None,
                    help="run on a mesh file instead of the regular patterns")
    ad.add_argument("--h", type=float, default=ADVECTION_H,
                    help="square-pattern side length (sets element area h^2)")
    ad.add_argument("--bc", choices=("zero-inflow", "periodic"),
                    default="zero-inflow")
    ad.add_argument("--steps", type=int, default=12,
                    help="backward Euler steps; the last solve's count is "
                         "reported")

    ra = subs.add_parser("random-advect",
                         help="advection on a perturbed Delaunay/Voronoi pair")
    add_common_flags(ra)
    add_solver_flags(ra)
    ra.add_argument("--seed", type=int, default=0,
                    help="seed of the lattice perturbation")
    ra.add_argument("--h", type=float, default=ADVECTION_H)
    ra.add_argument("--delta", type=float, default=None,
                    help="perturbation bound (default 0.25 h)")
    ra.add_argument("--steps", type=int, default=12)

    ev = subs.add_parser("euler-vortex", help="implicit Euler vortex step")
    add_common_flags(ev)
    add_solver_flags(ev)
    ev.add_argument("--pattern", type=_csv_list(str),
                    default=["hex", "square", "rtri", "etri"])
    ev.add_argument("--newton-tol", type=float, default=5e-13)

    mesh = subs.add_parser("mesh", help="mesh tooling")
    mesh_subs = mesh.add_subparsers(dest="mesh_command", required=True)
    mg = mesh_subs.add_parser("gen", help="generate a mesh file")
    mg.add_argument("--pattern", required=True,
                    choices=("hex", "square", "rtri", "etri", "voronoi",
                             "delaunay"))
    mg.add_argument("--area", type=float, default=None,
                    help="element area (regular patterns)")
    mg.add_argument("--domain", type=float, nargs=4, default=[0.0, 0.0, 1.0, 1.0],
                    metavar=("x0", "y0", "x1", "y1"))
    mg.add_argument("--periodic", action="store_true")
    mg.add_argument("--h", type=float, default=None,
                    help="grid spacing (voronoi/delaunay)")
    mg.add_argument("--delta", type=float, default=None,
                    help="perturbation bound (voronoi/delaunay)")
    mg.add_argument("--seed", type=int, default=0)
    mg.add_argument("--out", required=True)
    return parser


def limit_threads(parser, n):
    """Cap the BLAS thread pools at n threads, or exit with status 2 if
    threadpoolctl is missing (*_NUM_THREADS only act before BLAS loads)."""
    if n is None:
        return
    try:
        import threadpoolctl
    except ImportError:
        parser.error("--threads needs the threadpoolctl package, which is not "
                     "installed; set OPENBLAS_NUM_THREADS (and OMP_NUM_THREADS)"
                     " in the environment before starting polydg instead")
    threadpoolctl.threadpool_limits(n)


def resolve_patterns(names):
    out = []
    for name in names:
        if name not in PATTERN_NAMES:
            raise MeshError(f"unknown pattern {name!r} "
                            f"(choose from {sorted(PATTERN_NAMES)})")
        out.append(PATTERN_NAMES[name])
    return out


def emit(report, out_path, extra_columns=()):
    if out_path:
        report.write_csv(out_path, extra_columns)
    print(report.format_table(extra_columns))
    return 0 if report.all_converged else 1


def cmd_analyze(args):
    config = SweepConfig(theta_samples=args.theta_samples,
                         wave_samples=args.wave_samples,
                         theta_range=args.theta_range)
    report = run_analyze(p_list=args.p, k_labels=args.k, config=config)
    return emit(report, args.out, ANALYZE_EXTRA_COLUMNS)


def cmd_advect(args):
    report = run_advect(patterns=resolve_patterns(args.pattern),
                        p_list=args.p, k_labels=args.k, solver=args.solver,
                        preconditioner=args.preconditioner, tol=args.tol,
                        mesh_file=args.mesh_file, h=args.h,
                        n_steps=args.steps, bc=args.bc)
    return emit(report, args.out)


def cmd_random_advect(args):
    report = run_random_advect(h=args.h, delta=args.delta, seed=args.seed,
                               p_list=args.p, k_labels=args.k,
                               solver=args.solver,
                               preconditioner=args.preconditioner,
                               tol=args.tol, n_steps=args.steps)
    return emit(report, args.out)


def cmd_euler_vortex(args):
    name = solver_config_name(args.solver, args.preconditioner)
    report = run_euler_vortex(patterns=resolve_patterns(args.pattern),
                              p_list=args.p, k_labels=args.k,
                              solver_names=(name,), tol=args.tol,
                              newton_tol=args.newton_tol)
    return emit(report, args.out)


def cmd_mesh_gen(args):
    if args.pattern in ("voronoi", "delaunay"):
        if args.h is None:
            raise MeshError("voronoi/delaunay generation requires --h")
        delta = 0.25 * args.h if args.delta is None else args.delta
        delaunay, voronoi = build_random_mesh_pair(
            args.h, delta, tuple(args.domain), args.seed)
        mesh = voronoi if args.pattern == "voronoi" else delaunay
    else:
        if args.area is None:
            raise MeshError("regular pattern generation requires --area")
        mesh = build_regular_mesh(PATTERN_NAMES[args.pattern], args.area,
                                  tuple(args.domain), periodic=args.periodic)
    write_mesh(mesh, args.out)
    print(f"wrote {mesh.n_cells} cells to {args.out}")
    return 0


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    limit_threads(parser, getattr(args, "threads", None))
    handlers = {"analyze": cmd_analyze, "advect": cmd_advect,
                "random-advect": cmd_random_advect,
                "euler-vortex": cmd_euler_vortex}
    try:
        if args.command == "mesh":
            return cmd_mesh_gen(args)
        return handlers[args.command](args)
    except (MeshError, experiments.ExperimentError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
