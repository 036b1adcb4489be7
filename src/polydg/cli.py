"""Command-line drivers for the solver experiments and mesh tooling.

Subcommands: analyze (symbol-analysis ratio table), advect (variable-velocity
advection iteration counts), random-advect (perturbed Delaunay/Voronoi pair),
euler-vortex (implicit Euler vortex step), mesh gen (mesh file generation).
Each flag is passed on to the experiment function (`run_advect`, ...) only
when given, under the name of the parameter it sets, so every default lives
in `experiments` and the library below it.
Exit code is 0 only if every requested solve converged.
"""

import argparse
import dataclasses
import errno
import math
import os
import sys

from . import blocklinalg, discretization, euler, experiments, timestepping
from .experiments import (BOUNDARY_CONDITIONS, DEFAULT_PAIR, SOLVER_CONFIGS,
                          run_advect, run_analyze, run_euler_vortex,
                          run_random_advect, solver_config_name)
from .basis import BasisError
from .mesh import MeshError, build_random_mesh_pair, build_regular_mesh, write_mesh
from .vonneumann import THETA_RANGE_MODES, SweepConfig, SymbolError


def _csv_list(kind):
    def parse(text):
        return [kind(tok) for tok in text.split(",") if tok]
    return parse


def _pattern(name):
    """The pattern kind of a CLI name: `hex` is short for `hexagon`."""
    return {"hex": "hexagon"}.get(name, name)


def add_subcommand(subs, name, run, help):
    """A subparser whose flags are left out of the namespace unless given,
    and whose namespace carries `run`."""
    sub = subs.add_parser(name, help=help,
                          argument_default=argparse.SUPPRESS)
    sub.set_defaults(run=run)
    return sub


def add_common_flags(sub):
    sub.add_argument("--out", help="output CSV path")
    sub.add_argument("--threads", type=int,
                     help="cap the numeric library thread count")
    sub.add_argument("--p", dest="p_list", type=_csv_list(int),
                     help="comma-separated polynomial degrees")
    sub.add_argument("--k", dest="k_labels", type=_csv_list(str),
                     help="comma-separated timestep labels")


def add_solver_flags(sub, steps):
    """The common flags, the linear solver's, and --steps if `steps`."""
    add_common_flags(sub)
    pairs = SOLVER_CONFIGS.values()
    sub.add_argument("--solver", choices=dict.fromkeys(s for s, _ in pairs))
    sub.add_argument("--preconditioner",
                     choices=dict.fromkeys(pc for _, pc in pairs))
    sub.add_argument("--tol", type=float,
                     help="linear solver convergence tolerance")
    if steps:
        sub.add_argument("--steps", dest="n_steps", type=int,
                         help="backward Euler steps; the last solve's count "
                              "is reported")


def analyze(**given):
    config = {f.name: given.pop(f.name)
              for f in dataclasses.fields(SweepConfig) if f.name in given}
    return run_analyze(config=SweepConfig(**config), **given)


def euler_vortex(**given):
    """run_euler_vortex on the (solver, preconditioner) pair given, its
    missing half taken from DEFAULT_PAIR."""
    if "solver" in given or "preconditioner" in given:
        given["solver_names"] = (solver_config_name(
            given.pop("solver", DEFAULT_PAIR[0]),
            given.pop("preconditioner", DEFAULT_PAIR[1])),)
    return run_euler_vortex(**given)


# mesh gen's flags that only one family of patterns takes, by the parameter
# of its mesh function they set; the other family refuses them
REGULAR_FLAGS = {"element_area": "--area", "periodic": "--periodic"}
RANDOM_FLAGS = {"delta": "--delta", "seed": "--seed"}


def mesh_gen(pattern, path, **given):
    """Write the mesh of `pattern` to path. A regular pattern takes one of
    --area and --h; --h gives the area h * h, the mesh `advect --h` builds.
    A random pair takes its grid spacing as --h."""
    random = pattern in ("voronoi", "delaunay")
    other = REGULAR_FLAGS if random else RANDOM_FLAGS
    refused = [flag for key, flag in other.items() if key in given]
    if refused:
        raise MeshError(f"--pattern {pattern} does not take "
                        f"{', '.join(refused)}")
    if random:
        if "h" not in given:
            raise MeshError(f"--pattern {pattern} requires --h")
        delaunay, voronoi = build_random_mesh_pair(**given)
        mesh = voronoi if pattern == "voronoi" else delaunay
    else:
        if "element_area" in given and "h" in given:
            raise MeshError(f"--pattern {pattern} does not take --h "
                            f"together with --area")
        if "h" in given:
            h = given.pop("h")
            if not (math.isfinite(h) and h > 0):
                raise MeshError(f"h must be finite and positive, got {h}")
            # the area experiments.advection_mesh builds from h
            given["element_area"] = h * h
        if "element_area" not in given:
            raise MeshError(f"--pattern {pattern} requires --area or --h")
        mesh = build_regular_mesh(_pattern(pattern), **given)
    write_mesh(mesh, path)
    print(f"wrote {mesh.n_cells} cells to {path}")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="polydg",
        description="Mesh-pattern study of block iterative solvers for DG "
                    "discretizations.")
    subs = parser.add_subparsers(required=True)

    an = add_subcommand(subs, "analyze", analyze,
                        "symbol-analysis log-ratio table")
    add_common_flags(an)
    an.add_argument("--theta-samples", type=int)
    an.add_argument("--wave-samples", type=int)
    an.add_argument("--theta-range", choices=THETA_RANGE_MODES)

    ad = add_subcommand(subs, "advect", run_advect,
                        "variable-velocity advection solves")
    add_solver_flags(ad, steps=True)
    ad.add_argument("--pattern", dest="patterns", type=_csv_list(_pattern),
                    help="comma-separated patterns (hex|square|rtri|etri)")
    ad.add_argument("--mesh-file",
                    help="run on a mesh file instead of the regular patterns")
    ad.add_argument("--h", type=float,
                    help="square-pattern side length (sets element area h^2)")
    ad.add_argument("--bc", choices=BOUNDARY_CONDITIONS)

    ra = add_subcommand(subs, "random-advect", run_random_advect,
                        "advection on a perturbed Delaunay/Voronoi pair")
    add_solver_flags(ra, steps=True)
    ra.add_argument("--seed", type=int,
                    help="seed of the lattice perturbation")
    ra.add_argument("--h", type=float)
    ra.add_argument("--delta", type=float, help="perturbation bound")

    ev = add_subcommand(subs, "euler-vortex", euler_vortex,
                        "implicit Euler vortex step")
    add_solver_flags(ev, steps=False)
    ev.add_argument("--pattern", dest="patterns", type=_csv_list(_pattern))
    ev.add_argument("--newton-tol", type=float)

    mesh = subs.add_parser("mesh", help="mesh tooling")
    mesh_subs = mesh.add_subparsers(required=True)
    mg = add_subcommand(mesh_subs, "gen", mesh_gen, "generate a mesh file")
    mg.add_argument("--pattern", required=True,
                    choices=("hex", "square", "rtri", "etri", "voronoi",
                             "delaunay"))
    mg.add_argument("--area", dest="element_area", type=float,
                    help="element area (regular patterns)")
    mg.add_argument("--domain", type=float, nargs=4,
                    metavar=("x0", "y0", "x1", "y1"))
    mg.add_argument("--periodic", action="store_true")
    mg.add_argument("--h", type=float,
                    help="grid spacing (voronoi/delaunay); for the regular "
                         "patterns element area h^2, as advect --h")
    mg.add_argument("--delta", type=float,
                    help="perturbation bound (voronoi/delaunay)")
    mg.add_argument("--seed", type=int)
    mg.add_argument("--out", dest="path", required=True)
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


def emit(report, out_path):
    if out_path:
        report.write_csv(out_path)
    print(report.format_table())
    return 0 if report.all_converged else 1


def main(argv=None):
    parser = build_parser()
    given = vars(parser.parse_args(argv))
    limit_threads(parser, given.pop("threads", None))
    run, out = given.pop("run"), given.pop("out", None)
    path = out or given.get("path")  # the output: --out, or mesh gen's
    try:
        # refused before the run, which may take minutes, not after it
        if path and os.path.isdir(path):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
        if path and not os.path.isdir(os.path.dirname(path) or "."):
            raise FileNotFoundError(None, "no such directory")
        report = run(**given)
        return 0 if report is None else emit(report, out)
    except OSError as exc:  # the library reports its reads as MeshErrors
        print(f"error: cannot write {path}: {exc.strerror}", file=sys.stderr)
        return 2
    except (MeshError, BasisError, SymbolError, blocklinalg.LinalgError,
            discretization.AssemblyError, euler.EulerError,
            timestepping.TimesteppingError, experiments.ExperimentError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
