"""Which table counts can round-off move? Rerun a table with last-bit noise.

    python tools/ulp_ensemble.py [advect] [euler] [--seeds N]
        [--patterns rtri,...] [--p 3,...] [--k k2,...] [--smoke] [--out PATH]

Runs each cell (pattern, p, k) of each table named (default: both), with
every solver configuration of `experiments.SOLVER_CONFIGS`, once as is and
once per seed 0..N-1. Under a seed, every right-hand side that reaches
`experiments.solve_linear` is scaled entrywise by 1 + s 2^-52, with s drawn
from {-1, 0, 1} by a generator seeded with the seed and the cell, so a run
filtered to some cells gives them the ranges of the full table. The patch
is made on the imported module, in this process; the package itself is not
changed.

Writes one CSV row per table cell and solver configuration:
the unperturbed count and the smallest and largest count over all runs,
and for Euler the same for the Newton steps. A cell whose minimum and
maximum differ has a count that round-off moves, so a change that moves
only the last bits of its inputs may move that count within that range.
`--smoke` runs a small size (advect at h = 0.2 with 2 steps, Euler at p = 0,
one pattern and timestep, 2 seeds) in a few seconds.
"""

import argparse
import contextlib
import csv
import itertools
import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

from polydg import experiments  # noqa: E402
from polydg.basis import DEGREES, BasisError  # noqa: E402
from polydg.mesh import PATTERN_KINDS  # noqa: E402
from polydg.vonneumann import TIMESTEP_FACTORS  # noqa: E402

ULP = 2.0 ** -52
TABLES = ("advect", "euler")
CELLS = {"patterns": PATTERN_KINDS, "p_list": DEGREES,
         "k_labels": tuple(TIMESTEP_FACTORS)}
SMOKE_SEEDS = 2
SMOKE = {
    "advect": {"patterns": ("rtri",), "p_list": (1,), "k_labels": ("k2",),
               "h": 0.2, "n_steps": 2},
    "euler": {"patterns": ("rtri",), "p_list": (0,), "k_labels": ("k2",)},
}
HEADER = ["table", "pattern", "p", "k_label", "solver", "preconditioner",
          "iterations", "iterations_min", "iterations_max", "newton_min",
          "newton_max"]


def perturbed(solve, rng):
    """solve_linear with each right-hand side scaled by 1 + s ULP, s in
    {-1, 0, 1} drawn per entry from rng."""
    def solve_linear(A, rhs, *args, **kwargs):
        s = rng.integers(-1, 2, size=rhs.shape)
        return solve(A, rhs * (1.0 + s * ULP), *args, **kwargs)
    return solve_linear


def run_cell(table, pattern, p, k_label, **size):
    """The report rows of one cell, one per solver configuration."""
    names = tuple(experiments.SOLVER_CONFIGS)
    if table == "euler":
        return experiments.run_euler_vortex((pattern,), (p,), (k_label,),
                                            names).rows
    return [row for name in names
            for row in experiments.run_advect(
                (pattern,), (p,), (k_label,),
                *experiments.SOLVER_CONFIGS[name], **size).rows]


def ensemble(table, seeds, patterns, p_list, k_labels, **size):
    """{(pattern, p, k, solver, preconditioner): [(iterations,
    newton_iters) of each run]}, the unperturbed run first."""
    runs = {}
    solve = experiments.solve_linear
    try:
        for cell in itertools.product(patterns, p_list, k_labels):
            for seed in [None, *range(seeds)]:
                # seeded only once the unperturbed run has checked cell
                experiments.solve_linear = solve if seed is None else (
                    perturbed(solve, np.random.default_rng(
                        (seed, *cell_key(*cell)))))
                for row in run_cell(table, *cell, **size):
                    runs.setdefault(tuple(row[c] for c in HEADER[1:6]),
                                    []).append((int(row["iterations"]),
                                                row["newton_iters"]))
    finally:
        experiments.solve_linear = solve
    return runs


def cell_key(pattern, p, k_label):
    """The cell as non-negative integers, for seeding its noise."""
    return PATTERN_KINDS.index(pattern), p, CELLS["k_labels"].index(k_label)


def ranges(table, runs):
    """One CSV row per cell."""
    for cell, counts in runs.items():
        its = [it for it, _ in counts]
        newton = [n for _, n in counts if n != ""]
        yield [table, *cell, its[0], min(its), max(its),
               min(newton, default=""), max(newton, default="")]


def _csv_list(kind=str):
    return lambda text: tuple(kind(v) for v in text.split(","))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("tables", nargs="*", metavar="{advect,euler}",
                        help="the tables to run (default: both)")
    parser.add_argument("--seeds", type=int)
    parser.add_argument("--patterns", type=_csv_list())
    parser.add_argument("--p", dest="p_list", type=_csv_list(int))
    parser.add_argument("--k", dest="k_labels", type=_csv_list())
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--out", help="output CSV path (default: stdout)")
    args = parser.parse_args(argv)
    for table in args.tables:
        if table not in TABLES:
            parser.error(f"unknown table {table!r} (choose from "
                         f"{', '.join(TABLES)})")
    if args.seeds is None:
        args.seeds = SMOKE_SEEDS if args.smoke else 4
    if args.seeds < 0:
        parser.error("--seeds must not be negative")
    given = {k: getattr(args, k) for k in CELLS if getattr(args, k)}
    rows = []
    try:
        for table in dict.fromkeys(args.tables or TABLES):
            size = SMOKE[table] if args.smoke else {}
            runs = ensemble(table, args.seeds, **{**CELLS, **size, **given})
            rows += ranges(table, runs)
    except (BasisError, experiments.ExperimentError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    with (open(args.out, "w", newline="") if args.out
          else contextlib.nullcontext(sys.stdout)) as out:
        w = csv.writer(out)
        w.writerow([f"# seeds={args.seeds} ulp={ULP!r} smoke={args.smoke}"])
        w.writerow(HEADER)
        w.writerows(rows)
    return 0

if __name__ == "__main__":
    sys.exit(main())
