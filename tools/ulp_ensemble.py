"""Which table counts can round-off move? Rerun a table with last-bit noise.

    python tools/ulp_ensemble.py [advect] [euler] [analyze] [--seeds N]
        [--patterns rtri,...] [--p 3,...] [--k k2,...] [--smoke] [--out PATH]
        [--against PARENT.csv]

Runs each cell (pattern, p, k) of each table named (default: all), with
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
one pattern and timestep, 2 seeds; analyze at p = 0, k2 on a 3 x 6 grid) in
a few seconds.

The `analyze` table is `vonneumann.ratio_table` on the default sweep, with
no noise: `--seeds` does not apply to it. It writes one row per (pattern,
p, k) with `lambda_max` and `log_ratio` as `float.hex`, so any change of a
bit shows. `--patterns` selects rows only; every log ratio is taken over
all four patterns.

`--against PARENT.csv` compares this run's unperturbed counts with an
ensemble CSV written by an earlier run, say of the parent commit. It prints
to standard error every iteration count that differs from the parent's
unperturbed count, and every count (Newton steps included) outside the
parent's range, with that range, and exits 1 if any count lies outside it
or has no parent row. `--seeds 0` runs the unperturbed counts only. An
analyze value that differs in any bit from the parent's is printed and
exits 1 too.
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
from polydg.vonneumann import (TIMESTEP_FACTORS, SweepConfig,  # noqa: E402
                               SymbolError, ratio_table)

ULP = 2.0 ** -52
TABLES = ("advect", "euler", "analyze")
CELLS = {"patterns": PATTERN_KINDS, "p_list": DEGREES,
         "k_labels": tuple(TIMESTEP_FACTORS)}
SMOKE_SEEDS = 2
SMOKE = {
    "advect": {"patterns": ("rtri",), "p_list": (1,), "k_labels": ("k2",),
               "h": 0.2, "n_steps": 2},
    "euler": {"patterns": ("rtri",), "p_list": (0,), "k_labels": ("k2",)},
    "analyze": {"p_list": (0,), "k_labels": ("k2",),
                "config": SweepConfig(theta_samples=3, wave_samples=6)},
}
HEADER = ["table", "pattern", "p", "k_label", "solver", "preconditioner",
          "iterations", "iterations_min", "iterations_max", "newton_min",
          "newton_max", "lambda_max", "log_ratio"]


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


def symbol_values(patterns, p_list, k_labels, config=None):
    """{(pattern, p, k, "symbol", ""): (lambda_max, log_ratio)} of
    `ratio_table`, each value a float.hex string."""
    table = ratio_table(p_list, k_labels, config)
    return {(kind, p, lab, "symbol", ""): (float(lam).hex(),
                                          float(ratio).hex())
            for (kind, p, lab), (lam, ratio) in table.items()
            if kind in patterns}


def cell_key(pattern, p, k_label):
    """The cell as non-negative integers, for seeding its noise."""
    return PATTERN_KINDS.index(pattern), p, CELLS["k_labels"].index(k_label)


def ranges(table, runs):
    """One CSV row per cell."""
    if table == "analyze":
        for cell, values in runs.items():
            yield [table, *cell, "", "", "", "", "", *values]
        return
    for cell, counts in runs.items():
        its = [it for it, _ in counts]
        newton = [n for _, n in counts if n != ""]
        yield [table, *cell, its[0], min(its), max(its),
               min(newton, default=""), max(newton, default=""), "", ""]


def read_ranges(path):
    """{(table, pattern, p, k_label, solver, preconditioner): row} of an
    ensemble CSV, each row a {column: text} dict."""
    with open(path, newline="") as f:
        lines = [line for line in csv.reader(f)
                 if line and not line[0].startswith("#")]
    header, *rows = lines
    return {tuple(row[:6]): dict(zip(header, row)) for row in rows}


def against(table_runs, parent):
    """Print each unperturbed count of table_runs ({table: runs}) that
    moved from the parent's (a read_ranges dict) or lies outside the
    parent's range, and each analyze value whose bits changed; return how
    many lie outside, changed or have no parent row. The CSV keeps no
    unperturbed Newton count, so a Newton count is judged by the range
    alone."""
    bad = 0
    for table, runs in table_runs.items():
        for cell, counts in runs.items():
            key = (table, *map(str, cell))
            label = "{} {} p={} {} {}/{}".format(*key)
            ref = parent.get(key)
            if ref is None:
                print(f"no parent row: {label}", file=sys.stderr)
                bad += 1
                continue
            if table == "analyze":
                for what, got in zip(("lambda_max", "log_ratio"), counts):
                    if got != ref[what]:
                        bad += 1
                        print(f"changed: {label} {what} {ref[what]} -> "
                              f"{got}", file=sys.stderr)
                continue
            iterations, newton = counts[0]
            checks = [("iterations", iterations, int(ref["iterations"]),
                       ref["iterations_min"], ref["iterations_max"])]
            if newton != "":
                checks.append(("newton", int(newton), None,
                               ref["newton_min"], ref["newton_max"]))
            for what, got, was, lo, hi in checks:
                inside = int(lo) <= got <= int(hi)
                if inside and was in (None, got):
                    continue
                bad += not inside
                print(f"{'moved' if inside else 'outside'}: {label} {what} "
                      f"{'' if was is None else f'{was} -> '}{got}, "
                      f"parent range {lo}-{hi}", file=sys.stderr)
    return bad


def _csv_list(kind=str):
    return lambda text: tuple(kind(v) for v in text.split(","))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("tables", nargs="*", metavar="{advect,euler,analyze}",
                        help="the tables to run (default: all)")
    parser.add_argument("--seeds", type=int)
    parser.add_argument("--patterns", type=_csv_list())
    parser.add_argument("--p", dest="p_list", type=_csv_list(int))
    parser.add_argument("--k", dest="k_labels", type=_csv_list())
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--out", help="output CSV path (default: stdout)")
    parser.add_argument("--against", metavar="PARENT.csv",
                        help="an ensemble CSV to compare the counts with")
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
    table_runs = {}
    try:
        # read first, so that a bad file fails before the runs
        parent = read_ranges(args.against) if args.against else None
    except (OSError, ValueError) as exc:
        print(f"error: --against: {exc}", file=sys.stderr)
        return 2
    try:
        for table in dict.fromkeys(args.tables or TABLES):
            cells = {**CELLS, **(SMOKE[table] if args.smoke else {}),
                     **given}
            table_runs[table] = (
                symbol_values(**cells) if table == "analyze"
                else ensemble(table, args.seeds, **cells))
    except (BasisError, SymbolError, experiments.ExperimentError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    rows = [row for table, runs in table_runs.items()
            for row in ranges(table, runs)]
    with (open(args.out, "w", newline="") if args.out
          else contextlib.nullcontext(sys.stdout)) as out:
        w = csv.writer(out)
        w.writerow([f"# seeds={args.seeds} ulp={ULP!r} smoke={args.smoke}"])
        w.writerow(HEADER)
        w.writerows(rows)
    return 1 if parent is not None and against(table_runs, parent) else 0

if __name__ == "__main__":
    sys.exit(main())
