"""The benchmark's fixed workloads, their pinned outputs and the correctness
gate.

Each workload calls one public driver of `polydg.experiments` with fixed
arguments. The pinned values are this package's own outputs at the commit
that defined the benchmark. They detect numerics drift; several of them are
known to differ from the paper's reference tables, so passing the gate says
nothing about reproducing the paper.

A "solve" is one linear solve made through `experiments.solve_linear`, or,
for `analyze`, one pattern's symbol result. Each report row is a case; a
solve fails if it did not converge, if its relative residual exceeds the
tolerance, or if any pinned output of its case differs.
"""

import re
from dataclasses import dataclass
from typing import Callable

LINEAR_TOL = 1e-14
SYMBOL_TOL = 1e-6       # lambda_max and log_ratio are pinned to 6 decimals
EULER_SOLVERS = ("jacobi", "gmres+jacobi", "gmres+ilu0")


@dataclass(frozen=True)
class Workload:
    name: str
    # run(experiments_module, seed, smoke) -> ExperimentReport
    run: Callable
    # case(row) -> (case key, {output name: value})
    case: Callable
    # solve_case(solve record, {case key: outputs}) -> case key
    solve_case: Callable
    # expected(seed, smoke) -> {case key: {output name: value}}, or None
    # when the seed has no pinned outputs
    expected: Callable
    output_tol: float = 0.0
    # host-speed probe whose mix matches the workload's (reference.PROBES)
    probe: str = "mixed"


def _solver_key(record):
    """Case key of a report row or a solve record: solver/preconditioner."""
    return f"{record['solver']}/{record['preconditioner']}"


# -- advect-ilu0 ------------------------------------------------------------
# Solve-heavy: the same matrix is ILU(0)-factored on each of the 12 steps, so
# ILU kernels and factor reuse show here first.

def _run_advect(E, seed, smoke):
    if smoke:
        return E.run_advect(patterns=("hexagon",), p_list=(1,),
                            k_labels=("k2",), solver="gmres",
                            preconditioner="ilu0", h=0.2, n_steps=2)
    return E.run_advect(patterns=("hexagon",), p_list=(3,), k_labels=("k2",),
                        solver="gmres", preconditioner="ilu0", n_steps=12)


ADVECT = Workload(
    name="advect-ilu0",
    run=_run_advect,
    case=lambda row: (_solver_key(row),
                      {"iterations": int(row["iterations"])}),
    solve_case=lambda s, cases: _solver_key(s),
    expected=lambda seed, smoke: {
        "gmres/ilu0": {"iterations": 7 if smoke else 8}},
)


# -- euler-vortex -----------------------------------------------------------
# Euler residual and Jacobian dominate; every Newton step builds a new
# matrix, so factor caching predicts no change here.

def _run_euler(E, seed, smoke):
    return E.run_euler_vortex(patterns=("rtri",), p_list=(0 if smoke else 2,),
                              k_labels=("k2",), solver_names=EULER_SOLVERS)


def _euler_expected(seed, smoke):
    totals = (95, 87, 36) if smoke else (144, 101, 30)
    steps = 4 if smoke else 3
    keys = ("jacobi/none", "gmres/jacobi", "gmres/ilu0")
    return {k: {"iterations": t, "newton_iters": steps}
            for k, t in zip(keys, totals)}


EULER = Workload(
    name="euler-vortex",
    run=_run_euler,
    case=lambda row: (_solver_key(row), {
        "iterations": int(row["iterations"]),
        "newton_iters": int(row["newton_iters"])}),
    solve_case=lambda s, cases: _solver_key(s),
    expected=_euler_expected,
)


# -- analyze ----------------------------------------------------------------
# Symbol eigen-solves only: no mesh, basis, assembly or blocklinalg work, so
# changes there predict no change here.

def _run_analyze(E, seed, smoke):
    if smoke:
        from polydg.vonneumann import SweepConfig
        return E.run_analyze(p_list=(0,), k_labels=("k1",),
                             config=SweepConfig(theta_samples=3,
                                                wave_samples=6))
    return E.run_analyze(p_list=(2,), k_labels=("k2",))


_ANALYZE_PINNED = {
    "etri": (0.930374, 1.201825),
    "hexagon": (0.916921, 1.000000),
    "rtri": (0.925918, 1.126864),
    "square": (0.925380, 1.118424),
}
_ANALYZE_SMOKE = {
    "etri": (0.873868, 1.207328),
    "hexagon": (0.849779, 1.000000),
    "rtri": (0.865725, 1.128939),
    "square": (0.865725, 1.128939),
}

ANALYZE = Workload(
    name="analyze",
    run=_run_analyze,
    case=lambda row: (row["pattern"], {
        "lambda_max": float(row["lambda_max"]),
        "log_ratio": float(row["log_ratio"])}),
    solve_case=lambda s, cases: None,
    expected=lambda seed, smoke: {
        kind: {"lambda_max": lam, "log_ratio": ratio}
        for kind, (lam, ratio) in
        (_ANALYZE_SMOKE if smoke else _ANALYZE_PINNED).items()},
    output_tol=SYMBOL_TOL,
    probe="eig",
)


# -- random-large -----------------------------------------------------------
# Irregular Voronoi/Delaunay cells from the seed (no two cells are
# translates) and from_block_dict at 3179 block rows; set-up dominates.

def _run_random(E, seed, smoke):
    if smoke:
        return E.run_random_advect(h=0.1, seed=seed, p_list=(0,),
                                   k_labels=("k2",), solver="jacobi",
                                   n_steps=2)
    return E.run_random_advect(h=0.025, seed=seed, p_list=(1,),
                               k_labels=("k2",), solver="jacobi", n_steps=12)


def _random_case(row):
    cells = int(re.search(r"\((\d+) cells\)", row["mesh"]).group(1))
    return row["pattern"], {"cells": cells,
                            "iterations": int(row["iterations"])}


def _random_solve_case(solve, cases):
    for key, out in cases.items():
        if out["cells"] == solve["n"]:
            return key
    return None


def _random_expected(seed, smoke):
    if seed != 0:
        return None     # unseen seed: convergence and residual only
    if smoke:
        return {"voronoi": {"cells": 99, "iterations": 50},
                "delaunay": {"cells": 184, "iterations": 83}}
    return {"voronoi": {"cells": 1598, "iterations": 36},
            "delaunay": {"cells": 3179, "iterations": 59}}


RANDOM = Workload(
    name="random-large",
    run=_run_random,
    case=_random_case,
    solve_case=_random_solve_case,
    expected=_random_expected,
)


WORKLOADS = {w.name: w for w in (ADVECT, EULER, ANALYZE, RANDOM)}


def gate(workload, rows, solves, seed, smoke, expected=None):
    """Check one repetition's outputs.

    rows: the report rows; solves: one record per linear solve with keys
    n, solver, preconditioner, iterations, residual, ok. `expected` replaces
    the pinned table (the self-tests use it). Returns a dict with attempted,
    failed, the observed outputs per case and a list of problems.
    """
    if expected is None:
        expected = workload.expected(seed, smoke)
    cases = dict(workload.case(row) for row in rows)
    by_case = {key: [] for key in cases}
    problems = []
    attempted = failed = 0
    for s in solves:
        key = workload.solve_case(s, cases)
        if key not in by_case:
            problems.append(f"solve on {s['n']} block rows matches no case")
            attempted += 1
            failed += 1
            continue
        by_case[key].append(s)
    for key, outputs in cases.items():
        mine = by_case[key]
        n = max(1, len(mine))
        attempted += n
        if expected is None:
            wrong = []
        elif key not in expected:
            wrong = ["case not pinned"]
        else:
            wrong = _mismatches(outputs, expected[key], workload.output_tol)
        bad = [s for s in mine
               if not (s["ok"] and s["residual"] <= LINEAR_TOL)]
        if wrong:
            problems.extend(f"{key}: {w}" for w in wrong)
            failed += n
        elif bad:
            problems.extend(
                f"{key}: solve not converged (residual {s['residual']:.3e})"
                for s in bad)
            failed += len(bad)
    for key in (expected or {}):
        if key not in cases:
            problems.append(f"{key}: no output")
            attempted += 1
            failed += 1
    if not cases and not expected:
        problems.append("no output")
        attempted += 1
        failed += 1
    return {"attempted": attempted, "failed": failed, "outputs": cases,
            "problems": problems}


def _mismatches(outputs, want, tol):
    out = []
    for name, value in want.items():
        got = outputs.get(name)
        if got is None or abs(got - value) > tol:
            out.append(f"{name} {got} != pinned {value}")
    return out
