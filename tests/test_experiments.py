"""Experiment drivers: the timestep families, and input checks made
before any work."""

import csv
import os
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

import polydg
from polydg import experiments
from polydg.basis import BasisError
from polydg.experiments import (ExperimentError, advection_timestep,
                                euler_timestep, run_advect, run_euler_vortex,
                                run_random_advect)
from polydg.mesh import h_E_from_area
from polydg.vonneumann import TIMESTEP_FACTORS, SweepConfig, timestep_family


def family_reference(k1):
    """The per-function timestep tables that TIMESTEP_FACTORS replaced."""
    return {"k1": k1, "k2": 2.0 * k1, "k3": 4.0 * k1}


@pytest.mark.parametrize("label", TIMESTEP_FACTORS)
def test_timesteps_equal_the_per_function_tables(label):
    for x in np.geomspace(1e-4, 1e3, 401):
        assert (timestep_family(x, label).hex()
                == family_reference(3.0 * h_E_from_area(x))[label].hex())
        assert (advection_timestep(label, x).hex()
                == family_reference(x / np.sqrt(2.0))[label].hex())
        assert (euler_timestep(label, x).hex()
                == family_reference(0.03 * x)[label].hex())


@pytest.fixture
def work(monkeypatch):
    """Names of the set-ups and solves the drivers make, in call order."""
    calls = []
    for name in ("solve_linear", "DgSpace"):
        def counted(*args, name=name, fn=getattr(experiments, name),
                    **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        monkeypatch.setattr(experiments, name, counted)
    return calls


SMALL = {"p_list": (0,), "k_labels": ("k1",)}
ADVECT = dict(SMALL, h=0.2, n_steps=1)
BAD_INPUTS = {
    "p7": ({"p_list": (0, 7)}, BasisError, "degree p=7 unsupported"),
    "p1.5": ({"p_list": (0, 1.5)}, BasisError, "degree p=1.5 unsupported"),
    "k9": ({"k_labels": ("k1", "k9")}, ExperimentError,
           "unknown timestep label 'k9'"),
    "tol0": ({"tol": 0.0}, ExperimentError,
             "tol must be finite and positive, got 0.0"),
    "tol-nan": ({"tol": np.nan}, ExperimentError,
                "tol must be finite and positive, got nan")}
BAD_PATTERN = {"foo": ({"patterns": ("hexagon", "foo")}, ExperimentError,
                       "unknown pattern kind 'foo'")}
BAD_ADVECT = {
    "steps0": ({"n_steps": 0}, ExperimentError,
               "n_steps must be finite and positive, got 0"),
    "h-0.2": ({"h": -0.2}, ExperimentError,
              "h must be finite and positive, got -0.2"),
    "h-inf": ({"h": np.inf}, ExperimentError,
              "h must be finite and positive, got inf")}
BAD_NEWTON = {"newton_tol-nan": ({"newton_tol": np.nan}, ExperimentError,
                                 "newton_tol must be finite and positive")}


def cases(driver, small, bad_inputs):
    return [pytest.param(driver, small, *case, id=f"{driver.__name__}-{name}")
            for name, case in bad_inputs.items()]


@pytest.mark.parametrize("driver, small, bad, error, message", [
    *cases(run_advect, dict(ADVECT, patterns=("hexagon",)),
           BAD_INPUTS | BAD_PATTERN | BAD_ADVECT),
    *cases(run_random_advect, ADVECT, BAD_INPUTS | BAD_ADVECT),
    *cases(run_euler_vortex, dict(SMALL, patterns=("square",)),
           BAD_INPUTS | BAD_PATTERN | BAD_NEWTON)])
def test_drivers_check_inputs_before_any_work(work, driver, small, bad, error,
                                              message):
    with pytest.raises(error, match=message):
        driver(**dict(small, **bad))
    assert work == []


# -- report columns -------------------------------------------------------

ANALYZE_CSV = (
    "# k=k1 p=0 theta_range=per-pattern theta_samples=3 wave_samples=6\r\n"
    "experiment,mesh,pattern,p,k_label,solver,preconditioner,iterations,"
    "newton_iters,final_residual,wall_ms,lambda_max,log_ratio\r\n"
    "analyze,,etri,0,k1,symbol,,,,,0.0,0.873868,1.207328\r\n"
    "analyze,,hexagon,0,k1,symbol,,,,,0.0,0.849779,1.000000\r\n"
    "analyze,,rtri,0,k1,symbol,,,,,0.0,0.865725,1.128939\r\n"
    "analyze,,square,0,k1,symbol,,,,,0.0,0.865725,1.128939\r\n")
ANALYZE_TABLE = (
    "experiment  mesh  pattern  p  k_label  solver  preconditioner  "
    "iterations  newton_iters  final_residual  wall_ms  lambda_max  "
    "log_ratio\n"
    "analyze           etri     0  k1       "
    "symbol                                                          "
    "  0.0      0.873868    1.207328 \n"
    "analyze           hexagon  0  k1       "
    "symbol                                                          "
    "  0.0      0.849779    1.000000 \n"
    "analyze           rtri     0  k1       "
    "symbol                                                          "
    "  0.0      0.865725    1.128939 \n"
    "analyze           square   0  k1       "
    "symbol                                                          "
    "  0.0      0.865725    1.128939 ")
ADVECT_CSV = (
    "# bc=zero-inflow h=0.2 k=k2 mesh_file= p=1 preconditioner=ilu0 "
    "solver=gmres tol=1e-14\r\n"
    "experiment,mesh,pattern,p,k_label,solver,preconditioner,iterations,"
    "newton_iters,final_residual,wall_ms\r\n"
    "advect,regular-hexagon,hexagon,1,k2,gmres,ilu0,7,,2.262e-16,0.0\r\n")
ADVECT_TABLE = (
    "experiment  mesh             pattern  p  k_label  solver  "
    "preconditioner  iterations  newton_iters  final_residual  wall_ms\n"
    "advect      regular-hexagon  hexagon  1  k2       gmres   ilu0"
    "            7                         2.262e-16       0.0    ")


def test_advect_wall_ms_includes_the_set_up(monkeypatch):
    # a clock that advances 1 s per DgSpace built, and only then
    clock = SimpleNamespace(now=0.0)
    monkeypatch.setattr(experiments, "time",
                        SimpleNamespace(perf_counter=lambda: clock.now))
    unclocked = experiments.DgSpace

    def clocked(*args):
        clock.now += 1.0
        return unclocked(*args)

    monkeypatch.setattr(experiments, "DgSpace", clocked)
    report = run_advect(**dict(ADVECT, patterns=("hexagon",)))
    assert [row["wall_ms"] for row in report.rows] == ["1000.0"]


@pytest.mark.parametrize("driver, kwargs, csv_text, table", [
    (experiments.run_analyze,
     dict(SMALL, config=SweepConfig(theta_samples=3, wave_samples=6)),
     ANALYZE_CSV, ANALYZE_TABLE),
    (run_advect, dict(patterns=("hexagon",), p_list=(1,), k_labels=("k2",),
                      solver="gmres", preconditioner="ilu0", h=0.2,
                      n_steps=2),
     ADVECT_CSV, ADVECT_TABLE)], ids=["analyze", "advect"])
def test_report_columns_come_from_the_rows(monkeypatch, tmp_path, driver,
                                           kwargs, csv_text, table):
    # a stopped clock makes wall_ms 0.0
    monkeypatch.setattr(experiments, "time",
                        SimpleNamespace(perf_counter=lambda: 0.0))
    report = driver(**kwargs)
    report.write_csv(tmp_path / "out.csv")
    assert (tmp_path / "out.csv").read_bytes() == csv_text.encode()
    assert report.format_table() == table


def test_analyze_runs_without_scipy_optimize():
    # the refine is polydg's own: a cold analyze run pays no scipy.optimize
    # import, and a later lazy import would bring that cost back
    src = os.path.dirname(os.path.dirname(polydg.__file__))
    code = ("import sys\n"
            "from polydg.experiments import run_analyze\n"
            "from polydg.vonneumann import SweepConfig\n"
            "run_analyze(p_list=(0,), k_labels=('k1',),\n"
            "            config=SweepConfig(theta_samples=3, wave_samples=6))\n"
            "print('scipy.optimize' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


def test_rows_do_not_depend_on_the_blas_thread_count(tmp_path):
    # a small advect and Euler case in fresh interpreters, the thread
    # count set before numpy loads; every column but wall_ms must match,
    # and so must the Jacobian contraction of a p = 3 volume group's size
    # (128 cells, 150 nodes, 10 basis functions) on random inputs and an
    # ILU(0) apply on a p = 3 advect system
    src = os.path.dirname(os.path.dirname(polydg.__file__))
    code = ("import hashlib, sys\n"
            "import numpy as np\n"
            "from polydg.basis import DgSpace\n"
            "from polydg.blocklinalg import factor_bilu0\n"
            "from polydg.discretization import (assemble_advection,\n"
            "                                   rotating_velocity)\n"
            "from polydg.euler import _block_sums\n"
            "from polydg.experiments import (SOLVER_CONFIGS, advection_mesh,\n"
            "                                run_advect, run_euler_vortex)\n"
            "from polydg.mesh import natural_ordering\n"
            "from polydg.timestepping import backward_euler_system\n"
            "run_advect(('hexagon',), (3,), ('k2',), 'gmres', 'ilu0',\n"
            "           h=0.1, n_steps=2).write_csv(sys.argv[1])\n"
            "run_euler_vortex(('rtri',), (1,), ('k2',),\n"
            "                 tuple(SOLVER_CONFIGS)).write_csv(sys.argv[2])\n"
            "rng = np.random.default_rng(0)\n"
            "w, a, D, c = (rng.standard_normal((128, 150) + s)\n"
            "              for s in ((), (10,), (4, 4), (10,)))\n"
            "J = _block_sums(w, a, D, c)\n"
            "print(J.shape, hashlib.sha256(J.tobytes()).hexdigest())\n"
            "mesh = advection_mesh('hexagon', 0.1)\n"
            "M, L = assemble_advection(DgSpace(mesh, 3), rotating_velocity)\n"
            "A = backward_euler_system(M, L, 0.1)\n"
            "y = factor_bilu0(A, natural_ordering(mesh)).apply(\n"
            "    rng.standard_normal(A.dim))\n"
            "print(y.shape, hashlib.sha256(y.tobytes()).hexdigest())\n")
    rows, sums = {}, {}
    for n in (1, 2):
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=str(n),
                   OMP_NUM_THREADS=str(n))
        paths = [tmp_path / f"{name}{n}.csv" for name in ("advect", "euler")]
        sums[n] = subprocess.run([sys.executable, "-c", code, *paths],
                                 env=env, check=True, capture_output=True,
                                 text=True).stdout
        rows[n] = []
        for path in paths:
            with open(path, newline="") as f:
                lines = list(csv.reader(f))
            wall = lines[1].index("wall_ms")
            rows[n] += [line[:wall] + line[wall + 1:] for line in lines]
    assert len(rows[1]) == 3 + 5  # comment, header and rows of each
    assert rows[1] == rows[2]
    assert sums[1].startswith("(128, 40, 40) ")
    assert "\n(1200,) " in sums[1]
    assert sums[1] == sums[2]
