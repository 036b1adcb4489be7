"""Command-line interface: subcommands, CSV output, and error handling."""

import csv
import sys
import types

import numpy as np
import pytest

from polydg import vonneumann
from polydg.cli import build_parser, emit, main
from polydg.experiments import (CSV_HEADER, DEFAULT_SOLVER, SOLVER_CONFIGS,
                                ExperimentReport, run_euler_vortex)
from polydg.mesh import read_mesh


def read_csv(path):
    with open(path) as f:
        rows = list(csv.reader(f))
    assert rows[0][0].startswith("# ")  # config comment line
    return rows[1], rows[2:]


def test_analyze_subcommand(tmp_path, capsys):
    out = tmp_path / "an.csv"
    rc = main(["analyze", "--p", "0", "--k", "k1", "--theta-samples", "3",
               "--wave-samples", "6", "--out", str(out)])
    assert rc == 0
    header, rows = read_csv(out)
    assert header == CSV_HEADER + ["lambda_max", "log_ratio"]
    assert len(rows) == 4  # one row per pattern
    ratios = {r[header.index("pattern")]: float(r[header.index("log_ratio")])
              for r in rows}
    assert min(ratios.values()) == pytest.approx(1.0)
    assert "log_ratio" in capsys.readouterr().out


def test_advect_subcommand(tmp_path):
    out = tmp_path / "ad.csv"
    rc = main(["advect", "--pattern", "square", "--p", "0", "--k", "k1",
               "--h", "0.25", "--steps", "2", "--out", str(out)])
    assert rc == 0
    header, rows = read_csv(out)
    assert header == CSV_HEADER
    assert len(rows) == 1
    row = dict(zip(header, rows[0]))
    assert row["experiment"] == "advect"
    assert row["solver"] == "jacobi"
    assert int(row["iterations"]) > 0
    assert float(row["final_residual"]) < 1e-13


def test_advect_gmres_ilu0(tmp_path):
    out = tmp_path / "gm.csv"
    rc = main(["advect", "--pattern", "hex", "--p", "1", "--k", "k1",
               "--h", "0.25", "--steps", "1", "--solver", "gmres",
               "--preconditioner", "ilu0", "--out", str(out)])
    assert rc == 0
    header, rows = read_csv(out)
    row = dict(zip(header, rows[0]))
    assert row["preconditioner"] == "ilu0"
    assert int(row["iterations"]) > 0


def test_random_advect_subcommand(tmp_path):
    out = tmp_path / "ra.csv"
    rc = main(["random-advect", "--h", "0.25", "--p", "0", "--k", "k1",
               "--steps", "1", "--out", str(out)])
    assert rc == 0
    header, rows = read_csv(out)
    assert {r[header.index("pattern")] for r in rows} == {"voronoi",
                                                          "delaunay"}


def test_euler_vortex_subcommand(tmp_path):
    out = tmp_path / "ev.csv"
    rc = main(["euler-vortex", "--pattern", "square", "--p", "0",
               "--k", "k1", "--solver", "gmres", "--preconditioner", "ilu0",
               "--out", str(out)])
    assert rc == 0
    header, rows = read_csv(out)
    row = dict(zip(header, rows[0]))
    assert int(row["newton_iters"]) >= 1
    assert int(row["iterations"]) > 0


@pytest.mark.parametrize("command", ["analyze", "advect", "random-advect",
                                     "euler-vortex"])
def test_parser_passes_on_only_what_was_typed(command):
    # every default is the run_* function's: the parser adds none
    assert list(vars(build_parser().parse_args([command]))) == ["run"]


def test_euler_vortex_default_solver_is_run_euler_vortex_s(tmp_path):
    out = tmp_path / "ev.csv"
    flags = dict(patterns=["square"], p_list=[0], k_labels=["k1"])
    assert main(["euler-vortex", "--pattern", "square", "--p", "0",
                 "--k", "k1", "--out", str(out)]) == 0
    header, rows = read_csv(out)
    cli_pairs = [(r[header.index("solver")], r[header.index("preconditioner")])
                 for r in rows]
    run_pairs = [(r["solver"], r["preconditioner"])
                    for r in run_euler_vortex(**flags).rows]
    assert cli_pairs == run_pairs == [SOLVER_CONFIGS[DEFAULT_SOLVER]]
    assert DEFAULT_SOLVER == "jacobi"   # the default README documents


def test_euler_vortex_rejects_bad_combination(capsys):
    rc = main(["euler-vortex", "--solver", "gmres",
               "--preconditioner", "none"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("solver, preconditioner", [
    ("jacobi", "ilu0"), ("jacobi", "jacobi"), ("gmres", "none")])
def test_advect_rejects_unsupported_solver_pairs(solver, preconditioner,
                                                 capsys):
    rc = main(["advect", "--solver", solver, "--preconditioner",
               preconditioner, "--pattern", "square", "--p", "0", "--k", "k1",
               "--h", "0.25", "--steps", "1"])
    assert rc == 2
    assert f"{solver}+{preconditioner}" in capsys.readouterr().err


def test_analyze_refuses_the_tol_flag(capsys):
    with pytest.raises(SystemExit) as e:
        main(["analyze", "--tol", "1e-3"])
    assert e.value.code == 2
    assert "--tol" in capsys.readouterr().err


@pytest.mark.parametrize("flags, message", [
    (["--k", "k9"], "unknown timestep label 'k9'"),
    (["--theta-samples", "0"], "sample counts must be >= 1"),
    (["--p", "7"], "degree p=7 unsupported")])
def test_analyze_bad_input_exits_2(flags, message, capsys):
    rc = main(["analyze", "--theta-samples", "2", "--wave-samples", "4"]
              + flags)
    assert rc == 2
    assert f"error: {message}" in capsys.readouterr().err


def test_analyze_bad_degree_exits_2_before_any_sweep(monkeypatch, capsys):
    sweeps = []
    monkeypatch.setattr(vonneumann, "max_spectral_radius",
                        lambda *args: sweeps.append(args))
    assert main(["analyze", "--p", "0,1,7"]) == 2
    assert "error: degree p=7 unsupported" in capsys.readouterr().err
    assert sweeps == []


@pytest.mark.parametrize("flags, message", [
    (["--area", "nan"], "element_area = nan is not finite"),
    (["--area", "inf"], "element_area = inf is not finite"),
    (["--area", "0.02", "--domain", "0", "0", "inf", "1"],
     "x1 = inf is not finite")])
def test_mesh_gen_non_finite_input_exits_2(flags, message, tmp_path, capsys):
    out = tmp_path / "m.mesh"
    rc = main(["mesh", "gen", "--pattern", "hex", "--out", str(out)] + flags)
    assert rc == 2
    assert f"error: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_mesh_gen_roundtrip(tmp_path):
    out = tmp_path / "m.mesh"
    rc = main(["mesh", "gen", "--pattern", "hex", "--area", "0.02",
               "--domain", "0", "0", "1", "1", "--out", str(out)])
    assert rc == 0
    mesh = read_mesh(out)
    assert mesh.cell_areas.sum() == pytest.approx(1.0, rel=1e-12)
    # the generated file can drive an advection run
    out2 = tmp_path / "file.csv"
    rc = main(["advect", "--mesh-file", str(out), "--p", "0", "--k", "k1",
               "--steps", "1", "--out", str(out2)])
    assert rc == 0


def test_periodic_advect_needs_a_periodic_mesh_file(tmp_path, capsys):
    out = tmp_path / "m.mesh"
    assert main(["mesh", "gen", "--pattern", "square", "--area", "0.0625",
                 "--domain", "0", "0", "1", "1", "--out", str(out)]) == 0
    rc = main(["advect", "--mesh-file", str(out), "--bc", "periodic",
               "--p", "0", "--k", "k1", "--steps", "1"])
    assert rc == 2
    assert "periodic section" in capsys.readouterr().err


@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_advect_refuses_a_non_finite_mesh_file_vertex(bad, tmp_path, capsys):
    out = tmp_path / "m.mesh"
    out.write_text("polymesh 1\nvertices 4\n0.0 0.0\n1.0 0.0\n1.0 1.0\n"
                   f"{bad} 1.0\ncells 1\n0 1 2 3\n")
    rc = main(["advect", "--mesh-file", str(out), "--p", "0", "--k", "k1",
               "--steps", "1"])
    assert rc == 2
    assert (f"error: {out}:6: vertex 3 = ({bad}, 1.0) is not finite"
            in capsys.readouterr().err)


def test_mesh_gen_voronoi(tmp_path):
    out = tmp_path / "v.mesh"
    rc = main(["mesh", "gen", "--pattern", "voronoi", "--h", "0.25",
               "--delta", "0.05", "--seed", "3", "--out", str(out)])
    assert rc == 0
    mesh = read_mesh(out)
    # boundary-crossing perturbed points are discarded, so the count varies,
    # but the clipped Voronoi cells still tile the domain
    assert mesh.n_cells > 0
    assert mesh.cell_areas.sum() == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize("flags, refused", [
    (["--pattern", "voronoi", "--h", "0.25", "--area", "0.5"], "--area"),
    (["--pattern", "delaunay", "--h", "0.25", "--periodic"], "--periodic"),
    (["--pattern", "voronoi", "--h", "0.25", "--periodic", "--area", "0.5"],
     "--area, --periodic"),
    (["--pattern", "hex", "--area", "0.0625", "--h", "0.3"], "--h"),
    (["--pattern", "square", "--area", "0.0625", "--delta", "0.1"],
     "--delta"),
    (["--pattern", "hex", "--area", "0.0625", "--seed", "5"], "--seed")])
def test_mesh_gen_refuses_flags_it_would_ignore(flags, refused, tmp_path,
                                                capsys):
    out = tmp_path / "m.mesh"
    assert main(["mesh", "gen", "--out", str(out)] + flags) == 2
    pattern = flags[1]
    assert (f"error: --pattern {pattern} does not take {refused}"
            in capsys.readouterr().err)
    assert not out.exists()


def test_mesh_gen_missing_required_flag(capsys):
    rc = main(["mesh", "gen", "--pattern", "voronoi",
               "--out", "/tmp/never.mesh"])
    assert rc == 2
    rc = main(["mesh", "gen", "--pattern", "hex", "--out", "/tmp/never.mesh"])
    assert rc == 2


def test_bad_flags_exit_nonzero(capsys):
    with pytest.raises(SystemExit) as e:
        main(["advect", "--bc", "sideways"])
    assert e.value.code != 0
    with pytest.raises(SystemExit) as e:
        main(["no-such-command"])
    assert e.value.code != 0
    with pytest.raises(SystemExit) as e:
        main([])
    assert e.value.code != 0


def test_advect_bad_degree_exits_2_without_a_table(capsys):
    rc = main(["advect", "--pattern", "square", "--p", "0,7", "--k", "k1",
               "--h", "0.25", "--steps", "1"])
    assert rc == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "error: degree p=7 unsupported" in err


@pytest.mark.parametrize("flags, message", [
    (["--steps", "0"], "n_steps must be finite and positive, got 0"),
    (["--tol", "nan"], "tol must be finite and positive, got nan"),
    (["--h", "-0.2"], "h must be finite and positive, got -0.2")])
def test_advect_bad_numbers_exit_2_without_a_table(flags, message, capsys):
    rc = main(["advect", "--pattern", "square", "--p", "0", "--k", "k1"]
              + flags)
    assert rc == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"error: {message}" in err


def test_emit_exits_1_when_a_solve_did_not_converge(capsys):
    report = ExperimentReport("advect", {})
    report.add(iterations=3)
    assert emit(report, None) == 0
    report.add(iterations=200000, converged=False)
    assert emit(report, None) == 1


def test_unknown_pattern_name(capsys):
    rc = main(["advect", "--pattern", "heptagon", "--p", "0", "--k", "k1"])
    assert rc == 2
    assert "unknown pattern" in capsys.readouterr().err


def test_threads_without_threadpoolctl_fails_loudly(monkeypatch, capsys):
    monkeypatch.setitem(sys.modules, "threadpoolctl", None)  # not importable
    with pytest.raises(SystemExit) as e:
        main(["advect", "--pattern", "square", "--p", "0", "--k", "k1",
              "--h", "0.25", "--steps", "1", "--threads", "1"])
    assert e.value.code == 2
    err = capsys.readouterr().err
    assert "threadpoolctl" in err and "OPENBLAS_NUM_THREADS" in err


def test_threads_with_threadpoolctl(monkeypatch, tmp_path):
    limits = []
    monkeypatch.setitem(sys.modules, "threadpoolctl",
                        types.SimpleNamespace(threadpool_limits=limits.append))
    rc = main(["advect", "--pattern", "square", "--p", "0", "--k", "k1",
               "--h", "0.25", "--steps", "1", "--threads", "1",
               "--out", str(tmp_path / "t.csv")])
    assert rc == 0 and limits == [1]
