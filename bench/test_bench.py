"""Self-tests of the benchmark, on the smoke configuration of each workload.

    python3 -m pytest -q bench/test_bench.py
"""

import json
import os
import shutil
import signal
import subprocess
import sys
import time

import pytest

from reference import INTERVAL, PROBE_NOMINAL_S, PROBES, HostSpeed
from tracing import SPAN_METRICS, layer_metrics
from workloads import WORKLOADS, gate

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
PINNED_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                  "MKL_NUM_THREADS": "1"}


def run_bench(workload, trace, cwd=ROOT, script=os.path.join(HERE, "run.py")):
    return subprocess.run(
        [sys.executable, script, "--workload", workload, "--seed", "0",
         "--seconds", "0", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def run_worker(workload, seed=0, trace=False):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), "--workload",
         workload, "--seed", str(seed), "--smoke"] + ["--trace"] * trace,
        env=dict(os.environ, **PINNED_THREADS), capture_output=True,
        text=True, timeout=170, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_spec_names_only_known_workloads():
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)
    assert all(w.probe in PROBES for w in WORKLOADS.values())


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(name, trace):
    proc = run_bench(name, trace)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m: v["unit"] for m, v in out["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}
    if not trace:
        assert all(v["value"] > 0 for v in out["metrics"].values())
    assert "failed_frac" in proc.stdout and "gate: PASS" in proc.stdout


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_gate_fails_a_solve_whose_expected_value_is_wrong(name):
    workload = WORKLOADS[name]
    rep = run_worker(name)
    assert rep["gate"]["failed"] == 0
    assert gate(workload, rep["rows"], rep["solves"], 0, True)["failed"] == 0
    expected = workload.expected(0, True)
    key = sorted(expected)[0]
    field = "iterations" if "iterations" in expected[key] else "lambda_max"
    expected[key][field] += 1
    result = gate(workload, rep["rows"], rep["solves"], 0, True, expected)
    assert 1 <= result["failed"] <= result["attempted"]
    assert any(p.startswith(f"{key}: {field}") for p in result["problems"])


def test_unseen_seed_checks_convergence_only():
    workload = WORKLOADS["random-large"]
    rep = run_worker("random-large", seed=1)
    assert rep["gate"]["failed"] == 0
    assert set(rep["gate"]["outputs"]) == {"voronoi", "delaunay"}
    solves = [dict(s) for s in rep["solves"]]
    solves[0]["ok"] = False
    solves[1]["residual"] = 1e-10
    result = gate(workload, rep["rows"], solves, 1, True)
    assert result["failed"] == 2


@pytest.mark.parametrize("probe", PROBES)
def test_host_speed_samples_during_a_call_and_stops(probe):
    host = HostSpeed(probe)
    host.start()
    t0 = host.clock()
    end = time.perf_counter() + 4 * INTERVAL
    while time.perf_counter() < end:
        sum(range(1000))
    t1 = host.clock()
    host.stop()
    assert len(host.samples) >= 4
    assert 0 < host.overhead < 4 * INTERVAL
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL
    factors = [PROBE_NOMINAL_S / s for s in host.samples]
    ref = host.to_reference(t1) - host.to_reference(t0)
    assert min(factors) * (t1 - t0) <= ref <= max(factors) * (t1 - t0)


def test_to_reference_uses_the_speed_between_probes():
    host = HostSpeed()
    probe_seconds = iter([0.01, 0.03])
    host.probe = lambda: next(probe_seconds)
    host.start()
    t0 = host.clock()
    t1 = host.clock()
    host.stop()
    # mean probe 0.02 s against the nominal 0.01 s: half speed
    assert host.to_reference(t1) - host.to_reference(t0) == pytest.approx(
        0.5 * (t1 - t0))


def test_worker_reports_the_host_factor():
    rep = run_worker("euler-vortex")
    assert rep["host_factor"] > 0 and rep["host_probes"] >= 2
    assert rep["wall_s"] == pytest.approx(rep["setup_s"] + rep["solve_s"])


@pytest.mark.parametrize("name", ("advect-ilu0", "euler-vortex"))
def test_layer_self_times_add_up_to_traced_wall(name):
    rep = run_worker(name, trace=True)
    m = layer_metrics(rep["spans"], rep["counts"], rep["wall_s"])
    layers = sum(m[metric] for metric in SPAN_METRICS.values())
    assert m["experiments.self_s"] >= 0.0
    assert layers + m["experiments.self_s"] == pytest.approx(
        m["trace.wall_s"], rel=1e-9)
    assert m["basis.dgspace_s"] > 0 and m["mesh.cells"] > 0
    assert m["blocklinalg.ilu0_setups"] == len(
        [s for s in rep["solves"] if s["preconditioner"] == "ilu0"])


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("advect-ilu0", 0, cwd=tmp_path,
                     script=str(tmp_path / "bench" / "run.py"))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
