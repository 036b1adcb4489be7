"""polydg benchmark: cold-start time to solution on fixed workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs repetitions of one workload, each in a fresh process (`worker.py`) with
OPENBLAS/OMP/MKL threads pinned to 1, until S seconds have passed and at
least MIN_REPS repetitions are done. Every repetition's outputs go through
the correctness gate in `workloads.py`.

With --trace 0 it reports the median over repetitions of wall_s, setup_s,
solve_s and peak_rss_mb. The times are seconds at the reference speed, from
the host's speed that `reference.py` samples during each repetition, so that
the host's drifting speed drops out.
With --trace 1 it alternates untraced and traced repetitions and reports the
median per-layer metrics of the traced ones, in the same unit, and the
tracing overhead against the untraced median wall_s.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; `failed / attempted` is failed_frac. The lines
before it are a readable summary and a JSON record of every repetition and
of the environment. --smoke runs a tiny configuration of each workload (the
self-tests use it).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from tracing import LAYER_METRICS, layer_metrics
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
PINNED_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                  "MKL_NUM_THREADS": "1"}
END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("solve_s", "s"),
              ("peak_rss_mb", "MB"))
MIN_REPS = 2
TIME_LIMIT = 170.0      # seconds for the whole run


class BenchError(Exception):
    pass


def run_rep(args, trace, deadline):
    cmd = [sys.executable, WORKER, "--workload", args.workload,
           "--seed", str(args.seed)]
    cmd += ["--smoke"] * args.smoke + ["--trace"] * trace
    env = dict(os.environ, **PINNED_THREADS)
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError("repetition ran past the time limit")
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}:\n"
                         f"{proc.stderr.strip()[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_reps(args, traces):
    """Repeat the cycle of repetitions `traces` until the time is up."""
    start = time.monotonic()
    deadline = start + TIME_LIMIT
    reps = {t: [] for t in traces}
    longest = 0.0
    while True:
        for trace in traces:
            t = time.monotonic()
            reps[trace].append(run_rep(args, trace, deadline))
            longest = max(longest, time.monotonic() - t)
        now = time.monotonic()
        done = len(reps[traces[0]]) >= (
            1 if args.trace or args.smoke else MIN_REPS)
        if done and now - start >= args.seconds:
            break
        if now + len(traces) * longest * 1.2 > deadline:
            if not done:
                raise BenchError("too slow to finish the minimum repetitions")
            break
    return reps


def summary_line(name, values, unit):
    q = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return (f"  {name:<32} {statistics.median(values):>12.6g} {unit:<6}"
            f" quartiles {q[0]:.6g} .. {q[2]:.6g}  n={len(values)}")


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="polydg cold-start benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny configuration, for the self-tests")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "polydg",
                                       "experiments.py")):
        print(f"no polydg sources under {ROOT}/src", file=sys.stderr)
        return 2

    try:
        reps = run_reps(args, (0, 1) if args.trace else (0,))
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    all_reps = [r for rs in reps.values() for r in rs]
    attempted = sum(r["gate"]["attempted"] for r in all_reps)
    failed = sum(r["gate"]["failed"] for r in all_reps)
    untraced = reps[0]

    if args.trace:
        layers = [layer_metrics(r["spans"], r["counts"], r["wall_s"])
                  for r in reps[1]]
        base = statistics.median(r["wall_s"] for r in untraced)
        for m in layers:
            m["trace.overhead_frac"] = m["trace.wall_s"] / base - 1.0
        series = {name: [m[name] for m in layers] for name, _ in LAYER_METRICS}
        units = dict(LAYER_METRICS)
    else:
        series = {name: [r[name] for r in untraced] for name, _ in END_TO_END}
        units = dict(END_TO_END)

    env = untraced[0]["env"]
    print(f"workload {args.workload}  seed {args.seed}  "
          f"{'traced' if args.trace else 'untraced'}  "
          f"{len(untraced)} cold-start repetitions  "
          f"BLAS {env['blas']} {env['blas_version']} "
          f"threads {env['blas_threads']}  nproc {env['nproc']}")
    for name, values in series.items():
        print(summary_line(name, values, units[name]))
    print(f"  {'failed_frac':<32} {failed / attempted:>12.6g} {'1':<6}"
          f" ({failed} of {attempted} solves failed)")
    problems = sorted({p for r in all_reps for p in r["gate"]["problems"]})
    print("  gate: " + ("FAIL: " + "; ".join(problems) if failed else "PASS"))
    print(json.dumps({"record": {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "env": env,
        "outputs": untraced[0]["gate"]["outputs"],
        "reps": [{k: r[k] for k in ("wall_s", "setup_s", "solve_s",
                                    "raw_wall_s", "host_factor",
                                    "host_probes", "import_s",
                                    "peak_rss_mb")}
                 | {"traced": t, "failed": r["gate"]["failed"]}
                 for t, rs in reps.items() for r in rs]}}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": statistics.median(values),
                           "unit": units[name]}
                    for name, values in series.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
