"""One timed repetition of one workload, in a fresh process.

    python3 bench/worker.py --workload NAME --seed N [--smoke] [--trace]

`run.py` starts this once per repetition with the BLAS thread variables
already set to 1, so they apply before numpy loads. The clocks: `import_s`
is the import of `polydg.experiments` (numpy and scipy included); `wall_s`
runs from the call into the driver until its report returns; `solve_s` is
the time spent inside the outermost call of a solve-phase entry point
(`experiments.solve_linear`, `experiments.newton_solve` and the symbol
eigen-solves `PatternSymbol.spectral_radius_phases`); `setup_s` is the rest
of `wall_s`. Every repetition samples the host's speed during the call
(`reference.py`). All intervals, spans included, are read from a clock that
leaves out the probes' own time, and are reported in seconds at the
reference speed; `raw_wall_s` is `wall_s` in measured seconds, and
`host_factor` the ratio of the two. Prints one JSON line.
"""

import argparse
import functools
import inspect
import json
import os
import platform
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class SolvePhase:
    """Intervals of the solve phase, plus a record of every linear solve."""

    def __init__(self, experiments, vonneumann, clock):
        self.intervals = []     # (start, end) clock readings
        self._clock = clock
        self.solves = []
        self._depth = 0
        self._solve_linear = experiments.solve_linear
        self._signature = inspect.signature(experiments.solve_linear)
        experiments.solve_linear = self._timed(self._record)
        experiments.newton_solve = self._timed(experiments.newton_solve)
        cls = vonneumann.PatternSymbol
        cls.spectral_radius_phases = self._timed(cls.spectral_radius_phases)

    def _timed(self, fn):
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            self._depth += 1
            start = self._clock()
            try:
                return fn(*args, **kwargs)
            finally:
                self._depth -= 1
                if self._depth == 0:
                    self.intervals.append((start, self._clock()))
        return timed

    def _record(self, *args, **kwargs):
        x, it, res, ok = self._solve_linear(*args, **kwargs)
        a = self._signature.bind(*args, **kwargs).arguments
        self.solves.append({
            "n": int(a["A"].n), "solver": a["solver"],
            "preconditioner": a["preconditioner"], "iterations": int(it),
            "residual": float(res), "ok": bool(ok)})
        return x, it, res, ok


def _blas_threads():
    """Thread count of every OpenBLAS library loaded in this process."""
    import ctypes
    try:
        with open("/proc/self/maps") as f:
            paths = {line.split()[-1] for line in f if "openblas" in line}
    except OSError:
        return {}
    out = {}
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                out[os.path.basename(path)] = fn()
                break
    return out


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def environment(seed):
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "seed": seed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
    }


def main(argv=None):
    start = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, SRC)
    import polydg.experiments as E
    import polydg.vonneumann
    import_s = time.perf_counter() - start
    if not os.path.abspath(E.__file__).startswith(SRC + os.sep):
        sys.exit(f"polydg imported from {E.__file__}, not from {SRC}")

    from reference import HostSpeed
    from tracing import Tracer, install
    from workloads import WORKLOADS, gate
    workload = WORKLOADS[args.workload]
    host = HostSpeed(workload.probe)
    tracer = None
    if args.trace:
        tracer = Tracer(host.clock)
        install(tracer)
    phase = SolvePhase(E, polydg.vonneumann, host.clock)

    error = None
    host.start()
    t0 = host.clock()
    try:
        rows = workload.run(E, args.seed, args.smoke).rows
    except E.ExperimentError as exc:
        rows, error = [], str(exc)
    t1 = host.clock()
    host.stop()

    ref = host.to_reference
    wall = ref(t1) - ref(t0)
    solve = sum(ref(end) - ref(start) for start, end in phase.intervals)
    out = {
        "wall_s": wall,
        "setup_s": wall - solve,
        "solve_s": solve,
        "raw_wall_s": t1 - t0,
        "host_factor": wall / (t1 - t0),
        "host_probes": len(host.samples),
        "import_s": import_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "error": error,
        "rows": rows,
        "solves": phase.solves,
        "gate": gate(workload, rows, phase.solves, args.seed, args.smoke),
        "env": environment(args.seed),
    }
    if tracer is not None:
        out["spans"] = [[name, ref(start), ref(end), parent]
                        for name, start, end, parent in tracer.spans]
        out["counts"] = tracer.counts
    print(json.dumps(out, default=lambda o: o.item()))


if __name__ == "__main__":
    main()
