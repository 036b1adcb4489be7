"""Host speed, sampled during a timed repetition.

The benchmark's host is a share of a machine whose speed drifts by up to a
factor of two within tens of seconds, as other tenants come and go; the same
repetition can take 4.3 s or 6 s. So every timed repetition also samples the
host's speed: a fixed probe of about 10 ms, with the mix of the workload's
hot paths and nothing of polydg itself, runs once before the driver call,
every INTERVAL seconds during it from a SIGALRM handler, and once after it.

Between two consecutive probes the host is taken to run at the speed their
mean time shows, and `HostSpeed.to_reference` turns a reading of `clock()`
into seconds at the reference speed, the speed at which the probe takes
PROBE_NOMINAL_S: the integral, up to that reading, of PROBE_NOMINAL_S over
the probe time. An interval is measured as the difference of two converted
readings, so the set-up and solve phases of one call are each normalized by
the speed the host had while they ran. No change to the program can move the
probe, so a change in a normalized time is a change in the program's work.

There are two probes, because the host's slow phases slow interpreted code
more than compiled kernels. `mixed` (interpreted integer arithmetic, small
dense solves and numpy calls on small arrays) matches the assembly and solver
workloads; `eig` (batched eigenvalues of small complex matrices) matches the
symbol sweeps, which spend nearly all their time in LAPACK.

The time spent inside the handler is counted in `overhead`; `clock()` is
`time.perf_counter()` without it, and every interval the worker and the
tracer measure is read from that clock.
"""

import bisect
import signal
import time

import numpy as np

INTERVAL = 0.15         # seconds between probes during the driver call
PROBE_NOMINAL_S = 0.01  # probe time at the reference speed
_ROUNDS = 40000
_SOLVES = 40
_PASSES = 15
_EIG_PASSES = 2
PROBES = ("mixed", "eig")


class HostSpeed:
    """Probe samples taken around and during one driver call."""

    def __init__(self, probe="mixed"):
        self._run = {"mixed": self._mixed, "eig": self._eig}[probe]
        rng = np.random.default_rng(12345)
        self._a = rng.standard_normal((10, 10)) + 4.0 * np.eye(10)
        self._b = rng.standard_normal(10)
        self._small = [rng.standard_normal((6, 10)) for _ in range(40)]
        self._batch = (rng.standard_normal((48, 12, 12))
                       + 1j * rng.standard_normal((48, 12, 12)))
        self.samples = []       # probe seconds
        self._at = []           # clock() when each probe ran
        self._reference = []    # to_reference() of each entry of _at
        self.overhead = 0.0
        self.probe()            # warm-up, not recorded

    def probe(self):
        """Seconds the host takes for the fixed probe right now."""
        start = time.perf_counter()
        self._run()
        return time.perf_counter() - start

    def _mixed(self):
        acc = sum(k * k % 7 for k in range(_ROUNDS))
        for _ in range(_SOLVES):
            acc += float(np.linalg.solve(self._a, self._b)[0])
        for _ in range(_PASSES):
            for c in self._small:
                d = np.concatenate([c, c])
                acc += float(np.einsum("ij,ij->", c, c)) + (d.T @ d)[0, 0]
        return acc

    def _eig(self):
        return sum(float(np.abs(np.linalg.eigvals(self._batch)).max())
                   for _ in range(_EIG_PASSES))

    def _sample(self, signum=None, frame=None):
        start = time.perf_counter()
        self._at.append(start - self.overhead)
        self.samples.append(self.probe())
        self.overhead += time.perf_counter() - start

    def clock(self):
        """Seconds, not counting the time spent in probes."""
        return time.perf_counter() - self.overhead

    def start(self):
        """Probe now and every INTERVAL seconds until stop()."""
        self._sample()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)

    def stop(self):
        """Stop probing, probe once more and fix the speed between probes."""
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._sample()
        self._reference = [0.0]
        for i in range(len(self._at) - 1):
            self._reference.append(self._reference[-1]
                                   + (self._at[i + 1] - self._at[i])
                                   * self._factor(i))

    def _factor(self, i):
        """Reference seconds per clock second between probes i and i + 1."""
        return 2.0 * PROBE_NOMINAL_S / (self.samples[i] + self.samples[i + 1])

    def to_reference(self, t):
        """Reference seconds from the first probe to clock() reading t,
        which lies between start() and stop()."""
        i = min(max(bisect.bisect_right(self._at, t) - 1, 0),
                len(self._at) - 2)
        return self._reference[i] + (t - self._at[i]) * self._factor(i)
