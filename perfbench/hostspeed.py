"""Host speed probe: scale measured times to a host running at a fixed reference speed.

On a shared host the same work runs up to twice as slow for seconds to
minutes at a time, and the process's CPU time stretches with its wall time.
So the benchmark times fixed reference kernels between requests.  None of
them calls `rateratio`, so a change to the program cannot move them.  The
slowdowns do not hit every kind of work alike, so each workload is scaled by
the kernels of its own kind of work (SCALING).  The geometric mean of their
times, each over its time on the reference host, is the host's slowness at
that moment.  A request's latency divided by the slowness measured around
it is its latency on a host at reference speed, in seconds.  Every probe
times all kernels, so that the report shows how each of them moved.
"""

from __future__ import annotations

import bisect
import math
import statistics
import time

import numpy as np

# kernel -> its time on the reference host (2-CPU Xeon at 2.0 GHz, fast phase), s
REFERENCE_S = {"numpy_calls": 0.006, "objects": 0.004, "loop": 0.0045, "draws": 0.003, "histogram": 0.004}
# what is being timed -> the kernels whose times tracked its own through the host's slow phases
SCALING = {
    "closed_form": ("numpy_calls", "objects"),  # interpreter-bound: many small NumPy and SciPy calls
    "mcmc": ("numpy_calls", "objects"),
    "monte_carlo": ("loop", "draws", "histogram"),  # bulk NumPy draws and tallies
    "setup": tuple(REFERENCE_S),  # a fresh interpreter's import reads files, unmarshals and runs Python
}
PROBE_EVERY_S = 0.5  # a probe runs between requests once this much time has passed since the last
WINDOW_S = 2.0  # a request is scaled by the median slowness of the probes within this distance of it
MIN_PROBES = 3


class HostSpeed:
    """Probes taken along a run, and the scaling of latencies they give."""

    def __init__(self, scaling: str) -> None:
        self._used = SCALING[scaling]
        self._small = np.linspace(0.1, 1.0, 64)
        self._normals = np.random.default_rng(1).standard_normal(200_000)
        self.times: list[float] = []  # probe midpoints, perf_counter seconds, in order
        self.slowness: list[float] = []  # of the kernels used for scaling
        self.kernel_slowness: dict[str, list[float]] = {name: [] for name in REFERENCE_S}

    def _numpy_calls(self) -> None:
        a = self._small
        for _ in range(1500):
            np.exp(a).sum() + np.log(a).max()

    def _objects(self) -> None:
        for j in range(300):
            d = {str(i): [i, (i, j)] for i in range(30)}
            sorted(d.items(), key=lambda kv: kv[1][0])

    def _loop(self) -> None:
        s = 0
        for i in range(60_000):
            s += i * i % 7

    def _draws(self) -> None:
        np.random.default_rng(7).standard_gamma(2.0, 100_000)

    def _histogram(self) -> None:
        np.histogram(self._normals, bins=150, range=(-4.0, 4.0))

    def probe(self) -> float:
        """Time every kernel once; record and return the host's slowness (1.0 at reference speed).

        All kernels run, so that the report shows how each one moved.
        """
        start = time.perf_counter()
        for name, reference_s in REFERENCE_S.items():
            kernel = getattr(self, f"_{name}")
            t = time.perf_counter()
            kernel()
            self.kernel_slowness[name].append((time.perf_counter() - t) / reference_s)
        slowness = math.exp(statistics.fmean(math.log(self.kernel_slowness[name][-1]) for name in self._used))
        self.times.append((start + time.perf_counter()) / 2)
        self.slowness.append(slowness)
        return slowness

    def summary(self) -> dict:
        return {
            "probes": len(self.slowness), "kernels": list(self._used),
            "median": statistics.median(self.slowness), "min": min(self.slowness), "max": max(self.slowness),
            "kernel_medians": {name: statistics.median(v) for name, v in self.kernel_slowness.items()},
        }

    def maybe_probe(self) -> None:
        """Probe if PROBE_EVERY_S has passed since the last probe."""
        if not self.times or time.perf_counter() - self.times[-1] >= PROBE_EVERY_S:
            self.probe()

    def around(self, t: float) -> float:
        """Median slowness of the probes within WINDOW_S of time t, or of the MIN_PROBES nearest."""
        lo = bisect.bisect_left(self.times, t - WINDOW_S)
        hi = bisect.bisect_right(self.times, t + WINDOW_S)
        if hi - lo < MIN_PROBES:
            nearest = sorted(range(len(self.times)), key=lambda i: abs(self.times[i] - t))[:MIN_PROBES]
            return statistics.median(self.slowness[i] for i in nearest)
        return statistics.median(self.slowness[lo:hi])

    def scale(self, start: float, seconds: float) -> float:
        """A time measured from `start` for `seconds`, as seconds at reference speed."""
        return seconds / self.around(start + seconds / 2)
