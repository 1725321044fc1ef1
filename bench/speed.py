"""A fixed piece of reference work, timed to see how fast the machine runs now.

On a shared 2-vCPU virtual machine (Python 3.11, numpy 2.4, scipy 1.17)
the speed of identical work drifted by up to 2x over tens of seconds,
with nothing else running in the guest: the `cycles` fit took from 2.4 s
to 4.0 s within five minutes.  The probe is interpreter-heavy graph
walking, allocation churn and sparse products, the mix the workloads run,
and none of it comes from dynetlogit.  Timed around each command, it
tracks much of that drift.  Over ten 35-second runs per workload, the
spread (interquartile range over median) of the run medians of
`session_s` was 0.05 scaled against 0.30 raw for `month`, 0.11 against
0.16 for `million` and 0.11 against 0.25 for `cycles`.

`SpeedProbe.scaled` turns a measured time into reference seconds: the time
the work would take when the probe takes `REFERENCE_S`.  A short command is
scaled by the probes right around it.  A long one is scaled by every probe
within one command-length of it, since two probes at its edges say little
about the seconds in between; one probe's own time varies by about 15%.
"""

import gc
import statistics
from time import perf_counter

import numpy as np
import scipy.sparse as sp
from scipy.special import expit

REFERENCE_S = 0.08


class SpeedProbe:
    """Builds the probe's fixed inputs once; `run` times one probe and keeps
    (midpoint, seconds) in `samples`."""

    def __init__(self):
        self.samples = []
        rng = np.random.default_rng(1)
        edges = set()
        while len(edges) < 900:
            i, j = sorted(int(v) for v in rng.integers(0, 300, 2))
            if i != j:
                edges.add((i, j))
        self.edges = sorted(edges)
        # small, so that the probe adds only a few MB to the peak memory
        self.x = sp.random(50_000, 6, density=0.5, format="csr", random_state=2)
        self.theta = np.full(6, 0.1)

    def _work(self) -> int:
        nbrs = {}
        for i, j in self.edges:
            nbrs.setdefault(i, set()).add(j)
            nbrs.setdefault(j, set()).add(i)
        paths = 0

        def walk(u, depth, seen):
            nonlocal paths
            for v in nbrs.get(u, ()):
                if v not in seen and depth < 4:
                    paths += 1
                    seen.add(v)
                    walk(v, depth + 1, seen)
                    seen.discard(v)

        for start in range(0, 300, 10):
            walk(start, 0, {start})
        churn = sum(len(frozenset((k % 97, k % 89, k) for k in range(20_000)))
                    for _ in range(3))
        for _ in range(12):
            mu = expit(self.x @ self.theta)
            self.x.T @ (mu - 0.5)
        return paths + churn

    def run(self) -> None:
        gc.collect()
        t0 = perf_counter()
        self._work()
        t1 = perf_counter()
        self.samples.append(((t0 + t1) / 2, t1 - t0))

    def scaled(self, seconds: float, start: float, end: float) -> float:
        """`seconds`, measured from `start` to `end`, in reference seconds."""
        reach = max(end - start, 0.2)
        near = [s for mid, s in self.samples if start - reach <= mid <= end + reach]
        return seconds * REFERENCE_S / statistics.median(near)
