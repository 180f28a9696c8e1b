"""A fixed reference kernel that measures how fast the machine runs right now.

On a shared 2-vCPU box the same Python-bound work can take 1.75x longer from
one minute to the next, as other tenants come and go. The benchmark runs this
kernel between queries and, on workloads whose time is Python-bound, scales
the times it reports to a machine on which the kernel takes ``REF_MS``.

The kernel mixes what the package spends its Python time on: dict, set and
heap traffic (a Dijkstra over a fixed sparse graph), a sort with a key
function, and small dense products that stay in cache. It shares no code or
data with the package, so no change to the package can change it.
"""

from __future__ import annotations

import heapq
import statistics
import time
from typing import List

import numpy as np

REF_MS = 3.0
WINDOW = 9  # kernel samples around a query that set its local speed


class Speed:
    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._a = rng.random((64, 256))
        self._p = rng.random((64, 64))
        self._keys = [f"n{i:05d}" for i in range(700)]
        n = len(self._keys)
        self._nbrs = {k: tuple(self._keys[(i * 7 + j * 131) % n] for j in range(8))
                      for i, k in enumerate(self._keys)}
        self.samples: List[float] = []

    def _kernel(self) -> int:
        start = self._keys[0]
        dist = {start: 1.0}
        heap = [(1.0, start)]
        while heap:
            d, u = heapq.heappop(heap)
            if dist[u] != d:
                continue
            for v in self._nbrs[u]:
                nd = d + 1.0 + (ord(v[-1]) & 3)
                if v not in dist or nd < dist[v]:
                    dist[v] = nd
                    heapq.heappush(heap, (nd, v))
        ordered = sorted(dist.items(), key=lambda p: (-p[1], p[0]))
        for _ in range(5):
            h = 0.8 * self._a + 0.2 * (self._p @ self._a)
        return len(ordered) + int(h[0, 0] > 0)

    def sample(self) -> None:
        """Run the kernel once and record its wall time."""
        t0 = time.perf_counter()
        self._kernel()
        self.samples.append(time.perf_counter() - t0)

    def factor(self, lo: int, hi: int) -> float:
        """REF_MS over the median kernel time of samples [lo, hi)."""
        return REF_MS / 1e3 / statistics.median(self.samples[lo:hi])

    def around(self, i: int) -> float:
        """The factor from the WINDOW samples centred on sample ``i``."""
        lo = max(0, min(i - WINDOW // 2, len(self.samples) - WINDOW))
        return self.factor(lo, lo + WINDOW)
