"""Fixed reference kernels whose run time tracks the host's current speed.

The benchmark runs on a shared host whose speed drifts by tens of
percent over seconds to minutes, and the drift slows the program's CPU
time as much as its wall time. The kernels are timed between requests,
so every measured interval has the host speed of its moment next to it,
and the benchmark divides each interval by that slowdown. The kernels
live in the benchmark's own files, so no change to the package can move
them.

Different kinds of contention slow different code: a pure-Python loop
tracks the CPU's clock, a random gather from a table larger than the
caches tracks memory latency, and a streaming pass tracks bandwidth.
The package's requests mix all three, so the slowdown is the mean of
the three kernels' times, each over its nominal time.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# Median times of the kernels on the host where the benchmark was written
# (Intel Xeon 2.0 GHz vCPU, Python 3.11, numpy 2.4). They only set the
# scale: a slowdown of 1 is that host's usual speed.
NOMINAL_S = {"loop": 1.8e-3, "gather": 3.6e-3, "stream": 0.26e-3}
REPEATS = 3


class Reference:
    """The three kernels and their data, built once per process."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._table = rng.random(4_000_000)  # 32 MB, beyond the caches
        self._index = rng.integers(0, self._table.size, 200_000)
        self._block = rng.random(200_000)  # 1.6 MB
        # resident in every round process, so its peak RSS excludes them
        self.nbytes = self._table.nbytes + self._index.nbytes + self._block.nbytes

    @staticmethod
    def _loop() -> int:
        s = 0
        for i in range(20000):
            s += i * i % 7
        return s

    def _gather(self) -> float:
        return float(self._table[self._index].sum())

    def _stream(self) -> float:
        return float((self._block * 1.5).sum())

    def slowdown(self) -> float:
        """Mean over the kernels of (fastest of REPEATS timings) / nominal."""
        total = 0.0
        for name, kernel in (("loop", self._loop), ("gather", self._gather), ("stream", self._stream)):
            best = float("inf")
            for _ in range(REPEATS):
                t0 = perf_counter()
                kernel()
                best = min(best, perf_counter() - t0)
            total += best / NOMINAL_S[name]
        return total / len(NOMINAL_S)
