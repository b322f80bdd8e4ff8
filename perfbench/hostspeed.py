"""Host-speed reference: a fixed block of work timed next to every measurement.

The benchmark's host is a share of a machine whose speed drifts: the same
query takes up to 1.8x longer for minutes at a time, with nothing else of
ours running. Each timing is therefore taken together with the time of this
block, which does the same work on every run (its inputs come from a fixed
seed, not the workload's), and is scaled to the speed at which the block
takes ``REFERENCE_S``. A change to the library moves the scaled times as it
moves the raw ones; a change of host speed moves the block too and largely
cancels. The block mixes numpy gathers on a graph-sized CSR array with a
short interpreter loop, like the library's walks, so that its slowdown lies
between those of the library's numpy-bound and interpreter-bound code.
"""
from __future__ import annotations

import statistics
import time

import numpy as np

REFERENCE_S = 0.0009  # the block's time when the host runs at full speed

_N = 20_000
_WALKERS = 4_000
_STEPS = 15


class Reference:
    def __init__(self):
        rng = np.random.default_rng(12345)
        self.deg = rng.integers(1, 20, _N)
        self.indptr = np.concatenate([[0], np.cumsum(self.deg)])
        self.indices = rng.integers(0, _N, int(self.indptr[-1]), dtype=np.int32)
        self.start = rng.integers(0, _N, _WALKERS)

    def _block(self) -> None:
        rng = np.random.default_rng(7)
        cur = self.start
        for _ in range(_STEPS):
            pick = (rng.random(cur.size) * self.deg[cur]).astype(np.int64)
            cur = self.indices[self.indptr[cur] + pick]

    def __call__(self) -> float:
        """Seconds the block takes now. It runs once untimed first, so that
        its arrays are in cache whatever the timed work before it evicted."""
        self._block()
        t0 = time.perf_counter()
        self._block()
        return time.perf_counter() - t0


def slowdown(samples: list[float]) -> float:
    """How many times slower than full speed the host ran over these samples."""
    return statistics.median(samples) / REFERENCE_S


def scaled(times: list[float], refs: list[float], window: int = 25) -> list[float]:
    """Each time divided by the slowdown seen by the reference blocks timed
    with it: ``refs[i]`` was timed right after ``times[i]``, and the median
    of the blocks within ``window`` places of i sets the slowdown."""
    n = len(times)
    return [t / slowdown(refs[max(0, i - window):min(n, i + window + 1)])
            for i, t in enumerate(times)]
