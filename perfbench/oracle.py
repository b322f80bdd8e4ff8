"""Checks every answer against the exact oracles in ``bippr.exact``.

Exact vectors are computed once per source and shared by that source's
targets. All of this runs in the harness process, after the workload
process has exited, so none of it is in any timing or memory figure.
"""
from __future__ import annotations

import math
import time

from bippr import exact_diffusion, exact_ppr, significance_delta

from workloads import (ALPHA, EPS, MC_DELTA, W_PER_LEVEL, Workload,
                       diffusion_tolerance, diffusion_weights)

DIFFUSION_P_FAIL = 1e-6  # per-query failure probability of the diffusion check


class Oracle:
    def __init__(self, g, wl: Workload):
        self.g, self.wl = g, wl
        self.weights = diffusion_weights()
        self.vectors: dict[int, object] = {}
        self.seconds = 0.0  # time spent computing exact vectors

    def _exact(self, s: int):
        if s not in self.vectors:
            t0 = time.perf_counter()
            if self.wl.kind == "diffusion":
                self.vectors[s] = exact_diffusion(self.g, self.weights, s)
            else:
                self.vectors[s] = exact_ppr(self.g, ALPHA, s)
            self.seconds += time.perf_counter() - t0
        return self.vectors[s]

    def error_over_bound(self, s: int, t: int, value: float | None) -> float:
        """|value - exact| divided by the allowed error; above 1 is a miss.

        PPR and MC: max(eps * pi, 2e * delta), the paper's guarantee.
        Diffusion: :func:`workloads.diffusion_tolerance`.
        """
        if value is None or not math.isfinite(value):
            return math.inf
        ref = float(self._exact(s)[t])
        if self.wl.kind == "diffusion":
            tol = diffusion_tolerance(self.weights, self.g.degree(t), self.wl.r_max,
                                      W_PER_LEVEL, DIFFUSION_P_FAIL)
        else:
            delta = MC_DELTA if self.wl.kind == "mc" else significance_delta(self.g, t)
            tol = max(EPS * ref, 2.0 * math.e * delta)
        return abs(value - ref) / tol
