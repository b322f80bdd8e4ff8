"""The benchmark's workloads: graph shape, query list and the library call
each query makes.

Every workload runs on a Chung–Lu power-law graph (exponent 2.5, n = 20k,
m = 100k) generated from the run's seed. The graph is an order of magnitude
smaller than the one the paper targets so that a run, with seven ingests of
the file, fits in well under a minute; push thresholds that depend on the
graph size are scaled with m (r_max * m is the same as at m = 1M).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import bippr
from bippr import (BipprParams, Graph, RandomStream, choose_ell_max,
                   estimate_diffusion, estimate_ppr, mc_estimate,
                   mc_num_walks, pagerank_weights, significance_delta)

ROOT = Path(__file__).resolve().parent.parent
if Path(bippr.__file__).resolve().parent != ROOT / "src" / "bippr":
    raise ImportError(f"bippr imported from {bippr.__file__}, not from {ROOT / 'src'}")

N_NODES = 20_000
N_EDGES = 100_000
EXPONENT = 2.5

ALPHA = 0.2
EPS = 0.1
P_FAIL = 0.01
SOURCES = 26  # 104 pairs: at least 10 distinct queries lie beyond p90
TARGETS_PER_SOURCE = 4  # half uniform, half from the top-degree nodes
TOP_TARGETS = 100  # high-degree targets are the paper's worst case

TRUNC_TOL = 1e-6  # ell_max = 61 at alpha 0.2
W_PER_LEVEL = 250
INDEPENDENT_EVERY = 4  # every fourth diffusion query uses independent walks
MC_DELTA = 2e-2


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "ppr", "diffusion" or "mc": which library call a query makes
    weighted: bool
    r_max: float | None = None  # None: derived from eps, delta and d_t


WORKLOADS = {
    w.name: w for w in [
        Workload("ppr-point", "ppr", False),
        Workload("ppr-deep-push", "ppr", False, r_max=1e-5),
        Workload("diffusion", "diffusion", False, r_max=1e-4),
        Workload("mc-weighted", "mc", True),
    ]
}


def make_queries(g: Graph, seed: int) -> list[tuple[int, int]]:
    """(source, target) node ids: each source with half uniform targets and
    half drawn from the top-degree nodes."""
    rng = np.random.default_rng([seed, 1])
    top = np.argsort(-g.degrees, kind="stable")[:TOP_TARGETS]
    sources = rng.choice(g.n, size=SOURCES, replace=False)
    half = TARGETS_PER_SOURCE // 2
    pairs = []
    for s in sources:
        uniform = rng.choice(g.n, size=TARGETS_PER_SOURCE - half, replace=False)
        heavy = rng.choice(top, size=half, replace=False)
        pairs += [(int(s), int(t)) for t in np.concatenate([uniform, heavy])]
    return pairs


def diffusion_weights():
    return pagerank_weights(ALPHA, choose_ell_max("pagerank", TRUNC_TOL, alpha=ALPHA))


def shared_walks(i: int) -> bool:
    return i % INDEPENDENT_EVERY != INDEPENDENT_EVERY - 1


def ppr_params(g: Graph, t: int, r_max: float | None,
               delta: float | None = None) -> BipprParams:
    """Parameters as the CLI derives them (delta defaults to d_t/m)."""
    if delta is None:
        delta = significance_delta(g, t)
    return BipprParams.derive(alpha=ALPHA, delta=delta, eps=EPS, p_fail=P_FAIL,
                              d_t=g.degree(t), r_max=r_max)


class Runner:
    """Answers query ``i`` of a workload on one graph: one library call."""

    def __init__(self, g: Graph, wl: Workload, seed: int):
        self.g, self.wl, self.seed = g, wl, seed
        self.weights = diffusion_weights()
        self.mc_walks = mc_num_walks(MC_DELTA, EPS, P_FAIL)

    def __call__(self, i: int, s: int, t: int) -> float:
        g, wl = self.g, self.wl
        rng = RandomStream(self.seed, i)
        if wl.kind == "ppr":
            return estimate_ppr(g, s, t, ppr_params(g, t, wl.r_max), rng).value
        if wl.kind == "diffusion":
            return estimate_diffusion(g, s, t, self.weights, wl.r_max, W_PER_LEVEL,
                                      rng, shared_walks=shared_walks(i)).value
        return mc_estimate(g, s, t, ALPHA, self.mc_walks, rng).value

    def bippr_work(self, i: int, s: int, t: int) -> float:
        """Push degree-work plus walk steps of BiPPR on the pair at MC's delta."""
        est = estimate_ppr(self.g, s, t, ppr_params(self.g, t, None, MC_DELTA),
                           RandomStream(self.seed, i))
        return est.push_work + est.walk_steps


def diffusion_tolerance(weights, d_t: float, r_max: float, w: int,
                        p_fail: float) -> float:
    """Truncation tail plus a Hoeffding bound on the walk average.

    A walk's sample sum_l alpha_l * x_l, with x_l = sum_{k<=l} r_k[v_{l-k}] *
    d_t / d_{v_{l-k}}, lies in [0, R]: the push leaves r_k[v]/d_v <= r_max on
    every level below ell_max, and the top-level term sits at v_0 = t, where
    it is r_L[t] <= 1. The mean of w such samples is then within
    R * sqrt(ln(2/p_fail) / (2w)) of its expectation with probability at
    least 1 - p_fail. Independent per-level batches have a smaller Hoeffding
    range sum, so the same bound covers them.
    """
    a = np.asarray(weights.alphas)
    big_l = len(a) - 1
    levels = np.arange(big_l)
    sample_range = (d_t * r_max * float(np.dot(a[:big_l], levels + 1))
                    + a[big_l] * (big_l * d_t * r_max + 1.0))
    return weights.tail + sample_range * math.sqrt(math.log(2.0 / p_fail) / (2.0 * w))
