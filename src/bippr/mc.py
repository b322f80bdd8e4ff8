"""Plain Monte-Carlo PPR baseline: empirical frequency of the target among
terminals of geometric-length walks from the source."""
from __future__ import annotations

from .estimator import PprEstimate, chernoff_c
from .graph import Graph
from .walk import (_MAX_WALKS, RandomStream, _check_count, _check_fraction,
                   _check_positive, _walk_count, geometric_terminals)

__all__ = ["mc_num_walks", "mc_estimate"]


def mc_num_walks(delta: float, eps: float, p_fail: float) -> int:
    """Walk count c/(eps^2*delta) matching the bidirectional estimator's
    Chernoff constant, for apples-to-apples benchmarks."""
    _check_positive("delta", delta)
    _check_fraction("eps", eps, closed=True)
    return _walk_count(chernoff_c(p_fail), eps, delta)


def mc_estimate(g: Graph, s: int, t: int, alpha: float, num_walks: int,
                rng: RandomStream) -> PprEstimate:
    """Estimate the source-to-target PPR as a terminal-node hit frequency."""
    _check_count("num_walks", num_walks, high=_MAX_WALKS)
    g._node(t)  # checks t before any walk runs
    hits, steps = geometric_terminals(g, s, alpha, num_walks, rng, lambda v: v == t)
    value = float(hits[0])
    return PprEstimate(value=value, push_term=0.0, walk_term=value, push_count=0,
                       push_work=0.0, walk_steps=steps)
