"""Bidirectional PPR estimator: forward push from the source combined with
reverse geometric-length walks from the target, plus the parameter selection
rules (Chernoff constant, residual threshold balancing, walk count)."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graph import Graph
from .push import PushResult, approximate_pagerank
from .walk import (_MAX_WALKS, RandomStream, _check_alpha, _check_count,
                   _check_fraction, _check_positive, _check_walk_steps, _walk_count,
                   geometric_terminals)

__all__ = ["BipprParams", "PprEstimate", "PreparedSource", "chernoff_c",
           "choose_r_max", "num_walks", "significance_delta", "estimate_ppr"]


def chernoff_c(p_fail: float) -> float:
    """Concentration constant 3*ln(2/p_fail) for the two-sided Chernoff bound."""
    _check_fraction("p_fail", p_fail)
    return 3.0 * math.log(2.0 / p_fail)


def choose_r_max(eps: float, delta: float, d_t: float, p_fail: float) -> float:
    """Residual threshold balancing push work against walk work.

    Returns eps*sqrt(delta/d_t)/sqrt(ln(1/p_fail)), clamped to at most 1
    (residual ratios start at <= 1, so larger values make the push a no-op).
    """
    _check_fraction("eps", eps, closed=True)
    _check_positive("delta", delta)
    _check_positive("d_t", d_t)
    _check_fraction("p_fail", p_fail)
    value = eps * math.sqrt(delta / d_t) / math.sqrt(math.log(1.0 / p_fail))
    return min(value, 1.0)


def num_walks(c: float, d_t: float, r_max: float, eps: float, delta: float) -> int:
    """Walk count ceil(c*d_t*r_max/(eps^2*delta)), with a floor of one walk."""
    for name, value in [("c", c), ("d_t", d_t), ("r_max", r_max), ("eps", eps),
                        ("delta", delta)]:
        _check_positive(name, value)
    return _walk_count(c * d_t * r_max, eps, delta)


def significance_delta(g: Graph, t: int) -> float:
    """Natural significance threshold d_t/W, W the total edge weight.

    W is m on a graph of distinct unit-weight edges; a repeated pair counts
    with its merged weight, as it does in d_t.
    """
    d_t = g.degree(t)
    if g.total_weight <= 0:
        raise ValueError("graph has no edges")
    return d_t / g.total_weight


@dataclass
class BipprParams:
    """Estimator parameters; the derived fields follow the standard rules,
    r_max and w unless explicitly overridden."""

    alpha: float
    delta: float
    eps: float
    p_fail: float
    c: float
    r_max: float
    w: int

    @classmethod
    def derive(cls, alpha: float, delta: float, eps: float, p_fail: float,
               d_t: float, r_max: float | None = None,
               w: int | None = None) -> "BipprParams":
        _check_alpha(alpha)
        _check_fraction("eps", eps, closed=True)
        _check_positive("delta", delta)
        c = chernoff_c(p_fail)
        if r_max is None:
            r_max = choose_r_max(eps, delta, d_t, p_fail)
        else:
            _check_fraction("r_max", r_max, closed=True)
        if w is None:
            w = num_walks(c, d_t, r_max, eps, delta)
        else:
            _check_count("w", w, high=_MAX_WALKS)
        _check_walk_steps(alpha, w)  # before the push, which at such an alpha may not end
        return cls(alpha=alpha, delta=delta, eps=eps, p_fail=p_fail,
                   c=c, r_max=r_max, w=int(w))


@dataclass
class PprEstimate:
    """An estimate with both its terms and its work counters."""

    value: float
    push_term: float
    walk_term: float
    push_count: int
    push_work: float
    walk_steps: int


class PreparedSource:
    """Two-phase estimator: run the forward push for a source once, then
    query any number of targets (or repeated trials) against the shared,
    immutable push state. The walks run at the push's alpha, and each walk
    sample is checked against the push's r_max."""

    def __init__(self, g: Graph, alpha: float, s: int, r_max: float):
        self.graph = g
        self.push: PushResult = approximate_pagerank(g, alpha, s, r_max)
        self._residual = self.push.residual_dense(g.n)

    def estimate(self, t: int, w: int, rng: RandomStream) -> PprEstimate:
        """The estimate at t from w walks."""
        values, steps = self._walk_means(t, w, rng, trials=1)
        push_term, walk_term = self.push.p_at(t), float(values[0])
        return PprEstimate(value=push_term + walk_term, push_term=push_term,
                           walk_term=walk_term, push_count=self.push.push_count,
                           push_work=self.push.degree_work, walk_steps=steps)

    def estimate_many(self, t: int, w: int, rng: RandomStream, trials: int) -> np.ndarray:
        """Estimates from ``trials`` independent batches of w walks over the shared push."""
        return self.push.p_at(t) + self._walk_means(t, w, rng, trials)[0]

    def _walk_means(self, t: int, w: int, rng: RandomStream, trials: int):
        """Per-trial means of the walk samples ``r[v]*d_t/d_v`` at the terminals v."""
        _check_count("w", w, high=_MAX_WALKS)
        g, residual, d_t = self.graph, self._residual, self.graph.degree(t)
        bound = d_t * self.push.r_max

        def sample(terminals):
            x = residual.take(terminals) * (d_t / g.degrees.take(terminals))
            if x.max() > bound * (1.0 + 1e-9):
                raise AssertionError(f"walk sample {x.max():g} exceeds d_t*r_max={bound:g}; "
                                     "push postcondition violated")
            return x
        return geometric_terminals(g, t, self.push.alpha, w, rng, sample, trials)


def estimate_ppr(g: Graph, s: int, t: int, params: BipprParams,
                 rng: RandomStream) -> PprEstimate:
    """One-shot bidirectional estimate of the source-to-target PPR value.

    Unbiased; with probability >= 1-p_fail the error is within
    max(eps*true, 2e*delta) when parameters follow the derivation rules.
    """
    return PreparedSource(g, params.alpha, s, params.r_max).estimate(t, params.w, rng)

