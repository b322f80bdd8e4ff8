"""Multi-step transition probabilities and graph diffusions: multi-level
forward push, the bidirectional fixed-length estimator, and length-weight
families (PageRank-style geometric, heat-kernel Poisson) with closed-form
truncation accounting."""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .graph import Graph
from .push import _push, _scatter
from .walk import RandomStream, _check_alpha, fixed_walk_positions

__all__ = ["MstpState", "DiffusionWeights", "DiffusionEstimate",
           "approximate_mstp", "bidir_mstp", "pagerank_weights",
           "heat_kernel_weights", "choose_ell_max", "estimate_diffusion"]


@dataclass
class MstpState:
    """Per-level estimate vectors q[l] and residual vectors r[l], l = 0..ell_max.

    Levels below ell_max are pushed until every ratio r[l][v]/d_v <= r_max;
    the top level is never pushed (there is no level to receive its mass) and
    holds pure residual. Every value in ``q`` and ``r`` is a Python ``float``.
    """

    source: int
    q: list[dict[int, float]]
    r: list[dict[int, float]]
    ell_max: int
    r_max: float
    push_count: int
    degree_work: float

    def residual_dense(self, n: int) -> np.ndarray:
        out = np.zeros((self.ell_max + 1, n))
        for level, rv in enumerate(self.r):
            _scatter(rv, out[level])
        return out


def approximate_mstp(g: Graph, s: int, ell_max: int, r_max: float,
                     on_push=None) -> MstpState:
    """Multi-level forward push from s.

    Level i pushes move the full residual at a node into its level-i estimate
    while spreading the same mass (edge-weight proportional) into level i+1;
    mass is indexed by walk length, so each level separately sums to <= 1.
    ``on_push(q, r)``, if given, is called after every push with the live state.
    """
    g.require_walkable(s)
    if ell_max < 0:
        raise ValueError("ell_max must be nonnegative")
    if not (r_max > 0):
        raise ValueError(f"r_max must be positive, got {r_max}")

    q: list[dict[int, float]] = [dict() for _ in range(ell_max + 1)]
    r: list[dict[int, float]] = [dict() for _ in range(ell_max + 1)]
    r[0][s] = 1.0
    push_count = 0
    degree_work = 0.0
    for i in range(ell_max):
        for du in _push(g, r[i], r[i + 1], q[i], 1.0, 1.0, r_max):
            push_count += 1
            degree_work += du
            if on_push is not None:
                on_push(q, r)

    return MstpState(source=s, q=q, r=r, ell_max=ell_max, r_max=r_max,
                     push_count=push_count, degree_work=degree_work)


def bidir_mstp(g: Graph, state: MstpState, t: int, ell: int, w: int,
               rng: RandomStream) -> float:
    """Unbiased bidirectional estimate of the length-ell transition probability
    from the state's source to t, using w fixed-length walks from t."""
    if ell < 0 or ell > state.ell_max:
        raise ValueError(f"ell must be in [0, {state.ell_max}], got {ell}")
    if w <= 0:
        raise ValueError("w must be positive")
    pos = fixed_walk_positions(g, t, ell, w, rng)
    return _level_estimate(g, state, state.residual_dense(g.n), pos,
                           g.degree(t) / g.degrees[pos], t)


def _level_estimate(g: Graph, state: MstpState, rd: np.ndarray, pos: np.ndarray,
                    scale: np.ndarray, t: int) -> float:
    """q[ell][t] + mean over walks of sum_k rd[k, pos[ell-k]] * scale[ell-k], for
    ell = pos.shape[1] - 1, scale = d_t / d_pos: one gather, then a cumsum that adds
    each walk's terms in increasing k (``sum`` would pair them, moving the last bits)."""
    ell = pos.shape[1] - 1
    idx = pos[:, ::-1].T + (np.arange(ell + 1) * g.n)[:, None]
    x = np.cumsum(rd.ravel()[idx] * scale[:, ::-1].T, axis=0)[-1]
    return state.q[ell].get(t, 0.0) + float(x.mean())


@dataclass
class DiffusionWeights:
    """Nonnegative length weights summing (with the tail) to one.

    The tail is the mass of all lengths past the truncation point, computed in
    closed form per family, and is an infinity-norm bound on the truncation
    error of the resulting diffusion estimate.
    """

    alphas: np.ndarray
    tail: float

    @property
    def ell_max(self) -> int:
        return len(self.alphas) - 1


def pagerank_weights(alpha: float, ell_max: int) -> DiffusionWeights:
    """Geometric weights alpha*(1-alpha)^i with tail (1-alpha)^(ell_max+1)."""
    _check_alpha(alpha)
    if ell_max < 0:
        raise ValueError("ell_max must be nonnegative")
    i = np.arange(ell_max + 1)
    alphas = alpha * (1.0 - alpha) ** i
    return DiffusionWeights(alphas=alphas, tail=(1.0 - alpha) ** (ell_max + 1))


def heat_kernel_weights(gamma: float, ell_max: int) -> DiffusionWeights:
    """Poisson weights e^{-gamma} gamma^i / i!, each taken from its logarithm."""
    if ell_max < 0:
        raise ValueError("ell_max must be nonnegative")
    alphas = _poisson_pmf(gamma, ell_max)
    tail = max(0.0, 1.0 - float(alphas.sum()))
    return DiffusionWeights(alphas=alphas, tail=tail)


def _poisson_pmf(gamma: float, ell_max: int) -> np.ndarray:
    # exp(-gamma) underflows past gamma ~745, so no term is built from it;
    # imported here, as scipy.special adds 0.2 s to every CLI start
    from scipy.special import gammaln
    if not (gamma > 0):
        raise ValueError(f"gamma must be positive, got {gamma}")
    i = np.arange(ell_max + 1)
    return np.exp(i * math.log(gamma) - gammaln(i + 1) - gamma)


def choose_ell_max(family: str, trunc_tol: float, alpha: float | None = None,
                   gamma: float | None = None, max_levels: int = 10_000) -> int:
    """Smallest truncation length whose tail mass is <= trunc_tol.

    A heat-kernel tail still above ``trunc_tol`` at ``max_levels`` raises
    ``ValueError`` rather than truncating silently.
    """
    if not (0.0 < trunc_tol <= 1.0):
        raise ValueError(f"trunc_tol must be in (0, 1], got {trunc_tol}")
    if family == "pagerank":
        if alpha is None:
            raise ValueError("pagerank family requires alpha")
        if trunc_tol >= 1.0 - alpha:
            return 0
        return max(0, math.ceil(math.log(trunc_tol) / math.log1p(-alpha)) - 1)
    if family == "heat-kernel":
        if gamma is None:
            raise ValueError("heat-kernel family requires gamma")
        tails = 1.0 - np.cumsum(_poisson_pmf(gamma, max_levels))
        hit = np.flatnonzero(tails <= trunc_tol)
        if hit.size == 0:
            raise ValueError(f"heat-kernel tail is still {tails[-1]:.3g} > trunc_tol="
                             f"{trunc_tol} at max_levels={max_levels} (gamma={gamma})")
        return int(hit[0])
    raise ValueError(f"unknown weight family {family!r}")


@dataclass
class DiffusionEstimate:
    value: float
    trunc_bound: float
    per_level: list[float] = field(default_factory=list)
    state: MstpState | None = None


def estimate_diffusion(g: Graph, s: int, t: int, weights: DiffusionWeights,
                       r_max: float, w_per_level: int, rng: RandomStream,
                       shared_walks: bool = True) -> DiffusionEstimate:
    """Weight-mixed bidirectional diffusion estimate between s and t.

    Builds one multi-level push state for s and combines per-length estimates
    with the length weights; the true diffusion differs from the expectation
    of the returned value by at most the truncation tail.

    With ``shared_walks`` one batch of full-length trajectories from t is
    prefix-read for every length (cheaper by a factor of ell_max, at the cost
    of cross-level correlation); disable it for independent per-level batches,
    level ell drawing from ``rng.child(ell)`` exactly as :func:`bidir_mstp`
    would. Either way the dense residual is built once; each level is one gather.
    """
    g.require_walkable(s)
    g.require_walkable(t)
    if w_per_level <= 0:
        raise ValueError("w_per_level must be positive")
    ell_max = weights.ell_max
    state = approximate_mstp(g, s, ell_max, r_max)
    rdense = state.residual_dense(g.n)
    d_t = g.degree(t)
    if shared_walks:
        pos = fixed_walk_positions(g, t, ell_max, w_per_level, rng)
        scale = d_t / g.degrees[pos]

    per_level: list[float] = []
    for ell in range(ell_max + 1):
        if not shared_walks:
            pos = fixed_walk_positions(g, t, ell, w_per_level, rng.child(ell))
            scale = d_t / g.degrees[pos]
        per_level.append(_level_estimate(g, state, rdense, pos[:, :ell + 1],
                                         scale[:, :ell + 1], t))

    value = float(np.dot(weights.alphas, per_level))
    return DiffusionEstimate(value=value, trunc_bound=weights.tail,
                             per_level=per_level, state=state)
