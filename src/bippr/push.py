"""Forward local-update (push) algorithm producing sparse PPR estimates and
residuals, with degree-weighted work accounting."""
from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .graph import Graph
from .walk import _check_alpha

__all__ = ["PushResult", "approximate_pagerank", "push_from_distribution"]


@dataclass
class PushResult:
    """Sparse estimate vector p and residual vector r after forward push.

    On return every residual ratio r[v]/d_v is <= r_max, each sample drawn
    against r is bounded by d_t*r_max, and degree_work <= 1/(alpha*r_max).
    Every value in ``p`` and ``r``, and ``degree_work``, is a Python
    ``float``, not a numpy scalar.
    """

    p: dict[int, float]
    r: dict[int, float]
    push_count: int
    degree_work: float
    alpha: float
    r_max: float

    def residual_dense(self, n: int) -> np.ndarray:
        return _scatter(self.r, np.zeros(n))


def _scatter(vec: dict[int, float], out: np.ndarray) -> np.ndarray:
    """Write the sparse vector ``vec`` into the zeroed 1-d array ``out``."""
    k = len(vec)
    out[np.fromiter(vec.keys(), np.int64, k)] = np.fromiter(vec.values(), np.float64, k)
    return out


def approximate_pagerank(g: Graph, alpha: float, s: int, r_max: float,
                         on_push=None) -> PushResult:
    """Push from a unit of residual mass at s until all ratios r[v]/d_v <= r_max.

    Each push converts an alpha-fraction of the residual at the popped node
    into settled estimate and spreads the rest to its neighbors in proportion
    to edge weight. ``on_push(p, r)``, if given, is called after every push
    with the live dicts (read-only; used by invariant tests).
    """
    g.require_walkable(s)
    return push_from_distribution(g, alpha, {s: 1.0}, r_max, on_push=on_push)


def push_from_distribution(g: Graph, alpha: float, sigma: dict[int, float],
                           r_max: float, on_push=None) -> PushResult:
    """Identical push loop with the residual initialized to a distribution sigma."""
    _check_alpha(alpha)
    if not (r_max > 0):
        raise ValueError(f"r_max must be positive, got {r_max}")
    for v, mass in sigma.items():
        if not math.isfinite(mass):
            raise ValueError(f"sigma entries must be finite, got {mass}")
        if mass < 0:
            raise ValueError("sigma entries must be nonnegative")
        if mass > 0:
            g.require_walkable(v)
    # correctly rounded: a running sum over 1e5+ entries drifts past 1e-12
    total = math.fsum(sigma.values())
    if abs(total - 1.0) > 1e-12:
        raise ValueError(f"sigma must sum to 1, got {total}")

    p: dict[int, float] = {}
    r: dict[int, float] = {v: float(m) for v, m in sigma.items() if m > 0}
    push_count = 0
    degree_work = 0.0
    for du in _push(g, r, r, p, alpha, 1.0 - alpha, r_max):
        push_count += 1
        degree_work += du
        if on_push is not None:
            on_push(p, r)

    return PushResult(p=p, r=r, push_count=push_count, degree_work=degree_work,
                      alpha=alpha, r_max=r_max)


def _push(g: Graph, r: dict[int, float], out: dict[int, float],
          est: dict[int, float], settle: float, keep: float, r_max: float):
    """The push loop shared by PPR and every MSTP level; yields d_u per push.

    Pops, in FIFO order, every node of ``r`` whose ratio r[v]/d_v exceeds
    r_max: adds settle*r_u to est[u] and spreads keep*r_u/d_u*w over u's
    edges into ``out``. Only when ``out is r`` can a spread push a node over
    the threshold again, so only then are neighbours queued. A queued node's
    residual only grows until it is popped, so every pop is a valid push.
    Callers count pushes and sum d_u in push order, across calls, so the
    floating-point ``degree_work`` does not depend on how levels split it.

    The CSR arrays are read through memoryviews, which index to Python
    ``int``/``float`` without copying, so no numpy scalar is made per edge;
    the arithmetic is the same IEEE double operations in the same order.
    """
    degrees = memoryview(g.degrees)
    indptr = memoryview(g.indptr)
    indices = memoryview(g.indices)
    weights = memoryview(g.weights)
    pop_r, get_est, get_out = r.pop, est.get, out.get
    todo = [v for v, rv in r.items() if rv / degrees[v] > r_max]
    if out is not r:
        # nothing spread here can lift a node of r over the threshold
        for u in todo:
            ru = pop_r(u)
            du = degrees[u]
            est[u] = get_est(u, 0.0) + settle * ru
            spread = keep * ru / du
            a, b = indptr[u], indptr[u + 1]
            for v, w in zip(indices[a:b], weights[a:b]):
                out[v] = get_out(v, 0.0) + spread * w
            yield du
        return
    queue = deque(todo)
    queued = set(todo)
    popleft, append = queue.popleft, queue.append
    add, discard = queued.add, queued.discard
    while queue:
        u = popleft()
        discard(u)
        # residual is read once and zeroed before spreading, so a self-loop
        # routes its share back into r[u] like any other neighbor
        ru = pop_r(u)
        du = degrees[u]
        est[u] = get_est(u, 0.0) + settle * ru
        spread = keep * ru / du
        a, b = indptr[u], indptr[u + 1]
        for v, w in zip(indices[a:b], weights[a:b]):
            x = get_out(v, 0.0) + spread * w
            out[v] = x
            if v not in queued and x / degrees[v] > r_max:
                append(v)
                add(v)
        yield du
