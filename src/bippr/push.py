"""Forward local-update (push) algorithm producing sparse PPR estimates and
residuals, with degree-weighted work accounting."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import Graph
from .walk import _check_alpha, _check_positive

__all__ = ["PushResult", "approximate_pagerank"]


@dataclass
class PushResult:
    """Sparse estimate vector p and residual vector r after forward push.

    On return every residual ratio r[v]/d_v is <= r_max, each sample drawn
    against r is bounded by d_t*r_max, and degree_work <= 1/(alpha*r_max).

    The state is compact: slot i holds node ``node[i]``, its estimate
    ``p_val[i]`` and its residual ``r_val[i]``, over every node the push
    touched. The dicts ``p`` and ``r`` (for ``--trace-push``) are built on
    demand from these arrays, nonzero entries in slot order, Python floats;
    the query paths read the arrays (:meth:`p_at`, :meth:`residual_dense`).
    """

    node: np.ndarray
    p_val: np.ndarray
    r_val: np.ndarray
    push_count: int
    degree_work: float
    alpha: float
    r_max: float

    @property
    def p(self) -> dict[int, float]:
        return _as_dict(self.node, self.p_val)

    @property
    def r(self) -> dict[int, float]:
        return _as_dict(self.node, self.r_val)

    def p_at(self, v: int) -> float:
        """p[v], 0.0 for a node the push never settled."""
        hit = np.flatnonzero(self.node == v)
        return float(self.p_val[hit[0]]) if hit.size else 0.0

    def residual_dense(self, n: int) -> np.ndarray:
        out = np.zeros(n)
        out[self.node] = self.r_val
        return out


def _as_dict(node: np.ndarray, val: np.ndarray) -> dict[int, float]:
    nz = np.flatnonzero(val)
    return dict(zip(node[nz].tolist(), val[nz].tolist()))


class _SlotMap:
    """A sparse set of nodes over the graph's reusable slot array (Briggs and
    Torczon 1993): ``slot[v]`` is node v's slot in 0..k-1, or -1, and
    ``node[:k]``/``deg[:k]`` list the members and their degrees by slot.

    The array is taken off the graph while the map lives, so a map opened
    inside another on the same graph, or in another thread, gets a fresh one;
    on exit only the members' entries are reset to -1 and the array goes
    back to the graph, unless the graph already holds one again.
    ``nodes`` are distinct and claim slots 0..len(nodes)-1.
    """

    def __init__(self, g: Graph, nodes: np.ndarray):
        self.g = g
        try:
            self.slot = g._slots.pop()
        except IndexError:
            self.slot = np.full(g.n, -1, np.intp)
        self.node = np.empty(16, np.intp)
        self.deg = np.empty(16)
        self.k = 0
        self._claim(nodes)

    def __enter__(self) -> "_SlotMap":
        return self

    def __exit__(self, *exc) -> None:
        self.slot[self.node[:self.k]] = -1
        if not self.g._slots:
            self.g._slots.append(self.slot)

    def __call__(self, v: np.ndarray) -> np.ndarray:
        """Slots of the nodes ``v``; each new node first claims the next slot."""
        s = self.slot[v]
        miss = s < 0
        if miss.any():
            new = v[miss]
            self._reserve(new.size)
            # one entry of each new node claims its slot, whichever write lands
            entry = np.arange(new.size)
            self.slot[new] = entry
            self._claim(new[self.slot[new] == entry])
            s[miss] = self.slot[new]
        return s

    def _claim(self, nodes: np.ndarray) -> None:
        self._reserve(nodes.size)
        k, c = self.k, nodes.size
        self.node[k:k + c] = nodes
        self.deg[k:k + c] = self.g.degrees[nodes]
        self.slot[nodes] = np.arange(k, k + c)
        self.k = k + c

    def _reserve(self, extra: int) -> None:
        if self.k + extra > self.node.size:
            cap = max(self.k + extra, 2 * self.node.size)
            self.node = np.concatenate([self.node[:self.k], np.empty(cap - self.k, np.intp)])
            self.deg = np.concatenate([self.deg[:self.k], np.empty(cap - self.k)])

    def fit(self, a: np.ndarray) -> np.ndarray:
        """``a``, zero-padded to the map's capacity if it is shorter."""
        if a.size >= self.node.size:
            return a
        out = np.zeros(self.node.size)
        out[:a.size] = a
        return out


def _push_round(g: Graph, sm: _SlotMap, f: np.ndarray, ru: np.ndarray,
                keep: float) -> tuple[np.ndarray, np.ndarray]:
    """Pushes every frontier slot u in ``f``, whose residuals ``ru`` the caller
    has read and zeroed: spreads keep*r_u/d_u*w over u's CSR row.

    Returns the receiving slot of each spread amount, in push order (``f``'s
    order, then row order), and the amounts summed per slot, an array of
    length ``sm.k``. The rows are gathered in one pass (row u's entries
    indptr[u]..indptr[u+1]-1, rows back to back) and scattered with one
    ``np.bincount``, which adds the amounts a slot receives in push order,
    starting from 0.0, as pushing the frontier one node at a time would. A
    push reads its residual before any of the round's spreads lands, so a
    self-loop, like any edge between two frontier nodes, feeds the next round.
    """
    u = sm.node[f]
    spread = keep * ru / sm.deg[f]
    start = g.indptr[u]
    cnt = g.indptr[u + 1] - start
    ends = np.cumsum(cnt)
    edge = np.arange(int(ends[-1])) + np.repeat(start - (ends - cnt), cnt)
    amount = np.repeat(spread, cnt)
    if not g.unit_weights:
        amount *= g.weights[edge]
    to = sm(g.indices[edge])
    return to, np.bincount(to, weights=amount, minlength=sm.k)


def _first_touch(to: np.ndarray, k: int) -> np.ndarray:
    """The distinct slots of ``to`` (all below ``k``) in order of first appearance."""
    at = np.full(k, to.size)
    entry = np.arange(to.size)
    np.minimum.at(at, to, entry)
    return to[at[to] == entry]


def _add_work(total: float, deg: np.ndarray) -> float:
    """total + deg[0] + deg[1] + ..., added left to right (``cumsum`` is a
    sequential fold), so the float sum follows push order."""
    return float(np.cumsum(np.concatenate(([total], deg)))[-1])


def approximate_pagerank(g: Graph, alpha: float, s: int, r_max: float,
                         on_push=None) -> PushResult:
    """Push from a unit of residual mass at s until all ratios r[v]/d_v <= r_max.

    Each push converts an alpha-fraction of the residual at a node into
    settled estimate and spreads the rest to its neighbors in proportion to
    edge weight. The push runs in synchronous rounds (parallel push, Shun et
    al. VLDB 2016): each round pushes every node whose ratio exceeds r_max,
    all reading their residuals before any of the round's mass lands, until
    no ratio exceeds it. Each push settles alpha*r_u > alpha*r_max*d_u, so
    degree_work <= 1/(alpha*r_max) holds as for one node at a time, and each
    round is a composition of valid pushes, so the invariant
    pi_s = p + sum_v r[v]*pi_v holds after every round. ``on_push(state)``,
    if given, is called after every round with a snapshot of the state,
    built as the returned one is.
    """
    g.require_walkable(s)
    _check_alpha(alpha)
    _check_positive("r_max", r_max)
    push_count = 0
    degree_work = 0.0
    with _SlotMap(g, np.array([s], np.intp)) as sm:
        r = sm.fit(np.array([1.0]))
        p = np.zeros_like(r)

        def state() -> PushResult:
            k = sm.k
            return PushResult(node=sm.node[:k].copy(), p_val=p[:k].copy(),
                              r_val=r[:k].copy(), push_count=push_count,
                              degree_work=degree_work, alpha=alpha, r_max=r_max)
        while True:
            k = sm.k
            f = np.flatnonzero(r[:k] / sm.deg[:k] > r_max)
            if not f.size:
                break
            ru = r[f]
            r[f] = 0.0
            p[f] += alpha * ru
            push_count += f.size
            degree_work = _add_work(degree_work, sm.deg[f])
            _, received = _push_round(g, sm, f, ru, 1.0 - alpha)
            r, p = sm.fit(r), sm.fit(p)
            r[:received.size] += received
            if on_push is not None:
                on_push(state())
        return state()
