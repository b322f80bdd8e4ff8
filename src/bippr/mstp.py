"""Multi-step transition probabilities and graph diffusions: multi-level
forward push, the bidirectional fixed-length estimator, and length-weight
families (PageRank-style geometric, heat-kernel Poisson) with closed-form
truncation accounting."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graph import _LIB, Graph
from .push import _Push, _SlotMap
from .walk import (_MAX_WALKS, RandomStream, _check_alpha, _check_count,
                   _check_fraction, _check_positive, _check_table_walks,
                   fixed_walk_levels, fixed_walk_positions)

__all__ = ["MstpState", "DiffusionWeights", "DiffusionEstimate",
           "approximate_mstp", "bidir_mstp", "pagerank_weights",
           "heat_kernel_weights", "choose_ell_max", "estimate_diffusion"]


@dataclass
class _Levels:
    """Sparse vectors over a push's slots, one per level: level l holds the
    values ``val[ptr[l]:ptr[l+1]]`` at the slots ``slot[ptr[l]:ptr[l+1]]``,
    in the order the push first wrote them."""

    ptr: np.ndarray
    slot: np.ndarray
    val: np.ndarray

    def level(self) -> np.ndarray:
        """The level of each entry."""
        return np.repeat(np.arange(self.ptr.size - 1), np.diff(self.ptr))

    def at(self, slot: int) -> np.ndarray:
        """Every level's value at ``slot`` (0.0 where it has none)."""
        out = np.zeros(self.ptr.size - 1)
        hit = self.slot == slot
        out[self.level()[hit]] = self.val[hit]
        return out


@dataclass
class MstpState:
    """Per-level estimate vectors q[l] and residual vectors r[l], l = 0..ell_max.

    Levels below ell_max are pushed until every ratio r[l][v]/d_v <= r_max;
    the top level is never pushed (there is no level to receive its mass) and
    holds pure residual.

    The state is compact: slot i stands for node ``node[i]``, over every node
    the push touched, and ``q_levels``/``r_levels`` hold each level's entries
    by slot, in the order the push first wrote them (a FIFO push's order).
    """

    node: np.ndarray
    q_levels: _Levels
    r_levels: _Levels
    ell_max: int
    push_count: int
    degree_work: float

    def residual_dense(self, n: int) -> np.ndarray:
        out = np.zeros((self.ell_max + 1, n))
        lv = self.r_levels
        out[lv.level(), self.node[lv.slot]] = lv.val
        return out


def approximate_mstp(g: Graph, s: int, ell_max: int, r_max: float,
                     on_push=None) -> MstpState:
    """Multi-level forward push from s.

    Level i pushes move the full residual at a node into its level-i estimate
    while spreading the same mass (edge-weight proportional) into level i+1;
    mass is indexed by walk length, so each level separately sums to <= 1.
    Level i is one round of the push kernel that ``approximate_pagerank``
    runs: every node whose level-i ratio exceeds r_max is pushed, in the
    order the push first wrote its level-i entry, and nothing spread lands
    on level i itself.

    All levels are one call of the compiled kernel (``push_levels`` in
    ``_walk.c``), which logs each level's entries as it goes and returns
    early only to let the slot arrays or the logs grow. ``on_push(state)``,
    if given, is called after every level that pushed, with a snapshot of
    the state, built as the returned one is; the kernel then runs one level
    per call.
    """
    g.require_walkable(s)
    _check_count("ell_max", ell_max, low=0, high=_MAX_WALKS - 1)
    _check_positive("r_max", r_max)

    with _Push(g, s, r_max, levels=ell_max) as push:

        def state() -> MstpState:
            return MstpState(node=push.sp.node[:push.k].copy(), q_levels=_Levels(*push.log("q")),
                             r_levels=_Levels(*push.log("r")), ell_max=ell_max,
                             push_count=push.rec.pushes, degree_work=push.rec.work)
        push.run(_LIB.push_levels, on_push, state)
        return state()


def bidir_mstp(g: Graph, state: MstpState, t: int, ell: int, w: int,
               rng: RandomStream) -> float:
    """Unbiased bidirectional estimate of the length-ell transition probability
    from the state's source to t, using w fixed-length walks from t."""
    _check_count("ell", ell, low=0, high=state.ell_max)
    _check_table_walks("w", w, ell + 1)
    with _Terms(state, g, t) as terms:
        return terms.q_t[ell] + float(_own_level_sums(terms, [ell], w, rng)[ell] / w)


_TERMS = 1 << 20  # entries per walk table: bounds the memory of a run


class _Terms(_SlotMap):
    """One query's combine at target t: the graph's slot map over the state's
    nodes, ``q_t``, the value q[l][t] of every level l, and the terms
    r[k][v] * d_t / d_v of the state's residuals, over the push's slots and
    the levels that hold an entry, never dense in n or in ell_max.

    ``levels`` lists, increasing, the levels that hold an entry, and row i of
    ``R`` holds level ``levels[i]``: column c+1 stands for slot c of the
    state, column 0 for every node the push never touched, so a walk
    position v reads column ``slot[v] + 1`` (``-1 + 1`` is the empty column).
    """

    def __init__(self, state: MstpState, g: Graph, t: int):
        lv = state.r_levels
        count = np.diff(lv.ptr)
        self.t, self.levels = t, np.flatnonzero(count).tolist()
        self.R = np.zeros((len(self.levels), state.node.size + 1))
        row = np.repeat(np.arange(len(self.levels)), count[self.levels])
        # g.degree checks t before the slot array leaves the graph
        self.R[row, lv.slot + 1] = lv.val * (g.degree(t) / g.degrees[state.node[lv.slot]])
        super().__init__(g, state.node)
        self.q_t = state.q_levels.at(self.slot[t]).tolist()


def _sample_sums(terms: _Terms, top: int, size: int, cols) -> np.ndarray:
    """Per sample, sum_k r[k][v_k] * d_t / d_{v_k} over levels k <= top.

    For each level k that holds an entry, in increasing k, the samples still
    live at k are a prefix, and ``cols(k)`` gives the columns they read; each
    gathers its level-k term once. So every sample adds its terms in
    increasing level from 0.0, as the estimator's sum is written, and skips
    only +0.0 terms, which change no bit. The cost is (levels holding an
    entry) x (live samples) gathers."""
    acc = np.zeros(size)
    for k, row in zip(terms.levels, terms.R):
        if k <= top:
            c = cols(k)
            acc[:c.size] += row.take(c)
    return acc


def _shared_sums(terms: _Terms, ell: int, w: int, rng: RandomStream) -> np.ndarray:
    """Per level l <= ell, the sum of the level-l samples of w shared walks of
    length ell, each walk's prefix read backward, a run at a time. Samples go
    by level, ell down to 0, so at level k the live ones read rows k.. of the
    run's table upside down: row i of ``cols`` is every walk's step ell - i."""
    sums = np.zeros(ell + 1)
    for _, n in _runs([ell], w):
        # indexing, not take: take would first copy the upside-down view
        cols = terms.slot[fixed_walk_positions(terms.g, terms.t, ell, n, rng).T[::-1]] + 1
        acc = _sample_sums(terms, ell, cols.size, lambda k: cols[k:].ravel())
        sums += acc.reshape(ell + 1, n).sum(axis=1)[::-1]
        del cols, acc  # before the next run draws its table
    return sums


def _runs(levels, w: int):
    """Runs ``(run, n)`` that together walk w walks of each of ``levels``
    (nonincreasing): n walks of each level of ``run``, in lockstep, in a
    position table of (run[0] + 1) x n x len(run) entries within ``_TERMS``.

    A level whose w walks do not fit alone is split into runs of
    max(1, _TERMS // (levels[0] + 1)) walks, the size of a split run of the
    longest level, so that one run's walks, and the temporaries of stepping
    and combining them, do not grow with w. The run sizes decide which
    uniforms each walk draws; a level below levels[0] is split, into runs
    smaller than it alone would fit, only when w > _TERMS // levels[0]."""
    cap = max(1, _TERMS // (levels[0] + 1))
    run: list[int] = []
    for ell in levels:
        if max(1, _TERMS // (ell + 1)) < w:
            for lo in range(0, w, cap):
                yield [ell], min(cap, w - lo)
            continue
        if run and (run[0] + 1) * w * (len(run) + 1) > _TERMS:
            yield run, w
            run = []
        run.append(ell)
    if run:
        yield run, w


def _own_level_sums(terms: _Terms, levels, w: int, rng: RandomStream) -> np.ndarray:
    """Sums over w walks from t of each of ``levels`` (nonincreasing) of their
    own-level samples sum_k r[k][pos[L-k]] * d_t / d_pos, indexed by level, a
    run at a time: walk j of length L_j reads level k at its step L_j - k,
    the flat index ``last[j] - k * stride`` of the run's table, and the walks
    live at k (L_j >= k) are a prefix of the run, as lengths do not rise."""
    sums = np.zeros(levels[0] + 1)
    for run, n in _runs(levels, w):
        table = fixed_walk_levels(terms.g, terms.t, run, n, rng)
        flat, stride = table.ravel(), table.shape[1]
        ells = np.repeat(run, n)
        last = ells * stride + np.arange(stride)
        live = np.searchsorted(-ells, -np.arange(run[0] + 1), side="right")
        acc = _sample_sums(terms, run[0], stride,
                           lambda k: terms.slot.take(flat.take(last[:live[k]] - k * stride)) + 1)
        sums[run] += acc.reshape(len(run), n).sum(axis=1)
        del table, flat, ells, last, acc  # before the next run draws its table
    return sums


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
    _check_count("ell_max", ell_max, low=0, high=_MAX_WALKS - 1)
    i = np.arange(ell_max + 1)
    alphas = alpha * (1.0 - alpha) ** i
    return DiffusionWeights(alphas=alphas, tail=(1.0 - alpha) ** (ell_max + 1))


def heat_kernel_weights(gamma: float, ell_max: int) -> DiffusionWeights:
    """Poisson weights e^{-gamma} gamma^i / i!, each taken from its logarithm."""
    _check_count("ell_max", ell_max, low=0, high=_MAX_WALKS - 1)
    alphas = _poisson_pmf(gamma, ell_max)
    tail = max(0.0, 1.0 - float(alphas.sum()))
    return DiffusionWeights(alphas=alphas, tail=tail)


def _poisson_pmf(gamma: float, ell_max: int) -> np.ndarray:
    # exp(-gamma) underflows past gamma ~745, so no term is built from it
    _check_positive("gamma", gamma)
    i = np.arange(ell_max + 1)
    return np.exp(i * math.log(gamma) - _log_factorials(ell_max) - gamma)


def _log_factorials(n: int) -> np.ndarray:
    """``[log 0!, ..., log n!]`` as a Kahan-compensated running sum of
    ``math.log(k)``: within 1 ulp up to n = 10^4 (``math.lgamma``: 3 ulp)."""
    out, total, comp = [0.0, 0.0], 0.0, 0.0
    for k in range(2, n + 1):
        y = math.log(k) - comp
        t = total + y
        total, comp = t, (t - total) - y
        out.append(t)
    return np.array(out[:n + 1])


_MAX_LEVELS = 10_000  # heat-kernel levels choose_ell_max looks through


def choose_ell_max(family: str, trunc_tol: float, alpha: float | None = None,
                   gamma: float | None = None) -> int:
    """Smallest truncation length whose tail mass is <= trunc_tol.

    A heat-kernel tail still above ``trunc_tol`` at ``_MAX_LEVELS`` levels
    raises ``ValueError`` rather than truncating silently; so does a
    PageRank alpha that needs 2^28 levels or more, whose weights alone would
    take 2 GiB.
    """
    _check_fraction("trunc_tol", trunc_tol, closed=True)
    if family == "pagerank":
        if alpha is None:
            raise ValueError("pagerank family requires alpha")
        _check_alpha(alpha)
        if trunc_tol >= 1.0 - alpha:
            return 0
        ell_max = max(0, math.ceil(math.log(trunc_tol) / math.log1p(-alpha)) - 1)
        if ell_max >= _MAX_WALKS:
            raise ValueError(f"alpha must be large enough for fewer than 2^28 levels "
                             f"at trunc_tol={trunc_tol}, got {alpha}")
        return ell_max
    if family == "heat-kernel":
        if gamma is None:
            raise ValueError("heat-kernel family requires gamma")
        # the tails fall monotonically and each table is a bit-identical
        # prefix of a longer one, so grow the table by doubling
        levels = min(64, _MAX_LEVELS)
        tails = 1.0 - np.cumsum(_poisson_pmf(gamma, levels))
        while tails[-1] > trunc_tol and levels < _MAX_LEVELS:
            levels = min(2 * levels, _MAX_LEVELS)
            tails = 1.0 - np.cumsum(_poisson_pmf(gamma, levels))
        hit = np.flatnonzero(tails <= trunc_tol)
        if hit.size == 0:
            raise ValueError(f"heat-kernel tail is still {tails[-1]:.3g} > trunc_tol="
                             f"{trunc_tol} at max_levels={_MAX_LEVELS} (gamma={gamma})")
        return int(hit[0])
    raise ValueError(f"unknown weight family {family!r}")


@dataclass
class DiffusionEstimate:
    value: float
    trunc_bound: float
    per_level: list[float]


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
    every one drawn from ``rng`` with no uniform used twice. The residual
    terms are tabled once (``_Terms``), over their support and the levels
    that hold an entry, so the table does not grow with empty levels, and
    both modes sum them by one rule (``_sample_sums``): every sample still
    live at a level that holds an entry gathers that level's term once, so
    a run costs (levels holding an entry) x (live samples) gathers. Walks
    run one table of at most ``_TERMS`` positions at a time, and a level
    split over several runs takes at most ``_TERMS // (ell_max + 1)`` walks
    per run, so memory does not grow with w_per_level. Which uniforms an
    independent walk draws depends on the runs (see ``_runs``).
    """
    g.require_walkable(t)  # before the push; approximate_mstp checks s
    ell_max = weights.ell_max
    _check_table_walks("w_per_level", w_per_level, ell_max + 1)
    state = approximate_mstp(g, s, ell_max, r_max)
    with _Terms(state, g, t) as terms:
        sums = (_shared_sums(terms, ell_max, w_per_level, rng) if shared_walks else
                _own_level_sums(terms, range(ell_max, -1, -1), w_per_level, rng))
    per_level = [q + m for q, m in zip(terms.q_t, (sums / w_per_level).tolist())]
    value = float(np.dot(weights.alphas, per_level))
    return DiffusionEstimate(value=value, trunc_bound=weights.tail, per_level=per_level)
