"""Random-walk samplers with a reproducible, keyed random-stream contract."""
from __future__ import annotations

import math

import numpy as np

from .graph import Graph, step_many

__all__ = ["RandomStream", "geometric_terminals", "fixed_walk_positions", "fixed_walk_levels"]

_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1
_CHUNK = 1 << 20  # walks advanced together by geometric_terminals: bounds its memory
_CELLS = 64  # walk lengths counted per histogram draw: see _geometric_lengths
_MAX_WALKS = 1 << 28  # walks per sampler call
_MAX_STEPS = 1 << 32  # expected steps per geometric_terminals call: bounds its time
_ROUND_STEPS = 256  # steps a lockstep round costs, whatever its width: see _check_walk_steps
_ROUND_BLOCK = 1024  # rounds whose walk counts _lockstep works out at once: bounds its memory
_UNIFORMS = 1 << 16  # uniforms a block of rounds draws at most, unless one round is wider


class RandomStream:
    """Random stream keyed by a seed and a stream id.

    The generator is PCG64DXSM (O'Neill 2014) seeded by
    ``np.random.SeedSequence(seed, spawn_key=...)``; the seed and the stream
    id are taken mod 2^64. An identical key always yields the identical
    sample sequence. The stream id reaches SeedSequence as two 32-bit words,
    low then high, so every id in [0, 2^64) keys its own generator state
    (SeedSequence itself reads a key entry below 2^32 as one word and a
    larger one as two).
    """

    __slots__ = ("seed", "stream_id", "_gen")

    def __init__(self, seed: int, stream_id: int = 0):
        self.seed = seed & _MASK64
        self.stream_id = stream_id & _MASK64
        words = (self.stream_id & _MASK32, self.stream_id >> 32)
        self._gen = np.random.Generator(np.random.PCG64DXSM(
            np.random.SeedSequence(self.seed, spawn_key=words)))

    def random(self, size=None):
        return self._gen.random(size)

    def multinomial(self, n: int, pvals: np.ndarray) -> np.ndarray:
        """Counts of ``n`` draws over cells of probabilities ``pvals``; the
        last cell takes what the others leave."""
        return self._gen.multinomial(n, pvals)

    def permutation(self, n: int) -> np.ndarray:
        """A uniform permutation of ``range(n)``."""
        return self._gen.permutation(n)


def geometric_terminals(g: Graph, start: int, alpha: float, num: int,
                        rng: RandomStream, sample, trials: int = 1):
    """Per-trial means of ``sample`` at the terminals of ``trials`` batches of
    ``num`` independent geometric-length walks, plus total steps.

    A walk's length L is Geometric(alpha) on {0, 1, 2, ...}, ``P(L >= k) =
    (1-alpha)^k``, the law of a stop coin of probability alpha flipped before
    each step. A walk of length 0 ends at the start; the terminal is
    distributed as the personalized PageRank vector of ``start``.

    Walks run in chunks: as many whole batches as fit in ``_CHUNK`` walks, or
    ``_CHUNK`` pieces of a longer batch. A chunk of n walks draws the
    histogram of its n lengths (:func:`_geometric_lengths`), lays the walks
    out longest first and steps them with :func:`_lockstep`, one uniform per
    step; ``sample`` then maps the terminals, longest walk first, to per-walk
    values. Given the histogram, the n iid lengths are a uniform arrangement
    of it, and a walk's terminal depends only on its length and its own step
    uniforms, so the walks are exchangeable: a chunk that is one batch, or a
    piece of one, adds the sum of its values whatever their order. A chunk of
    several batches puts walk i in batch ``perm[i] // num`` for one uniform
    permutation ``perm`` of the chunk, so each batch is ``num`` iid walks and
    the trials are iid; one ``np.bincount`` sums the batches, so memory stays
    at one chunk.
    """
    g.require_walkable(start)
    _check_alpha(alpha)
    _check_count("num", num, high=_MAX_WALKS)
    _check_count("trials", trials, high=_MAX_WALKS // num)
    _check_walk_steps(alpha, num, trials)
    sums = np.zeros(trials)
    total_steps = 0
    span = max(1, _CHUNK // num)  # whole batches per chunk
    for b in range(0, trials, span):
        batches = min(span, trials - b)
        for lo in range(0, batches * num, _CHUNK):
            size = min(_CHUNK, batches * num - lo)
            length = _geometric_lengths(rng, alpha, size)
            values = sample(_lockstep(g, start, length, rng))
            if batches == 1:
                sums[b] += values.sum()
            else:
                sums[b:b + batches] += np.bincount(rng.permutation(size) // num, values, batches)
            total_steps += int(length.sum())
    return sums / num, total_steps


def _geometric_lengths(rng: RandomStream, alpha: float, n: int) -> np.ndarray:
    """``n`` iid Geometric(alpha) lengths, longest first, drawn as their histogram.

    The cells are the lengths l below ``_CELLS``, of probability
    ``alpha*(1-alpha)^l``, and a last cell "``_CELLS`` or more", of
    probability ``(1-alpha)^_CELLS``. The counts of n iid lengths over these
    cells are Multinomial(n, cells) (Devroye 1986), one ``rng.multinomial``
    draw. The law is memoryless: given ``L >= _CELLS``, ``L - _CELLS`` is
    again Geometric(alpha), so the walks of the last cell draw again,
    ``_CELLS`` steps longer, until none is left; no length is truncated.

    numpy draws one binomial per cell until the walks run out, so a draw
    costs at most ``_CELLS`` binomials. With 64 cells a chunk at alpha 0.2
    draws again only for walks of 64 steps or more (0.8^64, about 6e-7 of
    them), and at a small alpha each draw covers 64 of the chunk's rounds,
    which cost far more than the draw.
    """
    survival = np.exp(np.arange(_CELLS + 1) * math.log1p(-alpha))  # P(L >= l)
    cells = np.append(alpha * survival[:-1], survival[-1])
    ends, counts, base = [], [], 0
    while n:
        hist = rng.multinomial(n, cells)
        seen = np.flatnonzero(hist[:-1])
        if seen.size:  # kept only for lengths drawn, so a long walk holds none per draw
            ends.append(base + seen)
            counts.append(hist[seen])
        n, base = int(hist[-1]), base + _CELLS
    ends = np.concatenate(ends)[::-1]
    return np.repeat(ends.astype(np.min_scalar_type(int(ends[0]))), np.concatenate(counts)[::-1])


def fixed_walk_positions(g: Graph, start: int, ell: int, num: int,
                         rng: RandomStream) -> np.ndarray:
    """(num, ell+1) array of trajectories of exactly ``ell`` steps from start;
    column k is distributed as e_start W^k.

    One block of :func:`fixed_walk_levels`, returned transposed (a view).
    """
    return fixed_walk_levels(g, start, [ell], num, rng).T


def fixed_walk_levels(g: Graph, start: int, ells, num: int, rng: RandomStream) -> np.ndarray:
    """Position table of ``num`` walks from start of each length in ``ells``
    (nonincreasing), all advanced in lockstep by :func:`_lockstep`.

    Column block b (``num`` columns from ``b*num``) holds the walks of length
    ``ells[b]``, row k their step k; rows past a block's length are left unset.
    A table over ``_MAX_WALKS`` positions is refused before any allocation.
    """
    g.require_walkable(start)
    if len(ells) == 0:
        raise ValueError("need at least one walk length")
    for ell in ells:
        _check_count("ell", ell, low=0, high=_MAX_WALKS - 1)
    if any(a < b for a, b in zip(ells, ells[1:])):
        raise ValueError(f"walk lengths must be nonincreasing, got {list(ells)}")
    _check_table_walks("num", num, (ells[0] + 1) * len(ells))
    return _lockstep(g, start, np.repeat(ells, num), rng, table=True)


def _lockstep(g: Graph, start: int, length: np.ndarray, rng: RandomStream,
              table: bool = False) -> np.ndarray:
    """Walks from start of the nonincreasing ``length``s, advanced together:
    the walks still going at round k (length > k) are a prefix of a walks,
    and round k steps them with the next a uniforms of the stream, one per
    step. Returns the terminals, in the order of ``length``, or with
    ``table`` the (length[0]+1, walks) position table, row k every walk's
    step k; rows past a walk's length are left unset.

    The walk counts are worked out ``_ROUND_BLOCK`` rounds at a time, so
    memory does not grow with the rounds. Within those, the rounds go in
    blocks: the longest run of rounds whose walk counts sum to at most
    ``_UNIFORMS``, or one round if it is wider. A block of n steps makes one
    ``rng.random(n)`` draw and one ``step_many`` call, the compiled kernel.
    ``Generator.random`` fills its output element by element, so one draw of
    ``a + b`` uniforms is the draw of ``a`` followed by the draw of ``b``:
    every step reads the uniform a draw per round would give it."""
    top = int(length[0])
    pos = np.empty((top + 1 if table else 1, length.size), np.int64)
    pos[0] = start
    rev = length[::-1]
    for k0 in range(0, top, _ROUND_BLOCK):
        rounds = np.arange(k0, min(top, k0 + _ROUND_BLOCK), dtype=length.dtype)
        live = length.size - np.searchsorted(rev, rounds, side="right")
        ends = np.cumsum(live)
        b = done = 0
        while b < live.size:
            e = max(b + 1, int(np.searchsorted(ends, done + _UNIFORMS, side="right")))
            u = rng.random(int(ends[e - 1]) - done)
            step_many(g, pos[k0 + b:k0 + e + 1] if table else pos[0], u, live[b:e])
            b, done = e, int(ends[e - 1])
    return pos if table else pos[0]


# Every public entry point checks its arguments with these, one rule per kind
# of parameter; each raises ValueError naming it. Bools are never numbers here.

def _check_fraction(name: str, value: float, closed: bool = False) -> None:
    """Rule: a real in (0, 1), or in (0, 1] with ``closed``; NaN fails."""
    if isinstance(value, (bool, np.bool_)) or not (0.0 < value < 1.0 or closed and value == 1.0):
        raise ValueError(f"{name} must be in (0, 1{']' if closed else ')'}, got {value}")


def _check_alpha(alpha: float) -> None:
    """Rule: alpha in the open interval (0, 1), the same in every entry point."""
    _check_fraction("alpha", alpha)


def _check_walk_steps(alpha: float, num: int, trials: int = 1) -> None:
    """Rule: ``num*trials`` geometric walks at a valid ``alpha`` expect at
    most ``_MAX_STEPS`` steps, ``num*trials*(1-alpha)/alpha``, and each chunk
    expects rounds worth at most as many; a tiny alpha fails.

    A chunk of n walks, n at most ``min(num*trials, _CHUNK)``, runs one round
    per step of its longest walk. A length is the floor of an exponential
    variable of rate ``-ln(1-alpha) >= alpha``, so the longest of n expects
    at most ``H_n/alpha <= (1 + ln n)/alpha`` rounds. Each round is charged
    ``_ROUND_STEPS`` steps, a power of two above the measured cost: with
    the compiled kernel, one walk stepped for 200,000 rounds on a triangle
    took 40-42 ns a round against 4.3-4.7 ns a step for 2^20 walks of 20
    steps, and 46-49 ns against 4.9-5.0 ns on a weighted triangle, ratios
    of 9-10 (numpy 2.4, one core of an Intel Xeon), so the charge bounds a
    round's cost with a wide margin.
    """
    walks = num * trials
    if (walks * (1.0 - alpha) > _MAX_STEPS * alpha
            or _ROUND_STEPS * (1.0 + math.log(min(walks, _CHUNK))) > _MAX_STEPS * alpha):
        raise ValueError(f"alpha must be large enough for at most 2^32 expected steps, got {alpha}")


def _check_push_work(alpha: float, r_max: float) -> None:
    """Rule: a push at a valid ``alpha`` and ``r_max`` is proven to do at
    most ``1/(alpha*r_max)`` degree work (every push settles more than
    ``alpha*r_max*d_u`` of one unit of mass), and that bound is at most
    ``_MAX_STEPS``, the walks' budget; a tiny alpha fails before any push.
    On a triangle at r_max 0.027 the bound is 37/alpha and a push does about
    11/alpha degree work: alpha 1e-8 is allowed (15.4 s on one core of an
    Intel Xeon) and alpha 1e-9 refused."""
    if alpha * r_max * _MAX_STEPS < 1.0:  # 1/(alpha*r_max) > _MAX_STEPS; no division by 0
        raise ValueError(f"alpha must be large enough for a push of at most 2^32 degree work "
                         f"at r_max={r_max}, got {alpha}")


def _check_positive(name: str, value: float) -> None:
    """Rule: a finite real > 0; NaN and inf fail."""
    if isinstance(value, (bool, np.bool_)) or not (0.0 < value < math.inf):
        raise ValueError(f"{name} must be a finite positive number, got {value}")


def _check_count(name: str, value: int, low: int = 1, high: int | None = None) -> None:
    """Rule: an ``int`` or ``np.integer`` in [low, high] (no float, even if
    integral): low=1 for a count of walks or trials, low=0 for a length."""
    if (isinstance(value, bool) or not isinstance(value, (int, np.integer))
            or value < low or high is not None and value > high):
        what = "a positive integer" if low == 1 else "a nonnegative integer"
        if high is not None:
            what += f" at most {high}"
        raise ValueError(f"{name} must be {what}, got {value!r}")


def _check_table_walks(name: str, num: int, positions: int) -> None:
    """Rule: ``num`` walks of ``positions`` positions each (ell+1 for a walk
    of ell steps) fill a table within the samplers' cap of ``_MAX_WALKS``
    positions, so ``num`` is a count at most ``_MAX_WALKS // positions``."""
    _check_count(name, num, high=_MAX_WALKS // positions)


def _walk_count(scale: float, eps: float, delta: float) -> int:
    """Rule: the Chernoff walk count ceil(scale/(eps^2*delta)), at least one
    and at most ``_MAX_WALKS``; a larger count, or one that is not finite
    (tiny delta, or eps^2*delta underflowing to 0), fails."""
    try:
        count = max(1, math.ceil(scale / (eps * eps * delta)))
    except (OverflowError, ZeroDivisionError):
        count = math.inf
    if count > _MAX_WALKS:
        raise ValueError(f"delta must be large enough for at most 2^28 walks "
                         f"at eps={eps}, got {delta}")
    return count
