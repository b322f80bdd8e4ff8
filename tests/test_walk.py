import tracemalloc

import numpy as np
import pytest
from scipy import stats

from bippr import (Graph, PreparedSource, RandomStream, exact_mstp,
                   exact_ppr, fixed_walk_positions, geometric_terminals)
from bippr import estimator, walk
from bippr.graph import step_many
from bippr.walk import _CHUNK, fixed_walk_levels

from conftest import random_connected


def weighted_loop_graph() -> Graph:
    """Ten nodes, non-dyadic weights, self-loops; node 8 has three equal weights."""
    edges = [(0, 0, 0.7), (0, 1, 0.3), (0, 3, 0.2), (1, 2, 1.1), (1, 3, 0.6),
             (2, 2, 0.4), (2, 3, 0.9), (3, 4, 2.3), (4, 5, 0.1), (4, 6, 3.7),
             (5, 5, 1.9), (5, 6, 0.35), (6, 7, 0.45), (7, 7, 0.05), (7, 8, 0.7),
             (8, 9, 0.7), (9, 9, 2.2), (9, 0, 0.15), (6, 9, 0.7), (8, 2, 0.7)]
    return Graph.from_edges(edges)


def chi_square_pvalue(observed, expected_probs):
    """Goodness-of-fit p-value over the cells expecting more than 5 counts."""
    expected = expected_probs * observed.sum()
    keep = expected > 5
    _, pvalue = stats.chisquare(observed[keep], expected[keep] *
                                observed[keep].sum() / expected[keep].sum())
    return pvalue


class TestRandomStream:
    def test_same_key_same_sequence(self):
        a = RandomStream(123, 4).random(64)
        b = RandomStream(123, 4).random(64)
        assert np.array_equal(a, b)

    def test_distinct_stream_ids_differ(self):
        a = RandomStream(123, 0).random(64)
        b = RandomStream(123, 1).random(64)
        assert not np.array_equal(a, b)

    def test_first_draws_pinned(self):
        # a change of bit generator or of stream keying fails here first
        assert RandomStream(0).random(3).tolist() == [
            0.09452309503998779, 0.5898825331225036, 0.3083662291322947]

    def test_stream_id_keyed_as_two_32_bit_words(self):
        # SeedSequence alone would read id 2^32 as the key (0, 1); id -1 wraps
        # to 2^64 - 1, the stream of the CLI's untimed warm-up call
        high = RandomStream(0, 2**32).random(3)
        wrapped = RandomStream(0, -1).random(3)
        assert high.tolist() == [0.2582464185243696, 0.798184389124504, 0.40106247350424584]
        assert wrapped.tolist() == [0.6652996691712587, 0.8924911849156087, 0.45755084645220134]
        for stream_id in (0, 1):
            low = RandomStream(0, stream_id).random(3)
            assert not np.array_equal(low, high) and not np.array_equal(low, wrapped)

    def test_seed_and_stream_id_wrap_mod_2_64(self):
        a = RandomStream(-1, -1)
        assert (a.seed, a.stream_id) == (2**64 - 1, 2**64 - 1)
        assert np.array_equal(a.random(4), RandomStream(2**64 - 1, 2**64 - 1).random(4))


def walk_terminals(g, start, alpha, num, rng, trials=1):
    """The terminals every ``sample`` call saw, joined in call order, and the steps."""
    seen = []
    _, steps = geometric_terminals(g, start, alpha, num, rng,
                                   lambda v: seen.append(v.copy()) or v, trials)
    return np.concatenate(seen), steps


def replay_chunks(rng, alpha, num, trials=1):
    """Walk lengths and batches of a sampler call, read back from a copy of
    its stream. Each chunk, as many whole batches as fit in ``_CHUNK`` walks
    or a ``_CHUNK`` piece of a longer batch, draws its length histogram
    (lengths longest first), then one uniform per step, then, if it holds
    several batches, one permutation that puts walk i in batch perm[i]//num."""
    lengths, batch = [], []
    span = max(1, walk._CHUNK // num)
    for b in range(0, trials, span):
        batches = min(span, trials - b)
        for lo in range(0, batches * num, walk._CHUNK):
            size = min(walk._CHUNK, batches * num - lo)
            length = walk._geometric_lengths(rng, alpha, size).astype(np.int64)
            rng.random(int(length.sum()))
            lengths.append(length)
            batch.append(b + rng.permutation(size) // num if batches > 1 else np.full(size, b))
    return np.concatenate(lengths), np.concatenate(batch)


def recording_blocks(monkeypatch):
    """Make ``_lockstep``'s ``step_many`` record, per call, the live walk
    counts of the block of rounds it steps. step_many is looked up as the
    module global, where tracers wrap it."""
    blocks = []
    monkeypatch.setattr(walk, "step_many", lambda g, pos, u, live:
                        blocks.append(live.tolist()) or step_many(g, pos, u, live))
    return blocks


def block_sums(live):
    """The uniforms of each block ``_lockstep`` draws for rounds of ``live``
    walks: each ``_ROUND_BLOCK`` rounds go in the longest runs whose counts
    sum to at most ``_UNIFORMS``, or one round if it is wider."""
    sums = []
    for k0 in range(0, len(live), walk._ROUND_BLOCK):
        run = 0
        for a in live[k0:k0 + walk._ROUND_BLOCK]:
            if run and run + a > walk._UNIFORMS:
                sums.append(run)
                run = 0
            run += a
        sums.append(run)
    return sums


class TestGeometricWalk:
    def test_stop_immediately_limit(self, k3):
        alpha = 1 - 1e-12
        at_start, steps = geometric_terminals(k3, 0, alpha, 10_000, RandomStream(0),
                                              lambda v: v == 0)
        assert at_start[0] >= 1 - 1e-9
        assert steps == 0

    def test_k2_terminal_frequency(self, k2):
        at_start, _ = geometric_terminals(k2, 0, 0.2, 100_000, RandomStream(1), lambda v: v == 0)
        assert abs(at_start[0] - 5 / 9) < 0.005

    def test_mean_length(self, k3):
        _, steps = geometric_terminals(k3, 0, 0.2, 100_000, RandomStream(2), lambda v: v)
        assert abs(steps / 100_000 - 4.0) < 0.05

    def test_length_histogram_chi_square(self, k2):
        # at alpha 0.05, 0.95^64 (3.7%) of the walks reach the last cell, so
        # the histogram is drawn again for them, and again past 128 steps
        alpha = 0.05
        n = 100_000
        rng = RecordingStream(3)
        terminals, steps = walk_terminals(k2, 0, alpha, n, rng)
        lengths, _ = replay_chunks(RandomStream(3), alpha, n)
        draws = [c for c in rng.sizes if isinstance(c, tuple)]
        assert draws[:3] == [("multinomial", int((lengths >= k).sum())) for k in (0, 64, 128)]
        # the replay is the sampler's: on K2 a walk from 0 ends at 0 exactly
        # when its length is even
        assert steps == lengths.sum()
        assert np.array_equal(terminals == 0, lengths % 2 == 0)
        pmf = alpha * (1 - alpha) ** np.arange(lengths.max() + 1)
        assert chi_square_pvalue(np.bincount(lengths), pmf) > 1e-3

    def test_terminal_law_chi_square(self):
        g = random_connected(8, "er", seed=12)
        alpha = 0.3
        n = 100_000
        terminals, _ = walk_terminals(g, 0, alpha, n, RandomStream(4))
        observed = np.bincount(terminals, minlength=g.n)
        assert chi_square_pvalue(observed, exact_ppr(g, alpha, 0, tol=1e-13)) > 1e-3

    def test_weighted_terminal_law_chi_square(self):
        g = weighted_loop_graph()
        assert not g.unit_weights
        alpha = 0.25
        for s, seed in [(0, 13), (4, 14), (9, 15)]:
            terminals, _ = walk_terminals(g, s, alpha, 100_000, RandomStream(seed))
            observed = np.bincount(terminals, minlength=g.n)
            assert chi_square_pvalue(observed, exact_ppr(g, alpha, s, tol=1e-13)) > 1e-3

    def test_chunk_boundary(self, k2):
        # walks run in chunks of _CHUNK; the first chunk's draws must not
        # depend on how many walks follow it
        alpha = 0.9
        a, steps_a = walk_terminals(k2, 0, alpha, _CHUNK, RandomStream(6))
        b, steps_b = walk_terminals(k2, 0, alpha, _CHUNK + 5, RandomStream(6))
        assert np.array_equal(b[:_CHUNK], a)
        len_b, _ = replay_chunks(RandomStream(6), alpha, _CHUNK + 5)
        assert steps_a == len_b[:_CHUNK].sum()
        assert steps_b == len_b.sum()
        # on K2 a walk from 0 ends at 0 exactly when its length is even
        assert np.array_equal(b == 0, len_b % 2 == 0)

    def test_one_histogram_per_chunk_and_one_uniform_per_step(self, k3):
        rng = RandomStream(21)
        _, steps = geometric_terminals(k3, 0, 0.2, 1000, rng, lambda v: v)
        ref = RandomStream(21)
        # the length cells 0..63, then 64 or more
        ref.multinomial(1000, np.append(0.2 * 0.8 ** np.arange(64), 0.8 ** 64))
        ref.random(steps)
        assert np.array_equal(rng.random(4), ref.random(4))

    @pytest.mark.parametrize("chunk", [_CHUNK, 4096])
    def test_walks_stepped_longest_first(self, k2, monkeypatch, chunk):
        # each chunk hands its walks to the round loop longest first: one
        # round per step of its longest walk, over the walks still going,
        # stepped in blocks of rounds
        alpha, n = 0.2, 100_000
        monkeypatch.setattr(walk, "_CHUNK", chunk)
        blocks = recording_blocks(monkeypatch)
        terminals, steps = walk_terminals(k2, 0, alpha, n, RandomStream(22))
        lengths, _ = replay_chunks(RandomStream(22), alpha, n)
        assert steps == lengths.sum()
        chunks = [lengths[lo:lo + chunk] for lo in range(0, n, chunk)]
        assert all(np.all(np.diff(c) <= 0) for c in chunks)
        live = [[int((c > k).sum()) for k in range(c[0])] for c in chunks]
        assert sum(blocks, []) == sum(live, [])
        assert [sum(b) for b in blocks] == [s for a in live for s in block_sums(a)]
        # on K2 a walk from 0 ends at 0 exactly when its length is even
        assert np.array_equal(terminals == 0, lengths % 2 == 0)
        # the chunks' histograms add up to n iid lengths of mean (1-alpha)/alpha
        length_se = np.sqrt((1 - alpha) / alpha ** 2 / n)
        assert abs(lengths.mean() - (1 - alpha) / alpha) < 4 * length_se

    def test_estimate_many_trials_are_iid(self, k2, monkeypatch):
        # the trials are 20 batches of one chunk of walks from t=1, which one
        # permutation deals out; the push leaves residual only at node 0,
        # reached by odd lengths
        trials, w = 20, 5000
        prepared = PreparedSource(k2, 0.2, 0, 0.5)
        assert list(prepared.push.r) == [0]
        drawn = recording_sampler(monkeypatch)
        values = prepared.estimate_many(1, w, RandomStream(23), trials)
        terminals = np.concatenate([v for v, _ in drawn])
        lengths, batch = replay_chunks(RandomStream(23), 0.2, w, trials)
        assert np.array_equal(terminals == 0, lengths % 2 == 1)
        assert np.bincount(batch).tolist() == [w] * trials
        x = np.concatenate([x for _, x in drawn])
        assert values.tobytes() == (prepared.push.p_at(1) + np.bincount(batch, x) / w).tobytes()
        per_trial = np.bincount(batch, lengths) / w
        length_se = np.sqrt(lengths.var() / w)
        assert np.abs(per_trial - lengths.mean()).max() < 4 * length_se
        x0 = prepared.push.r[0]
        odd = (terminals == 0).mean()
        value_se = x0 * np.sqrt(odd * (1 - odd) / w)
        assert np.abs(values - values.mean()).max() < 4 * value_se
        assert values.mean() == pytest.approx(prepared.push.p_at(1) + x0 * odd)

    def test_scalar_matches_contract(self, k2):
        terminals, steps = geometric_terminals(k2, 0, 1 - 1e-12, 1, RandomStream(5), lambda v: v)
        assert terminals.tolist() == [0.0] and steps == 0

    def test_isolated_start_rejected(self):
        g = Graph.from_edges([(0, 1)], n=3)
        with pytest.raises(ValueError, match="isolated"):
            geometric_terminals(g, 2, 0.2, 1, RandomStream(0), lambda v: v)
        with pytest.raises(ValueError, match="isolated"):
            geometric_terminals(g, 2, 0.2, 10, RandomStream(0), lambda v: v)


def recording_sampler(monkeypatch):
    """Make PreparedSource's sampler record, per ``sample`` call, the
    terminals it was given and the values it returned."""
    drawn = []

    def recording(g, start, alpha, num, rng, sample, trials=1):
        def recorded(terminals):
            values = sample(terminals)
            drawn.append((terminals.copy(), values.copy()))
            return values
        return walk.geometric_terminals(g, start, alpha, num, rng, recorded, trials)
    monkeypatch.setattr(estimator, "geometric_terminals", recording)
    return drawn


class TestChunkedReduction:
    """Each sampler chunk is reduced as soon as it is walked: as many whole
    batches as fit in ``_CHUNK``, or ``_CHUNK`` pieces of a longer batch."""

    def prepared(self):
        return PreparedSource(random_connected(30, "er", seed=5), 0.2, 0, 1e-2)

    def test_whole_batches_per_chunk(self, monkeypatch):
        # w does not divide _CHUNK and w*trials > _CHUNK: chunks of 3, 3, 1
        # batches, the walks of each dealt to its batches by a permutation
        monkeypatch.setattr(walk, "_CHUNK", 1000)
        prepared = self.prepared()
        drawn = recording_sampler(monkeypatch)
        values = prepared.estimate_many(7, 300, RandomStream(31), trials=7)
        assert [t.size for t, _ in drawn] == [900, 900, 300]
        _, batch = replay_chunks(RandomStream(31), 0.2, 300, 7)
        assert [np.unique(batch[lo:lo + 900]).tolist() for lo in (0, 900)] == [[0, 1, 2],
                                                                                [3, 4, 5]]
        x = np.concatenate([v for _, v in drawn])
        assert values.tobytes() == (prepared.push.p_at(7) + np.bincount(batch, x) / 300).tobytes()
        assert len(set(values.tolist())) > 1

    def test_long_batch_split_into_pieces(self, monkeypatch):
        monkeypatch.setattr(walk, "_CHUNK", 1000)
        prepared = self.prepared()
        drawn = recording_sampler(monkeypatch)
        values = prepared.estimate_many(7, 2500, RandomStream(32), trials=2)
        assert [t.size for t, _ in drawn] == [1000, 1000, 500] * 2
        x = np.concatenate([v for _, v in drawn]).reshape(2, 2500)
        assert values == pytest.approx(prepared.push.p_at(7) + x.mean(axis=1), rel=1e-12)
        # the first batch draws what a single batch draws from the same stream
        first = [t for t, _ in drawn[:3]]
        drawn.clear()
        est = prepared.estimate(7, 2500, RandomStream(32))
        assert all(np.array_equal(a, b) for (b, _), a in zip(drawn, first))
        assert est.value == values[0]

    def test_draws_of_one_chunk_do_not_depend_on_batching(self, k3):
        # w*trials <= _CHUNK: the batches share out one chunk of walks, the
        # walks of one batch of w*trials, then one permutation
        flat, steps = walk_terminals(k3, 0, 0.2, 600, RandomStream(33))
        batched, batched_steps = walk_terminals(k3, 0, 0.2, 200, RandomStream(33), trials=3)
        means, _ = geometric_terminals(k3, 0, 0.2, 200, RandomStream(33), lambda v: v, trials=3)
        assert batched_steps == steps
        assert np.array_equal(batched, flat)
        _, batch = replay_chunks(RandomStream(33), 0.2, 200, 3)
        assert means.tobytes() == (np.bincount(batch, flat) / 200).tobytes()

    def test_tiny_alpha_refused_before_any_draw(self, k2):
        # expected steps num*trials*(1-alpha)/alpha over 2^32
        for num, trials, alpha in [(5000, 1, 1e-12), (1, 1, 1e-300), (2**27, 2, 0.0588)]:
            rng = RandomStream(34)
            with pytest.raises(ValueError, match="^alpha must be large enough"):
                geometric_terminals(k2, 0, alpha, num, rng, pytest.fail, trials)
            assert rng.random() == RandomStream(34).random()

    def test_tiny_alpha_rounds_refused_before_any_draw(self, k2):
        # few expected steps, but a chunk's rounds, (1 + ln n)/alpha at most,
        # each charged _ROUND_STEPS steps, over 2^32
        for num, trials, alpha in [(1, 1, 1e-8), (1, 1, 1e-9), (5, 4, 2e-7)]:
            assert num * trials / alpha < 2**32
            rng = RandomStream(34)
            with pytest.raises(ValueError, match="^alpha must be large enough"):
                geometric_terminals(k2, 0, alpha, num, rng, pytest.fail, trials)
            assert rng.random() == RandomStream(34).random()
        # one walk expects 1/alpha rounds: admitted from alpha = 256/2^32
        assert walk._check_walk_steps(6e-8, 1) is None
        with pytest.raises(ValueError, match="^alpha must be large enough"):
            walk._check_walk_steps(5.9e-8, 1)

    def test_many_one_walk_trials_hold_one_chunk(self):
        # 2^16 trials of one walk are one chunk of 2^16 batches, dealt out by
        # a permutation: no table of batches by length cells
        prepared = self.prepared()
        tracemalloc.start()
        try:
            values = prepared.estimate_many(7, 1, RandomStream(36), 2**16)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert values.size == 2**16 and len(set(values.tolist())) > 1
        assert peak < 8 * 2**20, peak

    def test_one_long_walk_holds_no_memory_per_round(self, k3):
        # one walk of 277,460 steps at alpha 1e-6: neither the length draws
        # (one histogram per 64 steps) nor the rounds' walk counts are kept
        # per round
        rng = RandomStream(1)  # made first: it may import numpy.random
        tracemalloc.start()
        try:
            _, steps = geometric_terminals(k3, 0, 1e-6, 1, rng, np.asarray)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert steps == 277_460
        assert peak < 2**20, peak

    def test_step_cap_admits_every_alpha_from_one_seventeenth(self, k2, monkeypatch):
        # at the walk cap, alpha = 1/17 expects exactly 2^32 steps; it walks
        class Walked(Exception):
            pass

        def stop(terminals):
            raise Walked
        monkeypatch.setattr(walk, "_CHUNK", 8)
        with pytest.raises(Walked):
            geometric_terminals(k2, 0, 1 / 17, 2**28, RandomStream(35), stop)
        with pytest.raises(Walked):
            geometric_terminals(k2, 0, 1 / 17, 2**14, RandomStream(35), stop, trials=2**14)


class TestFixedWalk:
    def test_zero_length(self, k3):
        pos = fixed_walk_positions(k3, 1, 0, 1, RandomStream(0))
        assert pos.tolist() == [[1]]

    def test_k2_deterministic_alternation(self, k2):
        pos = fixed_walk_positions(k2, 0, 3, 1, RandomStream(0))
        assert pos.tolist() == [[0, 1, 0, 1]]

    def test_every_consecutive_pair_is_an_edge(self):
        g = random_connected(20, "ba", seed=3)
        positions = fixed_walk_positions(g, 0, 30, 1, RandomStream(7))[0].tolist()
        assert len(positions) == 31
        for u, v in zip(positions, positions[1:]):
            nbrs, _ = g.neighbors(u)
            assert v in nbrs

    def test_k3_two_step_return_probability(self, k3):
        pos = fixed_walk_positions(k3, 0, 2, 100_000, RandomStream(8))
        assert abs((pos[:, 2] == 0).mean() - 0.5) < 0.005

    def test_marginals_match_exact_mstp(self):
        g = random_connected(10, "er", seed=20)
        ell = 3
        pos = fixed_walk_positions(g, 0, ell, 100_000, RandomStream(9))
        levels = exact_mstp(g, 0, ell)
        for k in range(ell + 1):
            observed = np.bincount(pos[:, k], minlength=g.n) / 100_000
            assert np.abs(observed - levels[k]).max() < 0.01

    def test_weighted_k_step_law_chi_square(self):
        g = weighted_loop_graph()
        ell = 5
        for s, seed in [(0, 16), (7, 17)]:
            pos = fixed_walk_positions(g, s, ell, 100_000, RandomStream(seed))
            levels = exact_mstp(g, s, ell)
            for k in range(1, ell + 1):
                observed = np.bincount(pos[:, k], minlength=g.n)
                assert chi_square_pvalue(observed, levels[k]) > 1e-3, (s, k)

    def test_reproducible(self, k3):
        a = fixed_walk_positions(k3, 0, 10, 1, RandomStream(42, 7))
        b = fixed_walk_positions(k3, 0, 10, 1, RandomStream(42, 7))
        assert np.array_equal(a, b)

    def test_negative_length_rejected(self, k3):
        with pytest.raises(ValueError):
            fixed_walk_positions(k3, 0, -1, 1, RandomStream(0))
        with pytest.raises(ValueError):
            fixed_walk_levels(k3, 0, [3, -1], 5, RandomStream(0))

    @pytest.mark.parametrize("ells, match", [
        ([3, 1, 2], "nonincreasing"),
        ([0, 1], "nonincreasing"),
        ([], "at least one walk length"),
    ])
    def test_levels_and_streams_checked(self, k3, ells, match):
        with pytest.raises(ValueError, match=match):
            fixed_walk_levels(k3, 0, ells, 5, RandomStream(0))


def array_step(g, nodes, u):
    """The kernel's step in array code, as reference: slot
    ``j = indptr[v] + floor(u*len_v)``, then its neighbour on unit-weight
    graphs, or ``pair[2j + (x >= thr[j])]`` from the alias tables."""
    if g.unit_weights:
        x = u * g.degrees[nodes]
        return g.indices[g.indptr[nodes] + x.astype(np.int64)]
    thr, pair, row_len = g._alias_tables()
    x = u * row_len[nodes]
    j = g.indptr[nodes] + x.astype(np.int64)
    return pair[2 * j + (x >= thr[j])].astype(np.int64)


def per_step_positions(g, start, ell, num, rng):
    """The per-step loop fixed_walk_positions used before, as reference: one
    ``random(num)`` draw per step."""
    pos = np.empty((num, ell + 1), dtype=np.int64)
    pos[:, 0] = start
    for k in range(ell):
        pos[:, k + 1] = array_step(g, pos[:, k], rng.random(num))
    return pos


def lockstep_positions(g, start, ells, num, rng):
    """The per-round loop of walks of several lengths from one stream, as
    reference: ``num`` walks of each length in ``ells``, in that order; each
    round, every walk still going (length > round) takes one uniform, the
    walks in order, and steps by :func:`array_step`. Row i is walk i's
    trajectory, -1 past its length."""
    length = np.repeat(ells, num)
    pos = np.full((length.size, max(ells) + 1), -1, dtype=np.int64)
    pos[:, 0] = start
    for k in range(max(ells)):
        going = np.flatnonzero(length > k)
        pos[going, k + 1] = array_step(g, pos[going, k], rng.random(going.size))
    return pos


class TestFixedWalkLevels:
    """Lockstep batches of several lengths equal the per-step references."""

    @pytest.mark.parametrize("weighted", [False, True])
    def test_one_block_matches_per_step_draws(self, weighted):
        g = weighted_loop_graph() if weighted else random_connected(40, "ba", seed=5)
        for seed in range(50):
            for ell, num in [(0, 3), (1, 1), (9, 17)]:
                got = fixed_walk_positions(g, 2, ell, num, RandomStream(seed, 4))
                want = per_step_positions(g, 2, ell, num, RandomStream(seed, 4))
                assert got.tobytes() == np.ascontiguousarray(want).tobytes()

    @pytest.mark.parametrize("weighted", [False, True])
    def test_blocks_match_separate_batches(self, weighted, monkeypatch):
        g = weighted_loop_graph() if weighted else random_connected(40, "ba", seed=5)
        ells, num = [12, 12, 7, 1, 0], 9
        blocks = recording_blocks(monkeypatch)
        table = fixed_walk_levels(g, 3, ells, num, RandomStream(8))
        # one round per step of the longest walks, each over the walks still
        # going, all in one block
        assert blocks == [[num * sum(ell > k for ell in ells) for k in range(12)]]
        want = lockstep_positions(g, 3, ells, num, RandomStream(8))
        for b, ell in enumerate(ells):
            block = table[:ell + 1, b * num:(b + 1) * num].T
            assert block.tobytes() == want[b * num:(b + 1) * num, :ell + 1].tobytes()


class RecordingStream(RandomStream):
    """A stream that records the size of every ``random`` call, and a
    (name, n) pair for every ``multinomial`` or ``permutation`` call."""

    def __init__(self, seed, stream_id=0):
        super().__init__(seed, stream_id)
        self.sizes = []

    def random(self, size=None):
        self.sizes.append(size)
        return super().random(size)

    def multinomial(self, n, pvals):
        self.sizes.append(("multinomial", n))
        return super().multinomial(n, pvals)

    def permutation(self, n):
        self.sizes.append(("permutation", n))
        return super().permutation(n)


class TestDrawPolicy:
    """Both samplers draw step uniforms alike: one ``random`` call per block
    of rounds, sized to the sum of the block's walks still going (see
    :func:`block_sums`). ``geometric_terminals`` draws each chunk's length
    histogram before its rounds, and deals a chunk of several batches out
    after them."""

    @pytest.mark.parametrize("uniforms", [1, 40, 1 << 16])
    def test_fixed_walk_levels_draws_once_per_block(self, monkeypatch, uniforms):
        monkeypatch.setattr(walk, "_UNIFORMS", uniforms)
        g = random_connected(40, "ba", seed=5)
        ells, num = [12, 12, 7, 1, 0], 9
        rng = RecordingStream(8)
        fixed_walk_levels(g, 3, ells, num, rng)
        assert rng.sizes == block_sums([num * sum(ell > k for ell in ells) for k in range(12)])

    @pytest.mark.parametrize("num, trials, sizes", [(10_000, 1, [4096, 4096, 1808]),
                                                    (100, 50, [4000, 1000])])
    def test_geometric_terminals_draws_a_histogram_per_chunk_then_once_per_block(
            self, k3, monkeypatch, num, trials, sizes):
        monkeypatch.setattr(walk, "_CHUNK", 4096)
        monkeypatch.setattr(walk, "_UNIFORMS", 3000)
        alpha = 0.2
        rng = RecordingStream(22)
        geometric_terminals(k3, 0, alpha, num, rng, lambda v: v, trials)
        lengths, _ = replay_chunks(RandomStream(22), alpha, num, trials)
        want = []
        for c in np.split(lengths, np.cumsum(sizes)[:-1]):
            live = [int((c > k).sum()) for k in range(c[0])]
            want += [("multinomial", c.size)] + block_sums(live)
            want += [("permutation", c.size)] if trials > 1 else []
        assert rng.sizes == want


# nonincreasing walk lengths, as both samplers hand them to the round loop
LENGTH_PROFILES = {
    "all-zero": [0, 0, 0],
    "one-walk": [9],
    "equal": [4, 4, 4, 4, 4, 4],
    "decreasing": [7, 5, 5, 3, 2, 2, 1, 0, 0],
    "long-tail": [30, 1, 1, 1, 0],
}


def lockstep_graph(name: str) -> Graph:
    return {"k2": lambda: Graph.from_edges([(0, 1)]),
            "path": lambda: Graph.from_edges([(0, 1), (1, 2), (2, 3), (3, 4)]),
            "ba": lambda: random_connected(40, "ba", seed=5),
            "weighted": weighted_loop_graph}[name]()


class TestLockstep:
    """The one round loop under both samplers, called directly."""

    @pytest.mark.parametrize("profile", LENGTH_PROFILES)
    def test_table_matches_per_round_reference(self, profile):
        g = weighted_loop_graph()
        length = np.array(LENGTH_PROFILES[profile])
        table = walk._lockstep(g, 2, length, RandomStream(3), table=True)
        want = lockstep_positions(g, 2, LENGTH_PROFILES[profile], 1, RandomStream(3))
        assert table.shape == (length[0] + 1, length.size)
        for i, ell in enumerate(length.tolist()):
            assert table[:ell + 1, i].tolist() == want[i, :ell + 1].tolist()

    @pytest.mark.parametrize("profile", LENGTH_PROFILES)
    def test_terminals_are_the_table_read_at_each_length(self, profile):
        g = weighted_loop_graph()
        length = np.array(LENGTH_PROFILES[profile])
        table = walk._lockstep(g, 2, length, RandomStream(3), table=True)
        ends = walk._lockstep(g, 2, length, RandomStream(3))
        assert ends.tolist() == table[length, np.arange(length.size)].tolist()

    @pytest.mark.parametrize("uniforms", [1, 7, 1 << 16])
    @pytest.mark.parametrize("profile", LENGTH_PROFILES)
    def test_one_draw_and_one_step_per_block(self, profile, uniforms, monkeypatch):
        monkeypatch.setattr(walk, "_UNIFORMS", uniforms)
        g = weighted_loop_graph()
        length = np.array(LENGTH_PROFILES[profile])
        blocks = recording_blocks(monkeypatch)
        rng = RecordingStream(3)
        walk._lockstep(g, 2, length, rng)
        live = [int((length > k).sum()) for k in range(length[0])]
        assert sum(blocks, []) == live
        assert rng.sizes == [sum(b) for b in blocks] == block_sums(live)

    @pytest.mark.parametrize("graph", ["k2", "path", "ba", "weighted"])
    def test_every_round_steps_along_an_edge(self, graph):
        g = lockstep_graph(graph)
        length = np.array(LENGTH_PROFILES["decreasing"])
        table = walk._lockstep(g, 1, length, RandomStream(12), table=True)
        assert (table[0] == 1).all()
        for i, ell in enumerate(length.tolist()):
            for u, v in zip(table[:ell, i].tolist(), table[1:ell + 1, i].tolist()):
                assert v in g.neighbors(u)[0]

    @pytest.mark.parametrize("table", [False, True], ids=["terminals", "table"])
    @pytest.mark.parametrize("uniforms", [1, 7, 1 << 16])
    @pytest.mark.parametrize("graph", ["path", "ba", "weighted"])
    def test_blocks_of_rounds_match_per_round_reference(self, graph, uniforms, table,
                                                        monkeypatch):
        # every block size gives the walks the per-round array loop gives
        monkeypatch.setattr(walk, "_UNIFORMS", uniforms)
        g = lockstep_graph(graph)
        ells = [40, 13, 13, 6, 2, 1, 0]
        got = walk._lockstep(g, 1, np.repeat(ells, 300), RandomStream(14), table=table)
        want = lockstep_positions(g, 1, ells, 300, RandomStream(14))
        length = np.repeat(ells, 300)
        if table:
            for i, ell in enumerate(length.tolist()):
                assert got[:ell + 1, i].tobytes() == want[i, :ell + 1].tobytes()
        else:
            assert got.tobytes() == want[np.arange(length.size), length].tobytes()

    @pytest.mark.parametrize("dtype", [np.int8, np.int16, np.int32, np.int64])
    def test_each_pair_table_type_walks_alike(self, dtype):
        # the kernel is built once per pair table type: the table cast to
        # each gives the per-round reference's walks
        g = weighted_loop_graph()
        want = lockstep_positions(g, 2, [25, 9, 3, 0], 50, RandomStream(15))
        thr, pair, row_len = g._alias_tables()
        assert pair.dtype == np.int8
        g._alias = (thr, pair.astype(dtype), row_len)
        length = np.repeat([25, 9, 3, 0], 50)
        table = walk._lockstep(g, 2, length, RandomStream(15), table=True)
        for i, ell in enumerate(length.tolist()):
            assert table[:ell + 1, i].tobytes() == want[i, :ell + 1].tobytes()

    @pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.int64])
    def test_length_dtype_does_not_change_the_walks(self, dtype):
        # geometric_terminals hands over its lengths as the smallest unsigned
        # type that holds them, fixed_walk_levels as int64
        g = random_connected(40, "ba", seed=5)
        profile = LENGTH_PROFILES["long-tail"]
        want = walk._lockstep(g, 0, np.array(profile), RandomStream(6), table=True)
        got = walk._lockstep(g, 0, np.array(profile, dtype=dtype), RandomStream(6), table=True)
        for i, ell in enumerate(profile):
            assert got[:ell + 1, i].tolist() == want[:ell + 1, i].tolist()
