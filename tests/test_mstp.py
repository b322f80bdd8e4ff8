import math
import tracemalloc
from statistics import NormalDist

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from bippr import (Graph, RandomStream, approximate_mstp, bidir_mstp,
                   choose_ell_max, estimate_diffusion, exact_diffusion,
                   exact_mstp, exact_ppr, fixed_walk_positions,
                   heat_kernel_weights, pagerank_weights)
from bippr import mstp, walk
from bippr.graph import step_many
from bippr.mstp import _own_level_sums, _Terms
from bippr.walk import fixed_walk_levels

from conftest import dense_walk_matrix, mstp_dicts, random_connected
from test_estimator import reweighted
from test_push import assert_slots_released, push_graphs
from test_walk import lockstep_positions


def level_gap(g, state, s, Wpows, ell):
    """Max per-entry error of p_s^ell = q[ell] + sum_k r[k] W^(ell-k)."""
    n = g.n
    q, r = mstp_dicts(state)
    recon = np.zeros(n)
    for v, x in q[ell].items():
        recon[v] += x
    for k in range(ell + 1):
        rk = np.zeros(n)
        for v, x in r[k].items():
            rk[v] = x
        recon += rk @ Wpows[ell - k]
    return np.abs(recon - Wpows[ell][s]).max()


def dense_powers(g, ell_max):
    W = dense_walk_matrix(g)
    out = [np.eye(g.n)]
    for _ in range(ell_max):
        out.append(out[-1] @ W)
    return out


class TestApproximateMstp:
    def test_no_pushes_above_unit_threshold(self, k2):
        state = approximate_mstp(k2, 0, 3, 1.0)
        assert state.push_count == 0
        q, r = mstp_dicts(state)
        assert all(x == {} for x in q)
        assert r[0] == {0: 1.0}

    def test_k2_hand_trace(self, k2):
        q, r = mstp_dicts(approximate_mstp(k2, 0, 2, 0.5))
        assert q[0] == {0: pytest.approx(1.0)}
        assert q[1] == {1: pytest.approx(1.0)}
        assert q[2] == {}
        assert r[0] == {}
        assert r[1] == {}
        assert r[2] == {0: pytest.approx(1.0)}

    @pytest.mark.parametrize("r_max", [0.1, 0.3, 0.7])
    def test_invariant_vs_exact_mstp(self, k3, r_max):
        ell_max = 4
        state = approximate_mstp(k3, 0, ell_max, r_max)
        Wpows = dense_powers(k3, ell_max)
        for ell in range(ell_max + 1):
            assert level_gap(k3, state, 0, Wpows, ell) <= 1e-12

    def test_invariant_after_every_push(self):
        g = random_connected(25, "er", seed=16)
        ell_max = 4
        Wpows = dense_powers(g, ell_max)
        gaps = []

        def on_push(state):
            gaps.append(max(level_gap(g, state, 0, Wpows, ell)
                            for ell in range(ell_max + 1)))

        approximate_mstp(g, 0, ell_max, 0.05, on_push=on_push)
        assert gaps
        assert max(gaps) <= 1e-10

    @pytest.mark.parametrize("g", [
        Graph.from_edges([(0, 0, 0.7), (0, 1, 0.3), (1, 2, 1.1), (2, 2, 0.4),
                          (2, 3, 0.9)]),
        random_connected(30, "ba", seed=17),
    ])
    def test_on_push_called_once_per_level(self, g):
        # one call after each level that pushed, with that level's estimate
        # complete and nothing on the levels above the next one
        seen = []
        state = approximate_mstp(g, 0, 5, 0.02,
                                 on_push=lambda snapshot: seen.append(mstp_dicts(snapshot)))
        assert state.push_count > 0
        state_q, _ = mstp_dicts(state)
        pushed = [ell for ell in range(5) if state_q[ell]]
        assert len(seen) == len(pushed)
        for ell, (q, r) in zip(pushed, seen):
            assert len(q) == len(r) == 6
            assert q[ell] == state_q[ell]
            assert not any(q[ell + 1:]) and not any(r[ell + 2:])
        assert seen[-1][0] == state_q

    def test_residual_ratios_below_threshold(self):
        g = random_connected(30, "ba", seed=17)
        _, r = mstp_dicts(approximate_mstp(g, 0, 5, 0.02))
        for ell in range(5):  # top level is pure residual, exempt
            for v, rv in r[ell].items():
                assert rv / g.degree(v) <= 0.02

    def test_errors(self, k2):
        with pytest.raises(ValueError):
            approximate_mstp(k2, 0, -1, 0.1)
        with pytest.raises(ValueError):
            approximate_mstp(k2, 0, 2, 0.0)
        g = Graph.from_edges([(0, 1)], n=3)
        with pytest.raises(ValueError, match="isolated"):
            approximate_mstp(g, 2, 2, 0.1)


class TestBidirMstp:
    def test_fully_pushed_state_is_exact_and_deterministic(self, k3):
        # tiny r_max empties every level below ell_max
        ell = 2
        state = approximate_mstp(k3, 0, 4, 1e-9)
        assert all(not r for r in mstp_dicts(state)[1][:3])
        a = bidir_mstp(k3, state, 1, ell, 10, RandomStream(0))
        b = bidir_mstp(k3, state, 1, ell, 10, RandomStream(99))
        assert a == b
        assert a == pytest.approx(exact_mstp(k3, 0, ell)[ell][1], abs=1e-12)

    def test_k2_deterministic_walk_sample(self, k2):
        state = approximate_mstp(k2, 0, 2, 0.5)
        value = bidir_mstp(k2, state, 0, 2, 7, RandomStream(1))
        assert value == pytest.approx(1.0, abs=1e-12)

    def test_k3_against_oracle(self, k3):
        state = approximate_mstp(k3, 0, 2, 0.4)
        value = bidir_mstp(k3, state, 1, 2, 100_000, RandomStream(2))
        assert abs(value - 0.25) < 0.01

    def test_unbiased_on_random_graph(self):
        g = random_connected(15, "er", seed=19)
        ell = 3
        state = approximate_mstp(g, 0, ell, 0.2)
        true = exact_mstp(g, 0, ell)[ell][4]
        values = [bidir_mstp(g, state, 4, ell, 2000, RandomStream(3, i))
                  for i in range(50)]
        se = np.std(values, ddof=1) / math.sqrt(len(values))
        assert abs(np.mean(values) - true) <= 4 * max(se, 1e-12)

    def test_symmetry_in_expectation(self):
        g = random_connected(12, "ba", seed=21)
        s, t, ell = 0, 5, 3
        levels_s = exact_mstp(g, s, ell)[ell]
        levels_t = exact_mstp(g, t, ell)[ell]
        assert abs(levels_s[t] * g.degree(s) - levels_t[s] * g.degree(t)) <= 1e-12
        fwd = bidir_mstp(g, approximate_mstp(g, s, ell, 0.1), t, ell, 50_000,
                         RandomStream(4))
        bwd = bidir_mstp(g, approximate_mstp(g, t, ell, 0.1), s, ell, 50_000,
                         RandomStream(5))
        assert abs(fwd * g.degree(s) - bwd * g.degree(t)) < 0.05

    def test_per_level_sample_boundedness(self):
        g = random_connected(20, "er", seed=22)
        t, ell = 2, 4
        _, r = mstp_dicts(approximate_mstp(g, 0, ell + 1, 0.1))
        d_t = g.degree(t)
        for k in range(ell + 1):  # strictly below the unpushed top level
            for v, rv in r[k].items():
                assert rv * d_t / g.degree(v) <= d_t * 0.1 + 1e-12

    def test_ell_out_of_range(self, k2):
        state = approximate_mstp(k2, 0, 2, 0.5)
        with pytest.raises(ValueError):
            bidir_mstp(k2, state, 0, 3, 10, RandomStream(0))

    @pytest.mark.parametrize("t, message", [(5, "out of range"), (3, "isolated"),
                                            (1.0, "must be an integer")])
    def test_bad_target_leaves_the_slot_array_on_the_graph(self, t, message):
        g = Graph.from_edges([(0, 1), (1, 2), (2, 0)], n=5)  # nodes 3 and 4 isolated
        state = approximate_mstp(g, 0, 4, 1e-2)
        assert_slots_released(g)
        with pytest.raises(ValueError, match=message):
            bidir_mstp(g, state, t, 2, 10, RandomStream(0))
        assert_slots_released(g)


class TestDiffusionWeights:
    def test_pagerank_single_level(self):
        w = pagerank_weights(0.2, 0)
        assert w.alphas.tolist() == [pytest.approx(0.2)]
        assert w.tail == pytest.approx(0.8)

    def test_pagerank_three_levels(self):
        w = pagerank_weights(0.2, 2)
        assert np.allclose(w.alphas, [0.2, 0.16, 0.128])
        assert w.tail == pytest.approx(0.512)
        assert w.alphas.sum() + w.tail == pytest.approx(1.0, abs=1e-15)

    def test_heat_kernel_gamma_one(self):
        w = heat_kernel_weights(1.0, 2)
        e = math.exp(-1.0)
        assert np.allclose(w.alphas, [e, e, e / 2], atol=1e-12)
        assert w.tail == pytest.approx(0.080301, abs=1e-6)

    def test_heat_kernel_degenerate(self):
        w = heat_kernel_weights(1e-12, 1)
        assert w.alphas[0] == pytest.approx(1.0, abs=1e-11)
        assert w.tail <= 1e-11

    @pytest.mark.parametrize("gamma", [1.0, 50.0, 800.0])
    def test_heat_kernel_matches_poisson_pmf(self, gamma):
        # past gamma ~745 exp(-gamma) underflows, so the weights must not be
        # built from it; the head terms below the normal range may round
        ell_max = int(gamma + 10 * math.sqrt(gamma) + 20)
        w = heat_kernel_weights(gamma, ell_max)
        pmf = stats.poisson.pmf(np.arange(ell_max + 1), gamma)
        np.testing.assert_allclose(w.alphas, pmf, rtol=1e-12, atol=1e-300)
        assert w.tail == pytest.approx(stats.poisson.sf(ell_max, gamma), abs=1e-12)

    def test_normalization_random_parameters(self):
        rng = np.random.Generator(np.random.Philox(key=99))
        for _ in range(50):
            alpha = rng.uniform(0.05, 0.95)
            gamma = rng.uniform(0.05, 8.0)
            ell_max = int(rng.integers(0, 40))
            pw = pagerank_weights(alpha, ell_max)
            hw = heat_kernel_weights(gamma, ell_max)
            assert pw.alphas.sum() + pw.tail == pytest.approx(1.0, abs=1e-12)
            assert hw.alphas.sum() + hw.tail == pytest.approx(1.0, abs=1e-12)
            assert (pw.alphas >= 0).all() and (hw.alphas >= 0).all()
            assert pw.tail >= 0 and hw.tail >= 0


class TestChooseEllMax:
    def test_pagerank_exact_tail(self):
        assert choose_ell_max("pagerank", 0.512, alpha=0.2) == 2

    def test_pagerank_trivial_tolerance(self):
        assert choose_ell_max("pagerank", 1.0, alpha=0.2) == 0

    def test_pagerank_levels_capped(self):
        # alpha 1e-9 would take 13,815,510,551 levels, whose weights alone
        # are 103 GiB; no walk of that length fits a 2^28-position table
        with pytest.raises(ValueError, match=r"^alpha must be .* trunc_tol=1e-06, got 1e-09$"):
            choose_ell_max("pagerank", 1e-6, alpha=1e-9)
        assert choose_ell_max("pagerank", 1e-6, alpha=1e-4) == 138_148
        # tolerances whose tails end half a level inside and past the cap
        rate = math.log1p(-1e-8)
        assert choose_ell_max("pagerank", math.exp((2**28 - 0.5) * rate), alpha=1e-8) == 2**28 - 1
        with pytest.raises(ValueError, match="^alpha must be "):
            choose_ell_max("pagerank", math.exp((2**28 + 0.5) * rate), alpha=1e-8)
        for weights in (pagerank_weights, heat_kernel_weights):
            with pytest.raises(ValueError, match="ell_max must be .* at most 268435455, got 268435456"):
                weights(0.5, 2**28)

    def test_heat_kernel(self):
        assert choose_ell_max("heat-kernel", 0.081, gamma=1.0) == 2

    def test_tail_actually_below_tolerance(self):
        for tol in [0.3, 1e-2, 1e-4, 1e-6]:
            ell = choose_ell_max("pagerank", tol, alpha=0.2)
            assert pagerank_weights(0.2, ell).tail <= tol + 1e-15
            ell = choose_ell_max("heat-kernel", tol, gamma=2.0)
            assert heat_kernel_weights(2.0, ell).tail <= tol + 1e-15

    @pytest.mark.parametrize("gamma, expected", [
        (0.05, [2, 3, 5, 6]), (0.5, [4, 7, 9, 11]), (1.0, [5, 9, 11, 14]),
        (3.0, [10, 14, 18, 22]), (8.0, [18, 25, 30, 35]), (50.0, [73, 87, 98, 107]),
        (800.0, [889, 938, 975, 1008]),
    ])
    def test_heat_kernel_grid_pinned(self, gamma, expected):
        # 1008 at (800, 1e-12) moves to 1007 if log(i!) is off by a few ulp
        got = [choose_ell_max("heat-kernel", tol, gamma=gamma)
               for tol in (1e-3, 1e-6, 1e-9, 1e-12)]
        assert got == expected

    @pytest.mark.parametrize("gamma, tol, expected, tail", [
        (50.0, 1e-3, 73, "0.00134"), (800.0, 1e-6, 938, "1.08e-06"),
    ])
    def test_heat_kernel_max_levels_boundary_pinned(self, gamma, tol, expected, tail,
                                                    monkeypatch):
        # a cap at the answer still finds it; one level less reports the tail there
        monkeypatch.setattr(mstp, "_MAX_LEVELS", expected)
        assert choose_ell_max("heat-kernel", tol, gamma=gamma) == expected
        monkeypatch.setattr(mstp, "_MAX_LEVELS", expected - 1)
        with pytest.raises(ValueError) as err:
            choose_ell_max("heat-kernel", tol, gamma=gamma)
        assert str(err.value) == (f"heat-kernel tail is still {tail} > trunc_tol={tol} "
                                  f"at max_levels={expected - 1} (gamma={gamma})")

    def test_heat_kernel_large_gamma(self):
        ell = choose_ell_max("heat-kernel", 1e-6, gamma=800.0)
        assert heat_kernel_weights(800.0, ell).tail <= 1e-6
        assert heat_kernel_weights(800.0, ell - 1).tail > 1e-6
        assert stats.poisson.sf(ell, 800.0) <= 1e-6 < stats.poisson.sf(ell - 1, 800.0)

    def test_max_levels_reached_raises(self, monkeypatch):
        with pytest.raises(ValueError, match="max_levels=10000"):
            choose_ell_max("heat-kernel", 1e-6, gamma=20_000.0)
        monkeypatch.setattr(mstp, "_MAX_LEVELS", 20)
        with pytest.raises(ValueError, match="max_levels=20"):
            choose_ell_max("heat-kernel", 1e-6, gamma=50.0)
        monkeypatch.setattr(mstp, "_MAX_LEVELS", 2)
        assert choose_ell_max("heat-kernel", 0.081, gamma=1.0) == 2

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            choose_ell_max("uniform", 0.1, alpha=0.2)


class TestEstimateDiffusion:
    def test_single_length_weights_are_exact(self, k3):
        w = pagerank_weights(0.5, 0)
        w.alphas[0] = 1.0
        w.tail = 0.0
        same = estimate_diffusion(k3, 0, 0, w, 0.5, 10, RandomStream(0))
        other = estimate_diffusion(k3, 0, 1, w, 0.5, 10, RandomStream(0))
        assert same.value == 1.0
        assert other.value == 0.0

    def test_pagerank_family_matches_exact_ppr(self, k2):
        ell_max = choose_ell_max("pagerank", 1e-6, alpha=0.2)
        w = pagerank_weights(0.2, ell_max)
        est = estimate_diffusion(k2, 0, 1, w, 1e-4, 2000, RandomStream(1))
        assert est.trunc_bound <= 1e-6
        assert abs(est.value - 4 / 9) < 0.01

    def test_heat_kernel_k2_closed_form(self, k2):
        w = heat_kernel_weights(1.0, 30)
        est = estimate_diffusion(k2, 0, 1, w, 1e-4, 1000, RandomStream(2))
        assert abs(est.value - math.sinh(1) / math.e) < 0.01

    def test_matches_exact_diffusion_oracle(self):
        g = random_connected(12, "er", seed=23)
        w = heat_kernel_weights(1.5, 12)
        true = exact_diffusion(g, w, 0)[3]
        est = estimate_diffusion(g, 0, 3, w, 0.05, 20_000, RandomStream(6))
        assert abs(est.value - true) < 0.01 + est.trunc_bound

    def test_independent_batches_agree(self, k3):
        w = pagerank_weights(0.2, 8)
        shared = estimate_diffusion(k3, 0, 1, w, 1e-3, 20_000, RandomStream(7),
                                    shared_walks=True)
        indep = estimate_diffusion(k3, 0, 1, w, 1e-3, 20_000, RandomStream(8),
                                   shared_walks=False)
        assert abs(shared.value - indep.value) < 0.01

    def test_independent_levels_match_bidir_mstp(self, monkeypatch):
        g = random_connected(30, "ba", seed=4)
        w = pagerank_weights(0.2, 6)
        est = estimate_diffusion(g, 0, 5, w, 1e-2, 40, RandomStream(12),
                                 shared_walks=False)
        state = approximate_mstp(g, 0, w.ell_max, 1e-2)
        # the seven levels walk in one lockstep run from the one stream; level
        # ell is bidir_mstp's estimate on that run's walks of length ell
        walks = lockstep_positions(g, 5, range(w.ell_max, -1, -1), 40, RandomStream(12))
        got = []
        for ell in range(w.ell_max + 1):
            b = w.ell_max - ell
            block = walks[b * 40:(b + 1) * 40, :ell + 1].T
            monkeypatch.setattr(mstp, "fixed_walk_levels", lambda *a, block=block: block)
            got.append(bidir_mstp(g, state, 5, ell, 40, RandomStream(12)))
        assert est.per_level == got

    @pytest.mark.parametrize("terms", [mstp._TERMS, 50])
    def test_independent_walks_use_each_uniform_once_in_order(self, terms, monkeypatch):
        # at a budget of 50 positions the levels above 0 are split into runs
        monkeypatch.setattr(mstp, "_TERMS", terms)
        g = random_connected(30, "ba", seed=4)
        uniforms = []
        monkeypatch.setattr(walk, "step_many", lambda g, pos, u, live:
                            uniforms.append(u.copy()) or step_many(g, pos, u, live))
        estimate_diffusion(g, 0, 5, pagerank_weights(0.2, 6), 1e-2, 40, RandomStream(12, 3),
                           shared_walks=False)
        got = np.concatenate(uniforms)
        assert got.size == 40 * sum(range(7))  # one per step of 40 walks of each length
        assert got.tobytes() == RandomStream(12, 3).random(got.size).tobytes()

    def test_converges_to_exact_ppr_mean(self, s3):
        ell_max = choose_ell_max("pagerank", 1e-8, alpha=0.2)
        w = pagerank_weights(0.2, ell_max)
        true = float(exact_ppr(s3, 0.2, 1, tol=1e-13)[0])
        values = [estimate_diffusion(s3, 1, 0, w, 0.01, 500,
                                     RandomStream(9, i)).value
                  for i in range(100)]
        se = np.std(values, ddof=1) / math.sqrt(len(values))
        assert abs(np.mean(values) - true) <= max(3 * se, 1e-6) + w.tail


def loop_level_estimate(g, q, rd, runs, t):
    """The per-k loop the combine used before, as reference: each walk adds
    its terms in increasing k, starting from 0.0. ``runs`` holds the walks in
    the runs they were drawn in; the run sums are added from 0.0 and divided
    by the number of walks, so one run gives its mean."""
    ell = runs[0].shape[1] - 1
    d_t = g.degree(t)
    total = 0.0
    for pos in runs:
        x = np.zeros(pos.shape[0])
        for k in range(ell + 1):
            nodes = pos[:, ell - k]
            x += rd[k, nodes] * (d_t / g.degrees[nodes])
        total += x.sum()
    return q[ell].get(t, 0.0) + float(total / sum(pos.shape[0] for pos in runs))


def columns(state, pos):
    """The table column of every walk position: slot + 1 for the state's
    nodes, 0 for any other node."""
    col = {v: c + 1 for c, v in enumerate(state.node.tolist())}
    return np.vectorize(lambda v: col.get(v, 0), otypes=[np.intp])(pos)


def same_bits(a, b):
    return np.float64(a).tobytes() == np.float64(b).tobytes()


def level_table(g, state, t):
    """The terms r[l][v] * d_t / d_v of every level l <= ell_max, one row per
    level, column c+1 for slot c of the state and column 0 for every other
    node, built from the dense residual as reference."""
    R = np.zeros((state.ell_max + 1, state.node.size + 1))
    R[:, 1:] = state.residual_dense(g.n)[:, state.node] * (g.degree(t) / g.degrees[state.node])
    return R


def own_level_by_gather(R, cols):
    """Sums sum_k r[k][pos[j, L-k]] * d_t / d_pos of w walks of length L,
    ``cols[i, j]`` the column of walk j's i-th last position, as reference:
    one gather of R[i, cols[i, j]] from ``level_table`` and a cumsum down
    the rows (``sum`` over the rows of a column is not promised to add them
    in order)."""
    idx = cols + (np.arange(cols.shape[0]) * R.shape[1])[:, None]
    return np.cumsum(R.ravel()[idx], axis=0)[-1]


def own_level_sums_by_gather(g, state, t, levels, w, rng):
    """``_own_level_sums`` as reference: the same runs from the same stream,
    each level's block of a run summed by ``own_level_by_gather``."""
    R = level_table(g, state, t)
    col = np.zeros(g.n, np.intp)
    col[state.node] = np.arange(1, state.node.size + 1)
    sums = np.zeros(levels[0] + 1)
    for run, n in mstp._runs(levels, w):
        table = fixed_walk_levels(g, t, run, n, rng)
        for b, ell in enumerate(run):
            sums[ell] += own_level_by_gather(R, col[table[ell::-1, b * n:(b + 1) * n]]).sum()
    return sums


class TestLevelEstimateMatchesLoop:
    """The residual table's combine returns the reference loop's bits on the
    dense residual at every level: the gather reference at a walk's own
    length, ``bidir_mstp`` and ``estimate_diffusion`` in both modes, whose
    walks are the one stream's per-round reference walks, run by run."""

    def check_levels(self, g, s, t, ell_max, r_max, w, seed):
        state = approximate_mstp(g, s, ell_max, r_max)
        q, _ = mstp_dicts(state)
        rd = state.residual_dense(g.n)
        R = level_table(g, state, t)
        weights = pagerank_weights(0.2, ell_max)
        est = {mode: estimate_diffusion(g, s, t, weights, r_max, w, RandomStream(seed),
                                        shared_walks=mode) for mode in (True, False)}

        def walks(levels):
            """Per level, the walks of that length each run draws from one stream."""
            rng, out = RandomStream(seed), {ell: [] for ell in levels}
            for run, n in mstp._runs(levels, w):
                pos = lockstep_positions(g, t, run, n, rng)
                for b, ell in enumerate(run):
                    out[ell].append(pos[b * n:(b + 1) * n, :ell + 1])
            return out

        shared = walks([ell_max])[ell_max]
        indep = walks(range(ell_max, -1, -1))
        for ell in range(ell_max + 1):
            runs = [pos[:, :ell + 1] for pos in shared]
            want = loop_level_estimate(g, q, rd, runs, t)
            own = sum((own_level_by_gather(R, columns(state, pos[:, ::-1].T)).sum()
                       for pos in runs), 0.0)
            assert same_bits(q[ell].get(t, 0.0) + float(own / w), want)
            assert same_bits(est[True].per_level[ell], want)
            want = loop_level_estimate(g, q, rd, indep[ell], t)
            assert same_bits(est[False].per_level[ell], want)
            want = loop_level_estimate(g, q, rd, walks([ell])[ell], t)
            assert same_bits(bidir_mstp(g, state, t, ell, w, RandomStream(seed)), want)

    @settings(max_examples=150, deadline=None)
    @given(push_graphs(), st.integers(0, 6),
           st.sampled_from([0.3, 0.05, 1e-2, 1e-3]), st.integers(1, 12),
           st.sampled_from([1, 5, 64, mstp._TERMS]), st.data())
    def test_random_small_graphs(self, case, ell_max, r_max, w, terms, data):
        g, walkable = case
        s = data.draw(st.sampled_from(walkable))
        t = data.draw(st.sampled_from(walkable))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(mstp, "_TERMS", terms)  # small budgets split walks and levels
            self.check_levels(g, s, t, ell_max, r_max, w,
                              data.draw(st.integers(0, 2**32)))

    @staticmethod
    def long_walk_graph():
        """A weighted 30-node graph with self-loops."""
        rng = np.random.default_rng(8)
        ends = rng.integers(0, 30, (90, 2)).tolist()  # self-loops included
        edges = [(i, (i + 1) % 30) for i in range(30)] + ends
        return Graph.from_edges([(u, v, w) for (u, v), w in
                                 zip(edges, rng.uniform(0.1, 5.0, len(edges)))])

    @pytest.mark.parametrize("ell_max", [17, 40])
    def test_long_walks(self, ell_max):
        # more than eight terms per walk, where numpy's pairwise sum differs
        # from a sequential one
        self.check_levels(self.long_walk_graph(), 0, 4, ell_max, 1e-3, 64, 11)

    @pytest.mark.parametrize("t", range(6))
    def test_residual_levels_with_gaps(self, t):
        # on a 6-node path the push leaves entries on levels 4, 6 and 8 only,
        # so a walk's sum skips levels between its terms, not only around them
        g = Graph.from_edges([(i, i + 1) for i in range(5)])
        with _Terms(approximate_mstp(g, 0, 8, 0.1), g, t) as terms:
            assert terms.levels == [4, 6, 8]
            assert len(terms.R) == 3  # a row per level that holds an entry
        self.check_levels(g, 0, t, 8, 0.1, 64, 11)

    @pytest.mark.parametrize("ell_max", [17, 40])
    def test_long_walks_small_budget(self, ell_max, monkeypatch):
        # a budget of 100 terms splits the 64 walks of every level above 0
        # into runs of 100 // (ell + 1) walks, each level in runs of its own
        monkeypatch.setattr(mstp, "_TERMS", 100)
        tables = []
        monkeypatch.setattr(mstp, "fixed_walk_levels", lambda *a, _f=fixed_walk_levels:
                            tables.append((list(a[2]), a[3])) or _f(*a))
        monkeypatch.setattr(mstp, "fixed_walk_positions", lambda *a, _f=fixed_walk_positions:
                            tables.append(([a[2]], a[3])) or _f(*a))
        self.check_levels(self.long_walk_graph(), 0, 4, ell_max, 1e-3, 64, 11)
        walked = dict.fromkeys(range(ell_max + 1), 0)
        for levels, n in tables:
            assert (levels[0] + 1) * n * len(levels) <= 100
            for ell in levels:
                walked[ell] += n
        # the shared walks, the independent levels and bidir_mstp at each level
        assert walked == {ell: 64 * (2 + (ell == ell_max)) for ell in range(ell_max + 1)}
        assert all(n < 64 for levels, n in tables if levels[0] > 0)


class TestOwnLevelMatchesGather:
    """The backward pass over each run's table returns the bits of the
    per-block gather (``own_level_sums_by_gather``), through
    ``_own_level_sums``, ``estimate_diffusion``'s independent levels and
    ``bidir_mstp``; ``push_graphs`` draws unit-weight and weighted graphs."""

    @settings(max_examples=150, deadline=None)
    @given(push_graphs(), st.integers(0, 8), st.sampled_from([0.3, 0.05, 1e-2, 1e-3]),
           st.integers(1, 40), st.sampled_from(["pagerank", "heat-kernel"]),
           st.sampled_from([50, 1 << 16]), st.data())
    def test_random_small_graphs(self, case, ell_max, r_max, w, family, terms, data):
        g, walkable = case
        s = data.draw(st.sampled_from(walkable))
        t = data.draw(st.sampled_from(walkable))
        ell = data.draw(st.integers(0, ell_max))
        seed = data.draw(st.integers(0, 2**32))
        weights = (pagerank_weights(0.2, ell_max) if family == "pagerank"
                   else heat_kernel_weights(2.0, ell_max))
        levels = range(ell_max, -1, -1)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(mstp, "_TERMS", terms)  # at 50 positions most levels split
            state = approximate_mstp(g, s, ell_max, r_max)
            q_t = [q.get(t, 0.0) for q in mstp_dicts(state)[0]]
            with _Terms(state, g, t) as terms:
                got = _own_level_sums(terms, levels, w, RandomStream(seed))
            want = own_level_sums_by_gather(g, state, t, levels, w, RandomStream(seed))
            one = own_level_sums_by_gather(g, state, t, [ell], w, RandomStream(seed))
            est = estimate_diffusion(g, s, t, weights, r_max, w, RandomStream(seed),
                                     shared_walks=False)
            value = bidir_mstp(g, state, t, ell, w, RandomStream(seed))
        assert got.tobytes() == want.tobytes()
        per_level = [q + m for q, m in zip(q_t, (want / w).tolist())]
        assert repr(est.per_level) == repr(per_level)
        assert repr(est.value) == repr(float(np.dot(weights.alphas, per_level)))
        assert same_bits(value, q_t[ell] + float(one[ell] / w))

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 70), st.integers(1, 3000),
           st.sampled_from([1, 50, 1000, 1 << 16, mstp._TERMS]))
    def test_runs_bound_tables_and_split_runs(self, ell_max, w, terms):
        # every level is walked w times, in order; a run's table holds at
        # most _TERMS positions (one walk's, if a walk is longer), and a
        # split level runs at most _TERMS // (ell_max + 1) walks at a time
        cap = max(1, terms // (ell_max + 1))
        walked = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(mstp, "_TERMS", terms)
            for run, n in mstp._runs(range(ell_max, -1, -1), w):
                assert (run[0] + 1) * n * len(run) <= max(terms, run[0] + 1)
                if n < w:
                    assert len(run) == 1 and n <= cap
                walked += [ell for ell in run for _ in range(n)]
        assert walked == [ell for ell in range(ell_max, -1, -1) for _ in range(w)]


class TestDiffusionMemory:
    def test_peak_does_not_grow_with_n(self):
        # a 30-node component in a graph of a million nodes: the dense
        # (ell_max+1) x n residual alone would take 62 * 8 MB = 496 MB
        g = Graph.from_edges(list(nx.barabasi_albert_graph(30, 2, seed=3).edges()),
                             n=1_000_000)
        w = pagerank_weights(0.2, choose_ell_max("pagerank", 1e-6, alpha=0.2))
        tracemalloc.start()
        try:
            for shared in (True, False):
                estimate_diffusion(g, 0, 5, w, 1e-4, 250, RandomStream(0),
                                   shared_walks=shared)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64e6

    @pytest.mark.parametrize("shared", [True, False], ids=["shared", "independent"])
    def test_peak_does_not_grow_with_w(self, shared, monkeypatch):
        # at a budget of 2^16 positions, 2^14 walks of each of four levels
        # fill one walk table, and 2^18 walks are walked in 16 such runs
        # (one table of 2^18 walks would take 8 MB of positions alone)
        monkeypatch.setattr(mstp, "_TERMS", 1 << 16)
        g = random_connected(30, "ba", seed=3)
        w = pagerank_weights(0.2, 3)
        peaks = []
        for w_per_level in (1 << 14, 1 << 18):
            tracemalloc.start()
            try:
                estimate_diffusion(g, 0, 5, w, 1e-4, w_per_level, RandomStream(0),
                                   shared_walks=shared)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 1.25 * peaks[0], peaks


    @pytest.mark.parametrize("shared", [True, False], ids=["shared", "independent"])
    def test_peak_does_not_grow_with_empty_levels(self, shared, monkeypatch):
        # one push at ell_max 61 (alpha 0.2) and 1374 (alpha 0.01): it leaves
        # no residual above level 13, so the longer weights add 1313 empty
        # levels, and a table row per level would add 1313 x (support + 1)
        # floats. A budget of 2^15 positions keeps the walk tables, which do
        # grow with ell_max, small next to that
        monkeypatch.setattr(mstp, "_TERMS", 1 << 15)
        g = Graph.from_edges(list(nx.barabasi_albert_graph(3000, 2, seed=3).edges()))
        states = [approximate_mstp(g, 0, ell_max, 1e-4) for ell_max in (61, 1374)]
        assert states[0].node.tobytes() == states[1].node.tobytes()
        assert all(np.diff(st.r_levels.ptr)[14:].sum() == 0 for st in states)
        peaks = []
        for alpha, ell_max in ((0.2, 61), (0.01, 1374)):
            assert choose_ell_max("pagerank", 1e-6, alpha=alpha) == ell_max
            tracemalloc.start()
            try:
                estimate_diffusion(g, 0, 5, pagerank_weights(alpha, ell_max), 1e-4, 1,
                                   RandomStream(0), shared_walks=shared)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        empty_rows = (1374 - 61) * (states[0].node.size + 1) * 8
        assert peaks[1] - peaks[0] < empty_rows / 10, (peaks, empty_rows)

    def test_shared_run_peak_within_three_tables(self):
        # 16,912 walks of 61 steps fill one run, a position table of
        # 62 x 16,912 int64 entries (8.4 MB)
        g = Graph.from_edges([(0, 1), (1, 2), (2, 0)])
        w_per_level = 16_912
        assert 62 * w_per_level <= mstp._TERMS < 62 * (w_per_level + 1)
        tracemalloc.start()
        try:
            estimate_diffusion(g, 0, 1, pagerank_weights(0.2, 61), 1e-3, w_per_level,
                               RandomStream(0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * 62 * w_per_level * 8, peak

    def test_independent_run_peak_within_one_and_a_half_tables(self):
        # 250 walks of each length 61..0 fill one run, a position table of
        # 62 x (250 x 62) int64 entries (7.69 MB); a gather that copied its
        # index to the table's size would pass 1.5 tables
        g = Graph.from_edges([(0, 1), (1, 2), (2, 0)])
        w_per_level = 250
        table = 62 * w_per_level * 62
        assert table <= mstp._TERMS
        tracemalloc.start()
        try:
            estimate_diffusion(g, 0, 1, pagerank_weights(0.2, 61), 1e-3, w_per_level,
                               RandomStream(0), shared_walks=False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * table * 8, peak


def hoeffding_tolerance(weights, d_t, r_max, w, p_fail):
    """Truncation tail plus a Hoeffding bound on the mean of w walk samples.

    A walk's sample sum_l alpha_l * x_l, x_l = sum_{k<=l} r_k[v_{l-k}] * d_t /
    d_{v_{l-k}}, lies in [0, R]: levels below ell_max keep r_k[v]/d_v <= r_max,
    and the top level's one term sits at v_0 = t, where it is r_L[t] <= 1.
    Independent per-level batches sum independent terms of the same ranges,
    so the same bound covers them.
    """
    a = np.asarray(weights.alphas)
    big_l = len(a) - 1
    sample_range = (d_t * r_max * float(np.dot(a[:big_l], np.arange(1, big_l + 1)))
                    + a[big_l] * (big_l * d_t * r_max + 1.0))
    return weights.tail + sample_range * math.sqrt(math.log(2.0 / p_fail) / (2.0 * w))


class TestDiffusionContract:
    """estimate_diffusion against the exact oracles on random small graphs,
    both modes, within tail plus Hoeffding at p_fail = 1e-9 per example."""

    @settings(max_examples=100, deadline=None)
    @given(push_graphs(), st.sampled_from(["pagerank", "heat-kernel"]),
           st.sampled_from([0.3, 0.5]), st.sampled_from([0.5, 3.0]),
           st.sampled_from([0.3, 0.05, 1e-2]), st.sampled_from([4000, 16000]),
           st.booleans(), st.data())
    def test_within_tolerance_of_exact(self, case, family, alpha, gamma, r_max, w,
                                       shared, data):
        g, walkable = case
        s = data.draw(st.sampled_from(walkable))
        t = data.draw(st.sampled_from(walkable))
        if family == "pagerank":
            weights = pagerank_weights(alpha, choose_ell_max("pagerank", 1e-3, alpha=alpha))
            true = float(exact_ppr(g, alpha, s, tol=1e-14)[t])  # untruncated
        else:
            weights = heat_kernel_weights(
                gamma, choose_ell_max("heat-kernel", 1e-3, gamma=gamma))
            true = float(exact_diffusion(g, weights, s)[t])
        est = estimate_diffusion(g, s, t, weights, r_max, w,
                                 RandomStream(data.draw(st.integers(0, 2**32))),
                                 shared_walks=shared)
        tol = hoeffding_tolerance(weights, g.degree(t), r_max, w, 1e-9)
        assert abs(est.value - true) <= tol + 1e-12


class TestDiffusionMeanContract:
    """The mean of many ``estimate_diffusion`` values against exact_diffusion
    of the same truncated weights, within z sample standard errors, z the
    two-sided normal quantile at p_fail = 1e-9.

    Each value is unbiased for the truncated diffusion, so no tail enters.
    The Hoeffding bound of TestDiffusionContract spans a walk's whole sample
    range; this check scales with the values' own spread, and a walk term
    scaled by 1.3 or 0.7 fails every case (by 11 to 285 standard errors).
    Each value averages w walks per level, so the mean of the trials is
    close to normal."""

    Z = NormalDist().inv_cdf(1.0 - 0.5e-9)

    @pytest.mark.parametrize("kind, seed, weighted, s, t", [
        ("ba", 1, False, 0, 1),
        ("er", 2, True, 3, 17),
        ("er", 3, False, 3, 17),
        ("ba", 4, True, 0, 1),
    ])
    @pytest.mark.parametrize("family", ["pagerank", "heat-kernel"])
    @pytest.mark.parametrize("shared", [True, False], ids=["shared", "independent"])
    def test_mean_near_exact(self, kind, seed, weighted, s, t, family, shared):
        g = random_connected(60, kind, seed)
        if weighted:
            g = reweighted(g, seed)
        if family == "pagerank":
            weights = pagerank_weights(0.3, choose_ell_max("pagerank", 1e-3, alpha=0.3))
        else:
            weights = heat_kernel_weights(3.0, choose_ell_max("heat-kernel", 1e-3, gamma=3.0))
        trials, w, r_max = 200, 200, 0.05
        values = np.array([estimate_diffusion(g, s, t, weights, r_max, w,
                                              RandomStream(seed, (s * g.n + t) * trials + i),
                                              shared_walks=shared).value
                           for i in range(trials)])
        true = float(exact_diffusion(g, weights, s)[t])
        se = values.std(ddof=1) / math.sqrt(trials)
        assert abs(values.mean() - true) <= self.Z * se + 1e-12, (values.mean(), true, se)
