import numpy as np
import pytest

from bippr import (Graph, approximate_pagerank, exact_ppr_matrix,
                   push_from_distribution)

from conftest import random_connected


def dense(vec, n):
    out = np.zeros(n)
    for v, x in vec.items():
        out[v] = x
    return out


def invariant_gap(g, result, s, Pi):
    """Max per-entry error of pi_s = p + sum_v r[v] * pi_v."""
    recon = dense(result.p, g.n) + dense(result.r, g.n) @ Pi
    return np.abs(recon - Pi[s]).max()


class TestApproximatePagerank:
    def test_k2_single_push(self, k2):
        res = approximate_pagerank(k2, 0.2, 0, 0.9)
        assert res.p == {0: pytest.approx(0.2)}
        assert res.r == {1: pytest.approx(0.8)}
        assert res.push_count == 1
        assert res.degree_work == 1.0

    def test_no_push_when_ratio_already_low(self):
        # center of a 5-leaf star: initial ratio 1/5 <= 0.5
        g = Graph.from_edges([(0, i) for i in range(1, 6)])
        res = approximate_pagerank(g, 0.2, 0, 0.5)
        assert res.p == {}
        assert res.r == {0: 1.0}
        assert res.push_count == 0

    def test_k2_tight_threshold_invariant(self, k2):
        res = approximate_pagerank(k2, 0.2, 0, 0.04)
        assert max(r / k2.degree(v) for v, r in res.r.items()) <= 0.04
        Pi = exact_ppr_matrix(k2, 0.2, tol=1e-14)
        assert invariant_gap(k2, res, 0, Pi) <= 1e-12

    @pytest.mark.parametrize("alpha,r_max", [(0.1, 0.5), (0.1, 0.01), (0.2, 0.1)])
    def test_invariant_after_every_push(self, alpha, r_max):
        g = random_connected(40, "er", seed=2)
        Pi = exact_ppr_matrix(g, alpha, tol=1e-14)
        gaps = []

        def on_push(p, r):
            recon = dense(p, g.n) + dense(r, g.n) @ Pi
            gaps.append(np.abs(recon - Pi[0]).max())

        approximate_pagerank(g, alpha, 0, r_max, on_push=on_push)
        if r_max <= 0.1:
            assert gaps, "expected at least one push"
        if gaps:
            assert max(gaps) <= 1e-10

    @pytest.mark.parametrize("alpha", [0.1, 0.2, 0.5])
    @pytest.mark.parametrize("r_max", [0.5, 0.1, 0.01, 0.001])
    def test_work_bound(self, alpha, r_max):
        g = random_connected(80, "ba", seed=4)
        res = approximate_pagerank(g, alpha, 0, r_max)
        assert res.degree_work <= 1.0 / (alpha * r_max)

    def test_residual_ratios_below_threshold_on_return(self):
        g = random_connected(50, "er", seed=6)
        res = approximate_pagerank(g, 0.2, 0, 0.01)
        for v, rv in res.r.items():
            assert rv / g.degree(v) <= 0.01

    def test_mass_conservation(self):
        g = random_connected(50, "er", seed=6)
        res = approximate_pagerank(g, 0.2, 0, 0.005)
        p1 = sum(res.p.values())
        r1 = sum(res.r.values())
        assert p1 + r1 <= 1.0 + 1e-12
        assert p1 + r1 == pytest.approx(1.0, abs=1e-9)
        assert all(rv >= 0 for rv in res.r.values())

    def test_deterministic(self):
        g = random_connected(50, "ba", seed=9)
        a = approximate_pagerank(g, 0.2, 3, 0.01)
        b = approximate_pagerank(g, 0.2, 3, 0.01)
        assert a.p == b.p
        assert a.r == b.r
        assert a.push_count == b.push_count

    def test_self_loop_push(self):
        g = Graph.from_edges([(0, 0), (0, 1)])
        res = approximate_pagerank(g, 0.2, 0, 0.01)
        Pi = exact_ppr_matrix(g, 0.2, tol=1e-14)
        assert invariant_gap(g, res, 0, Pi) <= 1e-10

    def test_on_push_called_once_per_push(self):
        g = Graph.from_edges([(0, 0, 0.7), (0, 1, 0.3), (1, 2, 1.1), (2, 2, 0.4),
                              (2, 3, 0.9)], weighted=True)
        settled = []

        def on_push(p, r):
            settled.append(dict(p))

        res = approximate_pagerank(g, 0.2, 0, 1e-3, on_push=on_push)
        assert len(settled) == res.push_count
        assert settled[-1] == res.p
        # the self-loop sends node 0 back over the threshold after its own
        # push, so the second push settles at 0 again
        assert settled[0].keys() == settled[1].keys() == {0}

    def test_bad_arguments(self, k2):
        with pytest.raises(ValueError):
            approximate_pagerank(k2, 0.2, 0, 0.0)
        with pytest.raises(ValueError):
            approximate_pagerank(k2, 0.2, 0, -1.0)
        g = Graph.from_edges([(0, 1)], n=3)
        with pytest.raises(ValueError, match="isolated"):
            approximate_pagerank(g, 0.2, 2, 0.1)


class TestPushFromDistribution:
    def test_point_mass_equals_single_source(self, k3):
        a = approximate_pagerank(k3, 0.2, 0, 0.05)
        b = push_from_distribution(k3, 0.2, {0: 1.0}, 0.05)
        assert a.p == b.p
        assert a.r == b.r

    def test_uniform_k2_below_threshold_is_noop(self, k2):
        # initial ratios are 0.5 <= 0.9, so the loop never fires
        res = push_from_distribution(k2, 0.2, {0: 0.5, 1: 0.5}, 0.9)
        assert res.p == {}
        assert res.r == {0: 0.5, 1: 0.5}
        assert res.push_count == 0

    def test_uniform_k2_pushes_when_threshold_low(self, k2):
        res = push_from_distribution(k2, 0.2, {0: 0.5, 1: 0.5}, 0.45)
        assert res.push_count >= 2
        Pi = exact_ppr_matrix(k2, 0.2, tol=1e-14)
        sigma = np.array([0.5, 0.5])
        recon = dense(res.p, 2) + dense(res.r, 2) @ Pi
        assert np.abs(recon - sigma @ Pi).max() <= 1e-12

    def test_uniform_k3_invariant(self, k3):
        # FIFO processing breaks exact per-node uniformity mid-run, but the
        # push invariant against the uniform source distribution always holds
        sigma = {0: 1 / 3, 1: 1 / 3, 2: 1 / 3}
        res = push_from_distribution(k3, 0.2, sigma, 0.1)
        assert res.push_count > 0
        for v, rv in res.r.items():
            assert rv / k3.degree(v) <= 0.1
        Pi = exact_ppr_matrix(k3, 0.2, tol=1e-14)
        recon = dense(res.p, 3) + dense(res.r, 3) @ Pi
        assert np.abs(recon - np.full(3, 1 / 3) @ Pi).max() <= 1e-12

    def test_invalid_sigma(self, k2):
        with pytest.raises(ValueError):
            push_from_distribution(k2, 0.2, {0: 0.7, 1: 0.7}, 0.1)
        with pytest.raises(ValueError):
            push_from_distribution(k2, 0.2, {0: 1.5, 1: -0.5}, 0.1)
        g = Graph.from_edges([(0, 1)], n=3)
        with pytest.raises(ValueError, match="isolated"):
            push_from_distribution(g, 0.2, {2: 1.0}, 0.1)

    def test_uniform_sigma_over_many_nodes_accepted(self):
        # a left-to-right float sum of 1e5 copies of 1e-5 is off by ~2e-12
        n = 100_000
        g = Graph.from_edges([(i, (i + 1) % n) for i in range(n)], n=n)
        sigma = dict.fromkeys(range(n), 1.0 / n)
        res = push_from_distribution(g, 0.2, sigma, 1e-5)
        assert res.push_count == 0
        assert len(res.r) == n

    def test_sigma_off_by_1e_9_rejected(self, k2):
        with pytest.raises(ValueError, match="sum to 1"):
            push_from_distribution(k2, 0.2, {0: 0.5, 1: 0.5 + 1e-9}, 0.1)
