import numpy as np
import pytest

from bippr import (Graph, exact_diffusion, exact_mstp, exact_ppr,
                   exact_ppr_from, exact_ppr_matrix, heat_kernel_weights,
                   pagerank_weights)
from bippr.exact import _walk_step

from conftest import dense_walk_matrix, random_connected


class TestExactPpr:
    def test_k2_closed_form(self, k2):
        # geometric series over even/odd walk lengths: pi[a] = alpha/(1-(1-alpha)^2)
        pi = exact_ppr(k2, 0.2, 0, tol=1e-12)
        assert pi[0] == pytest.approx(5 / 9, abs=1e-9)
        assert pi[1] == pytest.approx(4 / 9, abs=1e-9)

    def test_k3_fixed_point(self, k3):
        pi = exact_ppr(k3, 0.2, 0, tol=1e-12)
        assert pi[0] == pytest.approx(3 / 7, abs=1e-9)
        assert pi[1] == pytest.approx(2 / 7, abs=1e-9)
        assert pi[2] == pytest.approx(2 / 7, abs=1e-9)

    def test_teleport_dominated_limit(self, k3):
        pi = exact_ppr(k3, 1 - 1e-12, 0, tol=1e-9)
        assert np.abs(pi - np.array([1.0, 0.0, 0.0])).max() < 1e-9

    @pytest.mark.parametrize("alpha", [0.0, 1.0, -0.1, 1.5])
    def test_alpha_open_interval(self, k2, alpha):
        with pytest.raises(ValueError):
            exact_ppr(k2, alpha, 0)

    def test_isolated_source_rejected(self):
        g = Graph.from_edges([(0, 1)], n=3)
        with pytest.raises(ValueError, match="isolated"):
            exact_ppr(g, 0.2, 2)

    def test_is_probability_distribution(self):
        g = random_connected(40, "er", seed=3)
        pi = exact_ppr(g, 0.2, 0, tol=1e-12)
        assert (pi >= 0).all()
        assert pi.sum() == pytest.approx(1.0, abs=1e-9)

    def test_matrix_rows_match_single_source(self, s3):
        Pi = exact_ppr_matrix(s3, 0.2, tol=1e-12)
        for s in range(s3.n):
            assert np.abs(Pi[s] - exact_ppr(s3, 0.2, s, tol=1e-12)).max() < 1e-11


class TestReversibilitySymmetry:
    @pytest.mark.parametrize("alpha", [0.1, 0.2, 0.5])
    def test_random_graph_all_pairs(self, alpha):
        g = random_connected(50, "ba", seed=1)
        Pi = exact_ppr_matrix(g, alpha, tol=1e-13)
        scaled = g.degrees[:, None] * Pi
        assert np.abs(scaled - scaled.T).max() <= 1e-9

    def test_star_closed_form(self, s3):
        pi_c = exact_ppr(s3, 0.2, 0, tol=1e-13)
        pi_leaf = exact_ppr(s3, 0.2, 1, tol=1e-13)
        assert 3 * pi_c[1] == pytest.approx(4 / 9, abs=1e-9)
        assert 1 * pi_leaf[0] == pytest.approx(4 / 9, abs=1e-9)


class TestWalkStep:
    # weighted, with a self-loop on 2 and node 5 isolated
    g = Graph.from_edges([(0, 1, 1.5), (1, 2, 0.25), (2, 2, 2.0), (2, 3, 3.0),
                          (3, 0, 0.7), (0, 2, 1.0), (4, 3, 0.5)], n=6)

    @pytest.mark.parametrize("shape", [(6,), (4, 6)], ids=["vector", "stacked"])
    def test_matches_dense_matrix(self, shape):
        x = np.random.default_rng(3).random(shape)
        got = _walk_step(self.g, shape)(x)
        assert got.shape == shape
        np.testing.assert_allclose(got, x @ dense_walk_matrix(self.g), rtol=1e-13, atol=0)
        assert np.all(got[..., 5] == 0.0)


class TestExactMstp:
    def test_k2_alternation(self, k2):
        levels = exact_mstp(k2, 0, 2)
        assert np.array_equal(levels[0], [1.0, 0.0])
        assert np.array_equal(levels[1], [0.0, 1.0])
        assert np.array_equal(levels[2], [1.0, 0.0])

    def test_k3_length_two(self, k3):
        # 4 length-2 paths from a: a-b-a, a-b-c, a-c-a, a-c-b
        levels = exact_mstp(k3, 0, 2)
        assert levels[2][0] == pytest.approx(0.5, abs=1e-12)
        assert levels[2][1] == pytest.approx(0.25, abs=1e-12)
        assert levels[2][2] == pytest.approx(0.25, abs=1e-12)

    def test_rows_sum_to_one(self):
        g = random_connected(30, "er", seed=5)
        for p in exact_mstp(g, 0, 6):
            assert p.sum() == pytest.approx(1.0, abs=1e-12)

    def test_mstp_symmetry(self):
        g = random_connected(25, "er", seed=8)
        for ell in range(5):
            rows = np.array([exact_mstp(g, s, ell)[ell] for s in range(g.n)])
            scaled = g.degrees[:, None] * rows
            assert np.abs(scaled - scaled.T).max() <= 1e-12


class TestExactDiffusion:
    def test_pagerank_weights_match_exact_ppr(self, k2):
        ell_max = 130  # geometric tail (0.8)^131 < 1e-12
        w = pagerank_weights(0.2, ell_max)
        assert w.tail < 1e-12
        diff = exact_diffusion(k2, w, 0)
        pi = exact_ppr(k2, 0.2, 0, tol=1e-13)
        assert np.abs(diff - pi).max() < 1e-9

    def test_length_zero_only(self, k3):
        w = pagerank_weights(0.2, 0)
        w.alphas[0] = 1.0  # degenerate single-length weights
        diff = exact_diffusion(k3, w, 1)
        assert np.array_equal(diff, [0.0, 1.0, 0.0])

    def test_heat_kernel_single_term(self, k2):
        w = heat_kernel_weights(1.0, 0)
        diff = exact_diffusion(k2, w, 0)
        assert diff[0] == pytest.approx(np.exp(-1.0), abs=1e-12)
        assert diff[1] == 0.0
