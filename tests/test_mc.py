import math
from unittest import mock

import numpy as np
import pytest

from bippr import Graph, RandomStream, chernoff_c, mc_estimate, mc_num_walks


class TestMcEstimate:
    def test_teleport_dominated_self_probability(self, k3):
        est = mc_estimate(k3, 0, 0, 1 - 1e-12, 1000, RandomStream(0))
        assert est.value == pytest.approx(1.0, abs=1e-9)

    def test_k2_matches_exact(self, k2):
        est = mc_estimate(k2, 0, 1, 0.2, 100_000, RandomStream(1))
        assert abs(est.value - 4 / 9) < 0.01

    def test_unreachable_target_is_exactly_zero(self):
        g = Graph.from_edges([(0, 1), (2, 3)])
        est = mc_estimate(g, 0, 2, 0.2, 10_000, RandomStream(2))
        assert est.value == 0.0

    def test_counters_and_shape(self, k2):
        est = mc_estimate(k2, 0, 1, 0.2, 5000, RandomStream(3))
        assert est.push_term == 0.0
        assert est.push_work == 0.0
        assert est.walk_steps > 0
        assert est.value == est.walk_term

    def test_numpy_walk_count_gives_the_same_float(self, k3):
        a = mc_estimate(k3, 0, 1, 0.2, 1000, RandomStream(4))
        b = mc_estimate(k3, 0, 1, 0.2, np.int64(1000), RandomStream(4))
        assert type(b.value) is float
        assert repr(b.value) == repr(a.value)

    def test_zero_walks_rejected(self, k2):
        with pytest.raises(ValueError):
            mc_estimate(k2, 0, 1, 0.2, 0, RandomStream(0))

    @pytest.mark.parametrize("t,message", [(2, r"node 2 out of range \[0, 2\)"),
                                           (-1, "out of range"),
                                           (1.0, "must be an integer")])
    def test_bad_target_rejected_before_walks(self, k2, t, message):
        with mock.patch("bippr.mc.geometric_terminals",
                        side_effect=AssertionError("walks ran")):
            with pytest.raises(ValueError, match=message):
                mc_estimate(k2, 0, t, 0.2, 10, RandomStream(0))


class TestMcNumWalks:
    def test_matches_chernoff_constant(self):
        assert mc_num_walks(0.01, 0.1, 0.01) == math.ceil(
            chernoff_c(0.01) / (0.1**2 * 0.01))

    def test_scales_inversely_with_delta(self):
        a = mc_num_walks(1e-2, 0.1, 0.01)
        b = mc_num_walks(1e-3, 0.1, 0.01)
        assert b == pytest.approx(10 * a, rel=1e-3)

    def test_domain(self):
        with pytest.raises(ValueError):
            mc_num_walks(0.0, 0.1, 0.01)

    @pytest.mark.parametrize("delta, eps", [(1e-310, 0.1), (0.1, 1e-200), (1e-12, 0.1),
                                            (1e-300, 0.1)])
    def test_infinite_count_rejected(self, delta, eps):
        # c/(eps^2*delta) overflows, eps^2*delta underflows to 0, or the count
        # is finite but over 2^28 walks
        with pytest.raises(ValueError, match="delta must be large enough"):
            mc_num_walks(delta, eps, 0.01)
