import math
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bippr import (BipprParams, Graph, PreparedSource, approximate_mstp,
                   approximate_pagerank, bidir_mstp, chernoff_c, choose_ell_max,
                   choose_r_max, estimate_diffusion, estimate_ppr,
                   exact_mstp, exact_ppr, exact_ppr_from,
                   exact_ppr_matrix, fixed_walk_positions, geometric_terminals,
                   heat_kernel_weights, mc_estimate, mc_num_walks, num_walks,
                   pagerank_weights, significance_delta,
                   RandomStream)
from bippr.walk import fixed_walk_levels

from conftest import random_connected
from test_push import push_graphs


class TestParameterRules:
    def test_chernoff_c_round_number(self):
        assert chernoff_c(2 / math.e**3) == pytest.approx(9.0, abs=1e-12)

    def test_chernoff_c_arithmetic(self):
        assert chernoff_c(0.001) == pytest.approx(3 * math.log(2000), abs=1e-12)
        assert chernoff_c(0.001) == pytest.approx(22.802707, abs=1e-6)

    @pytest.mark.parametrize("p_fail", [0.0, 1.0, 2.0, -0.5])
    def test_chernoff_c_domain(self, p_fail):
        with pytest.raises(ValueError):
            chernoff_c(p_fail)

    def test_choose_r_max_balancing(self):
        r = choose_r_max(eps=0.1, delta=1e-4, d_t=10, p_fail=0.001)
        assert r == pytest.approx(0.1 * math.sqrt(1e-5) / math.sqrt(math.log(1000)),
                                  rel=1e-12)
        assert r == pytest.approx(1.2032e-4, rel=1e-4)

    def test_choose_r_max_clamped_to_one(self):
        assert choose_r_max(eps=1.0, delta=5.0, d_t=5.0, p_fail=1 / math.e) == 1.0

    def test_choose_r_max_domain(self):
        with pytest.raises(ValueError):
            choose_r_max(0.1, 0.0, 10, 0.01)
        with pytest.raises(ValueError):
            choose_r_max(0.1, 1e-4, 10, 1.0)

    def test_num_walks_arithmetic(self):
        c = chernoff_c(0.001)
        r = choose_r_max(0.1, 1e-4, 10, 0.001)
        w = num_walks(c, 10, r, 0.1, 1e-4)
        assert w == math.ceil(c * 10 * r / (0.1**2 * 1e-4))
        assert w == 27436

    def test_num_walks_floor(self):
        assert num_walks(1, 1, 1, 1, 1) == 1
        assert num_walks(1e-9, 1, 1e-6, 1, 1e9) == 1

    def test_num_walks_domain(self):
        with pytest.raises(ValueError):
            num_walks(1, 1, 0, 1, 1)

    @pytest.mark.parametrize("c, eps, delta", [(9.0, 0.1, 1e-320), (9.0, 1e-200, 0.1),
                                               (1e300, 1.0, 1e-10)])
    def test_num_walks_infinite_count_rejected(self, c, eps, delta):
        # the count overflows, eps^2*delta underflows to 0, or c*d_t*r_max overflows
        with pytest.raises(ValueError, match="delta must be large enough"):
            num_walks(c, 2.0, 1.0, eps, delta)
        with pytest.raises(ValueError, match="delta must be large enough"):
            BipprParams.derive(0.2, delta, min(eps, 1.0), 0.01, d_t=2.0, r_max=1.0)

    def test_num_walks_capped_at_2_to_28(self):
        # c*d_t*r_max/(eps^2*delta) = c: 2^28 is the largest count allowed
        assert num_walks(2.0 ** 28, 1.0, 1.0, 1.0, 1.0) == 2 ** 28
        with pytest.raises(ValueError, match="delta must be large enough for at most 2"):
            num_walks(2.0 ** 28 + 1, 1.0, 1.0, 1.0, 1.0)

    def test_walks_per_call_capped_before_any_allocation(self):
        cap = 2 ** 28
        assert BipprParams.derive(0.2, 0.1, 0.1, 0.01, d_t=1.0, w=cap).w == cap
        for name, call in [
            ("w", lambda: BipprParams.derive(0.2, 0.1, 0.1, 0.01, d_t=1.0, w=cap + 1)),
            ("w", lambda: PreparedSource(K3, 0.2, 0, 1e-3).estimate(1, cap + 1, RandomStream(0))),
            # w * trials walks go to one sampler call
            ("trials", lambda: PreparedSource(K3, 0.2, 0, 1e-3).estimate_many(
                1, 1000, RandomStream(0), cap // 1000 + 1)),
            ("num_walks", lambda: mc_estimate(K3, 0, 1, 0.2, cap + 1, RandomStream(0))),
            ("num", lambda: geometric_terminals(K3, 0, 0.2, cap + 1, RandomStream(0), _value)),
            ("trials", lambda: geometric_terminals(K3, 0, 0.2, 1000, RandomStream(0), _value,
                                                   cap // 1000 + 1)),
            # a fixed-length walk table holds (ell+1)*w positions
            ("w", lambda: bidir_mstp(K3, MSTP, 1, 2, cap // 3 + 1, RandomStream(0))),
            ("w_per_level", lambda: estimate_diffusion(K3, 0, 1, pagerank_weights(0.2, 3),
                                                       1e-3, cap // 4 + 1, RandomStream(0))),
            ("num", lambda: fixed_walk_positions(K3, 0, 2, cap // 3 + 1, RandomStream(0))),
            ("ell", lambda: fixed_walk_positions(K3, 0, 2**40, 1, RandomStream(0))),
            # one push round or one vector per level: capped as the weight builders cap it
            ("ell_max", lambda: approximate_mstp(K3, 0, 2**62, 1e-3)),
            ("ell_max", lambda: approximate_mstp(K3, 0, cap, 1e-3)),
            ("ell_max", lambda: exact_mstp(K3, 0, 2**62)),
            ("ell_max", lambda: exact_mstp(K3, 0, cap)),
        ]:
            with pytest.raises(ValueError,
                               match=f"{name} must be a (nonnegative|positive) integer at most "):
                call()

    @pytest.mark.parametrize("ell_max", [2**28, 2**62])
    @pytest.mark.parametrize("call", [
        pytest.param(lambda v: approximate_mstp(K3, 0, v, 1e-3), id="approximate_mstp"),
        pytest.param(lambda v: exact_mstp(K3, 0, v), id="exact_mstp"),
        pytest.param(lambda v: pagerank_weights(0.2, v), id="pagerank_weights"),
        pytest.param(lambda v: heat_kernel_weights(1.0, v), id="heat_kernel_weights"),
    ])
    def test_ell_max_capped_alike_by_every_level_builder(self, call, ell_max):
        # one push round, oracle vector or weight per level: all share one cap
        with pytest.raises(ValueError) as err:
            call(ell_max)
        assert str(err.value) == (f"ell_max must be a nonnegative integer at most "
                                  f"{2**28 - 1}, got {ell_max}")

    @pytest.mark.parametrize("w", [2.7, 2.0, True, False, 0, -3, np.float64(3.0), "3"])
    def test_walk_count_must_be_a_positive_integer(self, w):
        # 2.7 became 2 and True became 1
        with pytest.raises(ValueError, match="w must be a positive integer"):
            BipprParams.derive(0.2, 0.1, 0.1, 0.01, d_t=1.0, w=w)

    @pytest.mark.parametrize("w", [3, np.int64(3), np.int32(3), np.uint16(3)])
    def test_integer_walk_counts_accepted(self, w):
        params = BipprParams.derive(0.2, 0.1, 0.1, 0.01, d_t=1.0, w=w)
        assert params.w == 3 and type(params.w) is int

    @pytest.mark.parametrize("alpha", [0.0, 1.0, -0.5, float("nan"), float("inf"), True])
    def test_alpha_rejected_alike_everywhere(self, k2, alpha):
        calls = [
            lambda: BipprParams.derive(alpha, 0.1, 0.1, 0.01, d_t=1.0),
            lambda: approximate_pagerank(k2, alpha, 0, 0.1),
            lambda: pagerank_weights(alpha, 3),
            lambda: exact_ppr(k2, alpha, 0),
            lambda: choose_ell_max("pagerank", 1e-6, alpha=alpha),
        ]
        for call in calls:
            with pytest.raises(ValueError) as err:
                call()
            assert str(err.value) == f"alpha must be in (0, 1), got {alpha}"


# Bad values per kind of parameter: every one must raise ValueError naming it.
FRACTION = [True, 2.5, math.nan, math.inf, 0, -1]  # (0, 1) and (0, 1] alike
POSITIVE = [True, math.nan, math.inf, 0, -1]
COUNT = [True, 2.5, math.nan, math.inf, 0, -1]
LENGTH = [True, 2.5, math.nan, math.inf, -1]
K3 = Graph.from_edges([(0, 1), (1, 2), (0, 2)])
MSTP = approximate_mstp(K3, 0, 3, 1e-3)


def _derive(alpha=0.2, delta=0.1, eps=0.1, p_fail=0.01, **kw):
    return BipprParams.derive(alpha, delta, eps, p_fail, d_t=2.0, **kw)


def _value(terminals):
    return terminals


def _levels(ells=(2,), num=3):
    return fixed_walk_levels(K3, 0, list(ells), num, RandomStream(0))


# (entry point, parameter, bad values, call with the parameter set to v)
ARGUMENTS = [
    ("chernoff_c", "p_fail", FRACTION, lambda v: chernoff_c(v)),
    ("choose_r_max", "eps", FRACTION, lambda v: choose_r_max(v, 0.1, 2.0, 0.01)),
    ("choose_r_max", "delta", POSITIVE, lambda v: choose_r_max(0.1, v, 2.0, 0.01)),
    ("choose_r_max", "d_t", POSITIVE, lambda v: choose_r_max(0.1, 0.1, v, 0.01)),
    ("choose_r_max", "p_fail", FRACTION, lambda v: choose_r_max(0.1, 0.1, 2.0, v)),
    ("num_walks", "c", POSITIVE, lambda v: num_walks(v, 2.0, 1e-3, 0.1, 0.1)),
    ("num_walks", "d_t", POSITIVE, lambda v: num_walks(9.0, v, 1e-3, 0.1, 0.1)),
    ("num_walks", "r_max", POSITIVE, lambda v: num_walks(9.0, 2.0, v, 0.1, 0.1)),
    ("num_walks", "eps", POSITIVE, lambda v: num_walks(9.0, 2.0, 1e-3, v, 0.1)),
    ("num_walks", "delta", POSITIVE, lambda v: num_walks(9.0, 2.0, 1e-3, 0.1, v)),
    ("derive", "alpha", FRACTION, lambda v: _derive(alpha=v)),
    # eps, delta and p_fail are checked even when r_max and w are given
    ("derive", "eps", FRACTION, lambda v: _derive(eps=v, r_max=1e-3, w=10)),
    ("derive", "delta", POSITIVE, lambda v: _derive(delta=v, r_max=1e-3, w=10)),
    ("derive", "p_fail", FRACTION, lambda v: _derive(p_fail=v, r_max=1e-3, w=10)),
    ("derive", "r_max", FRACTION, lambda v: _derive(r_max=v)),
    ("derive", "w", COUNT, lambda v: _derive(w=v)),
    ("PreparedSource", "alpha", FRACTION, lambda v: PreparedSource(K3, v, 0, 1e-3)),
    ("PreparedSource", "r_max", POSITIVE, lambda v: PreparedSource(K3, 0.2, 0, v)),
    ("estimate", "w", COUNT, lambda v: PreparedSource(K3, 0.2, 0, 1e-3).estimate(
        1, v, RandomStream(0))),
    ("estimate_many", "w", COUNT, lambda v: PreparedSource(K3, 0.2, 0, 1e-3).estimate_many(
        1, v, RandomStream(0), 3)),
    ("estimate_many", "trials", COUNT, lambda v: PreparedSource(K3, 0.2, 0, 1e-3).estimate_many(
        1, 10, RandomStream(0), v)),
    ("mc_num_walks", "delta", POSITIVE, lambda v: mc_num_walks(v, 0.1, 0.01)),
    ("mc_num_walks", "eps", FRACTION, lambda v: mc_num_walks(0.1, v, 0.01)),
    ("mc_num_walks", "p_fail", FRACTION, lambda v: mc_num_walks(0.1, 0.1, v)),
    ("mc_estimate", "alpha", FRACTION, lambda v: mc_estimate(K3, 0, 1, v, 3, RandomStream(0))),
    ("mc_estimate", "num_walks", COUNT,
     lambda v: mc_estimate(K3, 0, 1, 0.2, v, RandomStream(0))),
    ("geometric_terminals", "alpha", FRACTION,
     lambda v: geometric_terminals(K3, 0, v, 3, RandomStream(0), _value)),
    ("geometric_terminals", "num", COUNT,
     lambda v: geometric_terminals(K3, 0, 0.2, v, RandomStream(0), _value)),
    ("geometric_terminals", "trials", COUNT,
     lambda v: geometric_terminals(K3, 0, 0.2, 3, RandomStream(0), _value, v)),
    ("fixed_walk_positions", "ell", LENGTH,
     lambda v: fixed_walk_positions(K3, 0, v, 3, RandomStream(0))),
    ("fixed_walk_positions", "num", COUNT,
     lambda v: fixed_walk_positions(K3, 0, 2, v, RandomStream(0))),
    ("fixed_walk_levels", "ell", LENGTH, lambda v: _levels(ells=(v,))),
    ("fixed_walk_levels", "num", COUNT, lambda v: _levels(num=v)),
    ("exact_ppr", "alpha", FRACTION, lambda v: exact_ppr(K3, v, 0)),
    ("exact_ppr", "tol", POSITIVE, lambda v: exact_ppr(K3, 0.2, 0, tol=v)),
    ("exact_ppr_from", "alpha", FRACTION, lambda v: exact_ppr_from(K3, v, np.ones(3) / 3)),
    ("exact_ppr_from", "tol", POSITIVE, lambda v: exact_ppr_from(K3, 0.2, np.ones(3) / 3, v)),
    ("exact_ppr_matrix", "alpha", FRACTION, lambda v: exact_ppr_matrix(K3, v)),
    ("exact_ppr_matrix", "tol", POSITIVE, lambda v: exact_ppr_matrix(K3, 0.2, tol=v)),
    ("exact_mstp", "ell_max", LENGTH, lambda v: exact_mstp(K3, 0, v)),
    ("approximate_pagerank", "alpha", FRACTION, lambda v: approximate_pagerank(K3, v, 0, 1e-3)),
    ("approximate_pagerank", "r_max", POSITIVE, lambda v: approximate_pagerank(K3, 0.2, 0, v)),
    ("approximate_mstp", "ell_max", LENGTH, lambda v: approximate_mstp(K3, 0, v, 1e-3)),
    ("approximate_mstp", "r_max", POSITIVE, lambda v: approximate_mstp(K3, 0, 3, v)),
    ("bidir_mstp", "ell", LENGTH, lambda v: bidir_mstp(K3, MSTP, 1, v, 3, RandomStream(0))),
    ("bidir_mstp", "w", COUNT, lambda v: bidir_mstp(K3, MSTP, 1, 2, v, RandomStream(0))),
    ("pagerank_weights", "alpha", FRACTION, lambda v: pagerank_weights(v, 3)),
    ("pagerank_weights", "ell_max", LENGTH, lambda v: pagerank_weights(0.2, v)),
    ("heat_kernel_weights", "gamma", POSITIVE, lambda v: heat_kernel_weights(v, 3)),
    ("heat_kernel_weights", "ell_max", LENGTH, lambda v: heat_kernel_weights(1.0, v)),
    ("choose_ell_max", "trunc_tol", FRACTION,
     lambda v: choose_ell_max("pagerank", v, alpha=0.2)),
    ("choose_ell_max", "alpha", FRACTION, lambda v: choose_ell_max("pagerank", 0.5, alpha=v)),
    ("choose_ell_max", "gamma", POSITIVE, lambda v: choose_ell_max("heat-kernel", 0.5, gamma=v)),
    ("estimate_diffusion", "r_max", POSITIVE,
     lambda v: estimate_diffusion(K3, 0, 1, pagerank_weights(0.2, 3), v, 3, RandomStream(0))),
    ("estimate_diffusion", "w_per_level", COUNT,
     lambda v: estimate_diffusion(K3, 0, 1, pagerank_weights(0.2, 3), 1e-3, v,
                                  RandomStream(0))),
]


class TestArgumentChecks:
    @pytest.mark.parametrize("call, name, bad", [
        pytest.param(call, name, v, id=f"{entry}-{name}-{v}")
        for entry, name, values, call in ARGUMENTS for v in values])
    def test_bad_value_rejected(self, call, name, bad):
        with pytest.raises(ValueError) as err:
            call(bad)
        assert str(err.value).startswith(f"{name} must be "), str(err.value)

    @pytest.mark.parametrize("call", [
        pytest.param(call, id=f"{entry}-{name}")
        for entry, name, values, call in ARGUMENTS if values is COUNT or values is LENGTH])
    def test_numpy_integers_accepted(self, call):
        call(np.int64(2))

    def test_range_ends_still_accepted(self):
        assert _derive(eps=1.0, r_max=1.0, w=1).r_max == 1.0
        assert choose_ell_max("pagerank", 1.0, alpha=0.2) == 0
        assert num_walks(9.0, 2.0, 5.0, 3.0, 0.1) == 100
        assert approximate_pagerank(K3, 0.2, 0, 5.0).push_count == 0
        assert approximate_mstp(K3, 0, 0, 5.0).push_count == 0
        assert exact_ppr(K3, 0.2, 0, tol=2.5).shape == (3,)

    def test_tiny_alpha_refused_when_derived(self):
        # the derived w walks expect w*(1-alpha)/alpha steps: over 2^32 at
        # alpha 1e-12, refused before any push; about 1e8 at alpha 1e-6
        w = _derive().w
        for kw in [{}, {"w": 5000}, {"r_max": 1.0}]:
            with pytest.raises(ValueError, match="^alpha must be large enough"):
                _derive(alpha=1e-12, **kw)
        assert _derive(alpha=1e-6).w == w
        assert _derive(alpha=1 / 17, w=2**28).w == 2**28


class TestSignificanceDelta:
    def test_k2(self, k2):
        assert significance_delta(k2, 0) == 1.0

    def test_star_center(self, s3):
        assert significance_delta(s3, 0) == 1.0

    def test_path(self, path3):
        assert significance_delta(path3, 1) == 1.0
        assert significance_delta(path3, 0) == 0.5

    def test_weighted_uses_total_edge_weight(self):
        g = Graph.from_edges([(0, 1, 3.0), (1, 2, 1.0)])
        assert significance_delta(g, 0) == pytest.approx(3.0 / 4.0)

    def test_repeated_pair_counts_merged_weight(self):
        # the pair (0, 1) merges to weight 2, in d_0 and in the total
        g = Graph.from_edges([(0, 1), (0, 1), (1, 2)])
        assert g.m == 2
        assert significance_delta(g, 0) == pytest.approx(2.0 / 3.0)
        assert significance_delta(g, 2) == pytest.approx(1.0 / 3.0)

    def test_edgeless_graph_rejected(self):
        g = Graph.from_edges([], n=1)
        with pytest.raises(ValueError):
            significance_delta(g, 0)

    def test_bad_target_rejected(self, k2):
        with pytest.raises(ValueError, match=r"^node 2 out of range \[0, 2\)$"):
            significance_delta(k2, 2)
        with pytest.raises(ValueError, match="must be an integer"):
            significance_delta(k2, 0.0)


class TestEstimatePpr:
    def params(self, g, t, alpha=0.2, delta=0.01, eps=0.1, p_fail=0.01, **kw):
        return BipprParams.derive(alpha, delta, eps, p_fail, d_t=g.degree(t), **kw)

    def test_teleport_dominated_limit(self, k2):
        alpha = 1 - 1e-12
        params = self.params(k2, 1, alpha=alpha, r_max=0.5)
        same = estimate_ppr(k2, 0, 0, params, RandomStream(0))
        other = estimate_ppr(k2, 0, 1, params, RandomStream(0))
        assert same.value == pytest.approx(1.0, abs=1e-9)
        assert other.value == pytest.approx(0.0, abs=1e-9)

    def test_k2_relative_error_rarely_exceeded(self, k2):
        params = self.params(k2, 1)
        values = PreparedSource(k2, params.alpha, 0, params.r_max).estimate_many(
            1, params.w, RandomStream(17), trials=1000)
        within = (values >= 4 / 9 * 0.9) & (values <= 4 / 9 * 1.1)
        assert within.mean() >= 0.99

    def test_star_unbiasedness(self, s3):
        params = self.params(s3, 0)
        values = PreparedSource(s3, params.alpha, 1, params.r_max).estimate_many(
            0, params.w, RandomStream(23), trials=1000)
        assert abs(values.mean() - 4 / 9) < 0.005

    def test_unbiased_on_random_graph(self):
        g = random_connected(30, "er", seed=14)
        s, t = 0, 7
        true = float(exact_ppr(g, 0.2, s, tol=1e-13)[t])
        params = self.params(g, t, delta=max(true / 2, 1e-3))
        values = PreparedSource(g, params.alpha, s, params.r_max).estimate_many(
            t, params.w, RandomStream(31), trials=10_000)
        se = values.std(ddof=1) / math.sqrt(len(values))
        assert abs(values.mean() - true) <= 4 * max(se, 1e-12)

    def test_value_is_push_plus_walk_term(self, k3):
        params = self.params(k3, 2)
        est = estimate_ppr(k3, 0, 2, params, RandomStream(3))
        assert est.value == est.push_term + est.walk_term
        assert est.value >= 0

    def test_work_budget(self):
        g = random_connected(100, "ba", seed=5)
        t = 3
        params = self.params(g, t, delta=1e-3)
        est = estimate_ppr(g, 0, t, params, RandomStream(4))
        assert est.push_work <= 1.0 / (params.alpha * params.r_max)
        assert params.w == num_walks(params.c, g.degree(t), params.r_max,
                                     params.eps, params.delta)

    def test_symmetry_consistency(self, s3):
        # pi_s[t]*d_s and pi_t[s]*d_t estimate the same quantity
        s, t = 1, 0
        fw_params, bw_params = self.params(s3, t), self.params(s3, s)
        fw = PreparedSource(s3, fw_params.alpha, s, fw_params.r_max).estimate_many(
            t, fw_params.w, RandomStream(6), 2000)
        bw = PreparedSource(s3, bw_params.alpha, t, bw_params.r_max).estimate_many(
            s, bw_params.w, RandomStream(7), 2000)
        assert abs(fw.mean() * s3.degree(s) - bw.mean() * s3.degree(t)) < 0.01

    def test_degenerate_source_equals_target(self, k3):
        params = self.params(k3, 0)
        est = estimate_ppr(k3, 0, 0, params, RandomStream(8))
        true = float(exact_ppr(k3, 0.2, 0, tol=1e-12)[0])
        assert abs(est.value - true) < 0.05

    def test_two_phase_reuse(self, k3):
        params = self.params(k3, 1)
        prepared = PreparedSource(k3, params.alpha, 0, params.r_max)
        a = prepared.estimate(1, params.w, RandomStream(9, 1))
        b = prepared.estimate(2, params.w, RandomStream(9, 2))
        assert a.push_work == b.push_work
        one_shot = estimate_ppr(k3, 0, 1, params, RandomStream(9, 1))
        assert a.value == one_shot.value

    def test_walk_sample_over_the_push_bound_raises(self, k3):
        # no argument reaches the bound: a residual over r_max*d_v trips it
        prepared = PreparedSource(k3, 0.2, 0, 0.1)
        prepared._residual[:] = 2 * 0.1 * k3.degrees
        with pytest.raises(AssertionError, match=r"^walk sample 0\.4 exceeds d_t\*r_max=0\.2; "
                                                 r"push postcondition violated$"):
            prepared.estimate(1, 10, RandomStream(0))

    def test_isolated_endpoint_rejected(self):
        g = Graph.from_edges([(0, 1)], n=3)
        params = BipprParams.derive(0.2, 0.01, 0.1, 0.01, d_t=1.0)
        with pytest.raises(ValueError, match="isolated"):
            estimate_ppr(g, 2, 0, params, RandomStream(0))
        with pytest.raises(ValueError, match="isolated"):
            estimate_ppr(g, 0, 2, params, RandomStream(0))


class TestEstimatePprContract:
    """estimate_ppr against exact_ppr on random small graphs (self-loops,
    real weights, repeated pairs, isolated nodes).

    The estimate is p[t] plus the mean of w walk samples, each in
    [0, d_t*r_max] by the push postcondition, and it is unbiased, so by
    Hoeffding it is within d_t*r_max*sqrt(ln(2/p_fail)/(2w)) of pi_s(t) with
    probability at least 1 - p_fail; p_fail = 1e-9 per example."""

    @settings(max_examples=150, deadline=None)
    @given(push_graphs(), st.sampled_from([0.1, 0.2, 0.5]),
           st.sampled_from([0.3, 0.05, 1e-2, 1e-3]), st.sampled_from([500, 4000]),
           st.data())
    def test_within_hoeffding_of_exact(self, case, alpha, r_max, w, data):
        g, walkable = case
        s = data.draw(st.sampled_from(walkable))
        t = data.draw(st.sampled_from(walkable))
        params = BipprParams.derive(alpha, 0.1, 0.1, 0.01, d_t=g.degree(t),
                                    r_max=r_max, w=w)
        est = estimate_ppr(g, s, t, params, RandomStream(data.draw(st.integers(0, 2**32))))
        true = float(exact_ppr(g, alpha, s, tol=1e-14)[t])
        sample_range = g.degree(t) * r_max
        assert 0.0 <= est.walk_term <= sample_range * (1 + 1e-9)
        tol = sample_range * math.sqrt(math.log(2.0 / 1e-9) / (2.0 * w))
        assert abs(est.value - true) <= tol + 1e-12


def reweighted(g: Graph, seed: int) -> Graph:
    """g with each edge's weight drawn uniformly from [0.1, 3)."""
    rows = np.repeat(np.arange(g.n), np.diff(g.indptr))
    keep = rows <= g.indices
    w = np.random.default_rng(seed).uniform(0.1, 3.0, int(keep.sum()))
    return Graph.from_edges(zip(rows[keep].tolist(), g.indices[keep].tolist(), w.tolist()),
                            n=g.n)


class TestPprMeanContract:
    """The mean of many ``estimate_many`` trials against exact_ppr, within z
    sample standard errors, z the two-sided normal quantile at p_fail = 1e-9.

    The Hoeffding bound of TestEstimatePprContract spans the whole sample
    range [0, d_t*r_max]; this check scales with the samples' own spread and
    fails in every case on a walk term scaled by 1.3 or 0.7. Each trial
    averages w walks, and the mean of 5000 trials is close to normal."""

    Z = NormalDist().inv_cdf(1.0 - 0.5e-9)

    @pytest.mark.parametrize("kind, seed, weighted, alpha, r_max", [
        ("ba", 1, False, 0.2, 0.05),
        ("er", 2, False, 0.2, 0.005),
        ("ba", 3, True, 0.15, 0.02),
        ("er", 4, True, 0.3, 0.005),
    ])
    @pytest.mark.parametrize("s, t", [(0, 1), (3, 17)])
    def test_trial_mean_near_exact(self, kind, seed, weighted, alpha, r_max, s, t):
        g = random_connected(60, kind, seed)
        if weighted:
            g = reweighted(g, seed)
        trials = 5000
        values = PreparedSource(g, alpha, s, r_max).estimate_many(
            t, 10, RandomStream(seed, s * g.n + t), trials)
        true = float(exact_ppr(g, alpha, s, tol=1e-14)[t])
        se = values.std(ddof=1) / math.sqrt(trials)
        assert abs(values.mean() - true) <= self.Z * se + 1e-12, (values.mean(), true, se)
