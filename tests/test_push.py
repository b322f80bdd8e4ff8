import math
from collections import deque
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bippr.push
from bippr import (Graph, approximate_mstp, approximate_pagerank, exact_ppr_matrix,
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

    @pytest.mark.parametrize("sigma", [
        {0: math.nan},
        {0: 1.0, 2: math.nan},
        {0: math.inf},
        {0: 1.0, 1: -math.inf},
        {0: np.float64("nan")},
    ])
    def test_non_finite_mass_rejected(self, k3, sigma):
        # nan passes both `mass < 0` and `abs(fsum - 1) > tol`
        with pytest.raises(ValueError, match="finite"):
            push_from_distribution(k3, 0.2, sigma, 0.1)

    @pytest.mark.parametrize("call", [
        lambda g: approximate_pagerank(g, 0.2, 1.0, 0.1),
        lambda g: approximate_pagerank(g, 0.2, True, 0.1),
        lambda g: push_from_distribution(g, 0.2, {1.0: 1.0}, 0.1),
        lambda g: push_from_distribution(g, 0.2, {True: 1.0}, 0.1),
        lambda g: push_from_distribution(g, 0.2, {0: 0.5, np.float64(2): 0.5}, 0.1),
        lambda g: approximate_mstp(g, 1.0, 2, 0.1),
    ])
    def test_non_integer_node_rejected(self, path3, call):
        with pytest.raises(ValueError, match="node id must be an integer"):
            call(path3)


def reference_push(g, r, out, est, settle, keep, r_max):
    """The numpy-scalar push kernel that preceded the memoryview one, kept
    verbatim as the reference for push order and arithmetic."""
    degrees = g.degrees
    indptr, indices, weights = g.indptr, g.indices, g.weights
    requeue = out is r
    queue = deque(v for v, rv in r.items() if rv / degrees[v] > r_max)
    queued = set(queue)
    while queue:
        u = queue.popleft()
        queued.discard(u)
        # residual is read once and zeroed before spreading, so a self-loop
        # routes its share back into r[u] like any other neighbor
        ru = r.pop(u)
        du = degrees[u]
        est[u] = est.get(u, 0.0) + settle * ru
        spread = keep * ru / du
        for k in range(indptr[u], indptr[u + 1]):
            v = int(indices[k])
            x = out.get(v, 0.0) + spread * weights[k]
            out[v] = x
            if requeue and v not in queued and x / degrees[v] > r_max:
                queue.append(v)
                queued.add(v)
        yield du


def with_reference_kernel(fn, *args):
    """Run ``fn(*args, on_push=...)`` once with the library kernel and once
    with ``reference_push``; return both results and on_push call counts."""
    runs = []
    for kernel in (bippr.push._push, reference_push):
        calls = []
        with mock.patch("bippr.push._push", kernel), mock.patch("bippr.mstp._push", kernel):
            res = fn(*args, on_push=lambda *_: calls.append(1))
        runs.append((res, len(calls)))
    return runs


def ordered(vec):
    """A push vector as (key, repr) pairs in insertion order."""
    return [(k, repr(float(x))) for k, x in vec.items()]


def assert_python_floats(*vecs):
    for vec in vecs:
        assert all(type(x) is float for x in vec.values())


# Non-dyadic weights put rounding into every spread; the float draws add
# arbitrary mantissas.
WEIGHTS = st.one_of(st.sampled_from([1.0, 0.1, 0.3, 2.5, 1e-3, 7.0]),
                    st.floats(min_value=1e-3, max_value=1e3))


@st.composite
def push_graphs(draw):
    """A small graph with self-loops, repeated pairs and isolated nodes, plus
    its walkable nodes (at least one)."""
    ids = draw(st.integers(1, 8))
    node = st.integers(0, ids - 1)
    weighted = draw(st.booleans())
    edge = st.tuples(node, node, WEIGHTS) if weighted else st.tuples(node, node)
    edges = draw(st.lists(edge, min_size=1, max_size=30))
    g = Graph.from_edges(edges, n=ids + draw(st.integers(0, 2)), weighted=weighted)
    walkable = [v for v in range(g.n) if not g.is_isolated(v)]
    return g, walkable


R_MAX = st.sampled_from([0.3, 0.05, 1e-2, 3e-3, 1e-3, 1e-4])
ALPHA = st.sampled_from([0.05, 0.15, 0.2, 0.5, 0.85])


class TestKernelMatchesReference:
    """Push states, counts and on_push calls equal the reference kernel's
    exactly: same dicts in the same insertion order, same float bits."""

    @settings(max_examples=200, deadline=None)
    @given(push_graphs(), ALPHA, R_MAX, st.data())
    def test_approximate_pagerank(self, case, alpha, r_max, data):
        g, walkable = case
        s = data.draw(st.sampled_from(walkable))
        (new, n_new), (ref, n_ref) = with_reference_kernel(
            approximate_pagerank, g, alpha, s, r_max)
        assert ordered(new.p) == ordered(ref.p)
        assert ordered(new.r) == ordered(ref.r)
        assert new.push_count == ref.push_count == n_new == n_ref
        assert repr(new.degree_work) == repr(float(ref.degree_work))
        assert type(new.degree_work) is float
        assert_python_floats(new.p, new.r)

    @settings(max_examples=200, deadline=None)
    @given(push_graphs(), ALPHA, R_MAX, st.data())
    def test_push_from_distribution(self, case, alpha, r_max, data):
        g, walkable = case
        nodes = data.draw(st.lists(st.sampled_from(walkable), min_size=1,
                                   unique=True))
        masses = data.draw(st.lists(st.floats(1e-3, 1.0), min_size=len(nodes),
                                    max_size=len(nodes)))
        total = math.fsum(masses)
        sigma = {v: m / total for v, m in zip(nodes, masses)}
        (new, n_new), (ref, n_ref) = with_reference_kernel(
            push_from_distribution, g, alpha, sigma, r_max)
        assert ordered(new.p) == ordered(ref.p)
        assert ordered(new.r) == ordered(ref.r)
        assert new.push_count == ref.push_count == n_new == n_ref
        assert repr(new.degree_work) == repr(float(ref.degree_work))
        assert_python_floats(new.p, new.r)
        # numpy keys and masses give the same push
        np_sigma = {np.int64(v): np.float64(m) for v, m in sigma.items()}
        same = push_from_distribution(g, alpha, np_sigma, r_max)
        assert ordered(same.p) == ordered(new.p)
        assert ordered(same.r) == ordered(new.r)
        assert repr(same.degree_work) == repr(new.degree_work)
        assert_python_floats(same.p, same.r)

    @settings(max_examples=200, deadline=None)
    @given(push_graphs(), st.integers(0, 6), R_MAX, st.data())
    def test_approximate_mstp(self, case, ell_max, r_max, data):
        g, walkable = case
        s = data.draw(st.sampled_from(walkable))
        (new, n_new), (ref, n_ref) = with_reference_kernel(
            approximate_mstp, g, s, ell_max, r_max)
        assert [ordered(q) for q in new.q] == [ordered(q) for q in ref.q]
        assert [ordered(r) for r in new.r] == [ordered(r) for r in ref.r]
        assert new.push_count == ref.push_count == n_new == n_ref
        assert repr(new.degree_work) == repr(float(ref.degree_work))
        assert type(new.degree_work) is float
        assert_python_floats(*new.q, *new.r)

    @settings(max_examples=200, deadline=None)
    @given(push_graphs(), ALPHA, R_MAX, st.data())
    def test_threshold_on_a_reached_ratio(self, case, alpha, r_max, data):
        # r_max equal to, or one ulp below, a ratio r[v]/d_v that a push
        # reaches puts the threshold test on its rounding boundary
        g, walkable = case
        s = data.draw(st.sampled_from(walkable))
        first = approximate_pagerank(g, alpha, s, r_max)
        ratios = sorted({x / g.degree(v) for v, x in first.r.items()})
        r_max = data.draw(st.sampled_from(ratios))
        if data.draw(st.booleans()):
            r_max = math.nextafter(r_max, 0.0)
        (new, _), (ref, _) = with_reference_kernel(approximate_pagerank, g, alpha,
                                                   s, r_max)
        assert ordered(new.p) == ordered(ref.p)
        assert ordered(new.r) == ordered(ref.r)
        assert new.push_count == ref.push_count

    def test_requeue_threshold_is_the_rounded_ratio(self):
        # push 0 -> 1 leaves x = 0.8 at node 1; with r_max = x/d_1 the ratio
        # is not above r_max, although x > r_max*d_1 after rounding
        for k in range(1, 200):
            g = Graph.from_edges([(0, 1, 1.0), (1, 2, k / 10)], weighted=True)
            x, d = 0.8, g.degree(1)
            if x > (x / d) * d:
                break
        else:
            pytest.fail("no weight puts the ratio on a rounding boundary")
        (new, _), (ref, _) = with_reference_kernel(approximate_pagerank, g, 0.2,
                                                   0, x / d)
        assert ref.push_count == 1
        assert new.push_count == 1
        assert ordered(new.r) == ordered(ref.r)

    def test_numpy_int_source(self):
        g = random_connected(30, "ba", seed=3)
        a = approximate_pagerank(g, 0.2, np.int64(4), 1e-3)
        b = approximate_pagerank(g, 0.2, 4, 1e-3)
        assert ordered(a.p) == ordered(b.p)
        assert ordered(a.r) == ordered(b.r)
        m = approximate_mstp(g, np.int64(4), 5, 1e-3)
        assert [ordered(q) for q in m.q] == [ordered(q) for q in
                                            approximate_mstp(g, 4, 5, 1e-3).q]


def loop_dense(vec, out):
    """The per-entry fill that residual_dense used before, as reference."""
    for v, x in vec.items():
        out[v] = x
    return out


class TestResidualDense:
    @settings(max_examples=100, deadline=None)
    @given(push_graphs(), ALPHA, R_MAX, st.integers(0, 5), st.data())
    def test_matches_loop_fill(self, case, alpha, r_max, ell_max, data):
        g, walkable = case
        s = data.draw(st.sampled_from(walkable))
        res = approximate_pagerank(g, alpha, s, r_max)
        want = loop_dense(res.r, np.zeros(g.n))
        assert res.residual_dense(g.n).tobytes() == want.tobytes()
        state = approximate_mstp(g, s, ell_max, r_max)
        want = np.zeros((ell_max + 1, g.n))
        for level, rv in enumerate(state.r):
            loop_dense(rv, want[level])
        got = state.residual_dense(g.n)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()
