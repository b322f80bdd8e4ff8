import math
import sys
import threading
import tracemalloc
from collections import deque

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bippr import (Graph, PushResult, RandomStream, approximate_mstp,
                   approximate_pagerank, estimate_diffusion, exact_ppr_matrix,
                   pagerank_weights)

from conftest import mstp_dicts, random_connected


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

        def on_push(state):
            recon = dense(state.p, g.n) + dense(state.r, g.n) @ Pi
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

    def test_on_push_called_once_per_round(self):
        g = Graph.from_edges([(0, 0, 0.7), (0, 1, 0.3), (1, 2, 1.1), (2, 2, 0.4),
                              (2, 3, 0.9)])
        settled = []

        def on_push(state):
            settled.append(state.p)

        res = approximate_pagerank(g, 0.2, 0, 1e-3, on_push=on_push)
        assert 0 < len(settled) < res.push_count
        assert settled[-1] == res.p
        # the first round pushes the source alone; its self-loop sends it back
        # over the threshold, so the second round settles at 0 again
        assert settled[0].keys() == {0}
        assert settled[1][0] > settled[0][0]

    def test_bad_arguments(self, k2):
        with pytest.raises(ValueError):
            approximate_pagerank(k2, 0.2, 0, 0.0)
        with pytest.raises(ValueError):
            approximate_pagerank(k2, 0.2, 0, -1.0)
        g = Graph.from_edges([(0, 1)], n=3)
        with pytest.raises(ValueError, match="isolated"):
            approximate_pagerank(g, 0.2, 2, 0.1)

    @pytest.mark.parametrize("call", [
        lambda g: approximate_pagerank(g, 0.2, 1.0, 0.1),
        lambda g: approximate_pagerank(g, 0.2, True, 0.1),
        lambda g: approximate_mstp(g, 1.0, 2, 0.1),
        lambda g: approximate_pagerank(g, 0.2, np.float64(1), 0.1),
        lambda g: approximate_mstp(g, True, 2, 0.1),
    ])
    def test_non_integer_node_rejected(self, path3, call):
        with pytest.raises(ValueError, match="node id must be an integer"):
            call(path3)

    @pytest.mark.parametrize("s", [0, 3, 17])
    def test_numpy_source_gives_the_same_push(self, s):
        g = random_connected(40, "ba", seed=5)
        a = approximate_pagerank(g, 0.2, s, 1e-3)
        b = approximate_pagerank(g, 0.2, np.int64(s), 1e-3)
        assert list(a.p.items()) == list(b.p.items())
        assert list(a.r.items()) == list(b.r.items())
        assert repr(a.degree_work) == repr(b.degree_work)
        assert all(type(v) is int for v in [*b.p, *b.r])


def fifo_push(g: Graph, r: dict[int, float], out: dict[int, float],
              est: dict[int, float], settle: float, keep: float, r_max: float):
    """The push loop shared by PPR and every MSTP level; yields d_u per push.

    Pops, in FIFO order, every node of ``r`` whose ratio r[v]/d_v exceeds
    r_max: adds settle*r_u to est[u] and spreads keep*r_u/d_u*w over u's
    edges into ``out``. Only when ``out is r`` can a spread push a node over
    the threshold again, so only then are neighbours queued. A queued node's
    residual only grows until it is popped, so every pop is a valid push.
    Callers count pushes and sum d_u in push order, across calls, so the
    floating-point ``degree_work`` does not depend on how levels split it.

    The CSR arrays are read through memoryviews, which index to Python
    ``int``/``float`` without copying, so no numpy scalar is made per edge;
    the arithmetic is the same IEEE double operations in the same order.
    """
    degrees = memoryview(g.degrees)
    indptr = memoryview(g.indptr)
    indices = memoryview(g.indices)
    weights = memoryview(g.weights)
    pop_r, get_est, get_out = r.pop, est.get, out.get
    todo = [v for v, rv in r.items() if rv / degrees[v] > r_max]
    if out is not r:
        # nothing spread here can lift a node of r over the threshold
        for u in todo:
            ru = pop_r(u)
            du = degrees[u]
            est[u] = get_est(u, 0.0) + settle * ru
            spread = keep * ru / du
            a, b = indptr[u], indptr[u + 1]
            for v, w in zip(indices[a:b], weights[a:b]):
                out[v] = get_out(v, 0.0) + spread * w
            yield du
        return
    queue = deque(todo)
    queued = set(todo)
    popleft, append = queue.popleft, queue.append
    add, discard = queued.add, queued.discard
    while queue:
        u = popleft()
        discard(u)
        # residual is read once and zeroed before spreading, so a self-loop
        # routes its share back into r[u] like any other neighbor
        ru = pop_r(u)
        du = degrees[u]
        est[u] = get_est(u, 0.0) + settle * ru
        spread = keep * ru / du
        a, b = indptr[u], indptr[u + 1]
        for v, w in zip(indices[a:b], weights[a:b]):
            x = get_out(v, 0.0) + spread * w
            out[v] = x
            if v not in queued and x / degrees[v] > r_max:
                append(v)
                add(v)
        yield du


def fifo_pagerank(g, alpha, sigma, r_max):
    """The push from ``sigma`` run on ``fifo_push``, the reference:
    (p, r, push_count, degree_work)."""
    p = {}
    r = {v: float(m) for v, m in sigma.items() if m > 0}
    push_count, degree_work = 0, 0.0
    for du in fifo_push(g, r, r, p, alpha, 1.0 - alpha, r_max):
        push_count += 1
        degree_work += du
    return p, r, push_count, degree_work


def fifo_mstp(g, s, ell_max, r_max):
    """``approximate_mstp`` as it ran on ``fifo_push``, the reference:
    (q, r, pushes per level, degree_work)."""
    q = [{} for _ in range(ell_max + 1)]
    r = [{} for _ in range(ell_max + 1)]
    r[0][s] = 1.0
    pushes = [0] * (ell_max + 1)
    degree_work = 0.0
    for i in range(ell_max):
        for du in fifo_push(g, r[i], r[i + 1], q[i], 1.0, 1.0, r_max):
            pushes[i] += 1
            degree_work += du
    return q, r, pushes, degree_work


def ordered(vec):
    """A push vector as (key, repr) pairs in insertion order."""
    return [(k, repr(float(x))) for k, x in vec.items()]


def assert_python_floats(*vecs):
    for vec in vecs:
        assert all(type(x) is float for x in vec.values())


def assert_slots_released(g):
    """The graph's slot array is back on the graph, every entry -1."""
    assert len(g._slots) == 1
    assert g._slots[0].shape == (g.n,)
    assert (g._slots[0] == -1).all()


def compact_arrays(state):
    """The dtype and bytes of each compact array of a push state: ``node``
    with ``p_val`` and ``r_val`` (PPR), or with the level tables (MSTP)."""
    if isinstance(state, PushResult):
        arrays = [state.node, state.p_val, state.r_val]
    else:
        q, r = state.q_levels, state.r_levels
        arrays = [state.node, q.ptr, q.slot, q.val, r.ptr, r.slot, r.val]
    return [(a.dtype, a.tobytes()) for a in arrays]


def assert_ppr_near_reference(g, new, ref, alpha, r_max):
    """Both states satisfy pi_sigma = p + sum_v r[v]*pi_v with 0 <= r[v] <=
    r_max*d_v. By reversibility, sum_v r[v]*pi_v(t) = d_t * sum_v
    (r[v]/d_v)*pi_t(v) lies in [0, d_t*r_max], so each p[t] is within
    d_t*r_max below pi_sigma(t), and the two estimates within d_t*r_max of
    each other."""
    p_ref, r_ref, _, _ = ref
    for v in range(g.n):
        if not g.is_isolated(v):
            assert abs(new.p.get(v, 0.0) - p_ref.get(v, 0.0)) <= g.degree(v) * r_max + 1e-12
    assert math.fsum(new.p.values()) + math.fsum(new.r.values()) == pytest.approx(
        math.fsum(p_ref.values()) + math.fsum(r_ref.values()), abs=1e-12)
    for v, x in new.r.items():
        assert 0.0 < x and x / g.degree(v) <= r_max
    assert new.degree_work <= 1.0 / (alpha * r_max)
    assert type(new.degree_work) is float
    assert_python_floats(new.p, new.r)


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
    g = Graph.from_edges(edges, n=ids + draw(st.integers(0, 2)))
    walkable = [v for v in range(g.n) if not g.is_isolated(v)]
    return g, walkable


R_MAX = st.sampled_from([0.3, 0.05, 1e-2, 3e-3, 1e-3, 1e-4])
ALPHA = st.sampled_from([0.05, 0.15, 0.2, 0.5, 0.85])


class TestKernelMatchesReference:
    """The round kernel against the FIFO dict push (``fifo_push``).

    PPR pushes in synchronous rounds, so its states differ from FIFO's, but
    both are valid push states: the estimates agree within d_t*r_max. An
    MSTP level was already one pass over the nodes above the threshold at
    its start, so MSTP states equal FIFO's to the bit, in FIFO's order."""

    @settings(max_examples=200, deadline=None)
    @given(push_graphs(), ALPHA, R_MAX, st.data())
    def test_approximate_pagerank(self, case, alpha, r_max, data):
        g, walkable = case
        s = data.draw(st.sampled_from(walkable))
        rounds = []
        new = approximate_pagerank(g, alpha, s, r_max,
                                   on_push=lambda state: rounds.append(len(state.p)))
        assert_slots_released(g)
        ref = fifo_pagerank(g, alpha, {s: 1.0}, r_max)
        assert_ppr_near_reference(g, new, ref, alpha, r_max)
        assert len(rounds) <= new.push_count
        assert (new.push_count == 0) == (ref[2] == 0)
        assert ordered(approximate_pagerank(g, alpha, s, r_max).p) == ordered(new.p)

    @settings(max_examples=200, deadline=None)
    @given(push_graphs(), st.integers(0, 6), R_MAX, st.data())
    def test_approximate_mstp(self, case, ell_max, r_max, data):
        g, walkable = case
        s = data.draw(st.sampled_from(walkable))
        calls = []
        new = approximate_mstp(g, s, ell_max, r_max, on_push=lambda state: calls.append(1))
        assert_slots_released(g)
        q, r, pushes, degree_work = fifo_mstp(g, s, ell_max, r_max)
        new_q, new_r = mstp_dicts(new)
        assert [ordered(x) for x in new_q] == [ordered(x) for x in q]
        assert [ordered(x) for x in new_r] == [ordered(x) for x in r]
        # the pushed nodes of a level are the keys of its estimate
        assert [len(x) for x in new_q] == pushes
        assert new.push_count == sum(pushes)
        assert len(calls) == sum(1 for k in pushes if k)
        assert repr(new.degree_work) == repr(degree_work)
        assert type(new.degree_work) is float
        assert_python_floats(*new_q, *new_r)

    @settings(max_examples=200, deadline=None)
    @given(push_graphs(), ALPHA, R_MAX, st.integers(0, 4), st.data())
    def test_threshold_on_a_reached_ratio(self, case, alpha, r_max, ell_max, data):
        # r_max equal to, or one ulp below, a ratio r[v]/d_v that a push
        # reaches puts the threshold test on its rounding boundary
        g, walkable = case
        s = data.draw(st.sampled_from(walkable))
        first = approximate_pagerank(g, alpha, s, r_max)
        ratios = sorted({x / g.degree(v) for v, x in first.r.items()})
        r_max = data.draw(st.sampled_from(ratios))
        if data.draw(st.booleans()):
            r_max = math.nextafter(r_max, 0.0)
        new = approximate_pagerank(g, alpha, s, r_max)
        assert_ppr_near_reference(g, new, fifo_pagerank(g, alpha, {s: 1.0}, r_max),
                                  alpha, r_max)
        state_q, state_r = mstp_dicts(approximate_mstp(g, s, ell_max, r_max))
        q, r, pushes, _ = fifo_mstp(g, s, ell_max, r_max)
        assert [ordered(x) for x in state_q] == [ordered(x) for x in q]
        assert [ordered(x) for x in state_r] == [ordered(x) for x in r]

    def test_requeue_threshold_is_the_rounded_ratio(self):
        # push 0 -> 1 leaves x = 0.8 at node 1; with r_max = x/d_1 the ratio
        # is not above r_max, although x > r_max*d_1 after rounding
        for k in range(1, 200):
            g = Graph.from_edges([(0, 1, 1.0), (1, 2, k / 10)])
            x, d = 0.8, g.degree(1)
            if x > (x / d) * d:
                break
        else:
            pytest.fail("no weight puts the ratio on a rounding boundary")
        new = approximate_pagerank(g, 0.2, 0, x / d)
        p, r, push_count, _ = fifo_pagerank(g, 0.2, {0: 1.0}, x / d)
        assert push_count == 1
        assert new.push_count == 1
        assert ordered(new.r) == ordered(r)

    def test_numpy_int_source(self):
        g = random_connected(30, "ba", seed=3)
        a = approximate_pagerank(g, 0.2, np.int64(4), 1e-3)
        b = approximate_pagerank(g, 0.2, 4, 1e-3)
        assert ordered(a.p) == ordered(b.p)
        assert ordered(a.r) == ordered(b.r)
        q, _ = mstp_dicts(approximate_mstp(g, np.int64(4), 5, 1e-3))
        want, _ = mstp_dicts(approximate_mstp(g, 4, 5, 1e-3))
        assert [ordered(x) for x in q] == [ordered(x) for x in want]


class TestPushCounters:
    """Synchronous rounds against FIFO on 2,000-node graphs. A round pushes a
    node with the residual it held when the round began, where FIFO would
    also push what reached it earlier in the same pass, so rounds can cost
    more pushes. At r_max = 1/m, as in the benchmark's deep push, most nodes
    are pushed at most once and the two agree within 2%; far below it,
    where every node is pushed many times, rounds cost up to about 40% more
    work, still within the bound 1/(alpha*r_max)."""

    @pytest.mark.parametrize("kind", ["ba", "er"])
    def test_work_close_to_fifo(self, kind):
        g = random_connected(2000, kind, seed=12)
        sources = (0, 17, 500, 1234, 1999)
        for r_max, per_source, total in ((1.0 / g.m, 1.1, 1.03), (1e-5, 1.5, 1.3)):
            count = work = fifo_count = fifo_work = 0.0
            for s in sources:
                new = approximate_pagerank(g, 0.2, s, r_max)
                _, _, push_count, degree_work = fifo_pagerank(g, 0.2, {s: 1.0}, r_max)
                assert new.degree_work <= 1.0 / (0.2 * r_max)
                assert new.degree_work <= per_source * degree_work
                count, work = count + new.push_count, work + new.degree_work
                fifo_count, fifo_work = fifo_count + push_count, fifo_work + degree_work
            assert count <= total * fifo_count
            assert work <= total * fifo_work


class TestSlotArray:
    """The graph's slot array: created on the first push, all -1 between
    pushes, and never shared by two pushes running at once."""

    def test_all_minus_one_after_every_call(self):
        g = random_connected(40, "er", seed=5)
        assert g._slots == []
        approximate_pagerank(g, 0.2, 0, 1e-3)
        assert_slots_released(g)
        slots = g._slots[0]
        approximate_pagerank(g, 0.2, 1, 1e-3)
        approximate_mstp(g, 3, 6, 1e-3)
        estimate_diffusion(g, 3, 7, pagerank_weights(0.2, 6), 1e-3, 20, RandomStream(0))
        assert g._slots[0] is slots  # reused, not reallocated
        assert_slots_released(g)

    @pytest.mark.parametrize("push", [
        lambda g, cb: approximate_pagerank(g, 0.2, 0, 1e-3, on_push=cb),
        lambda g, cb: approximate_mstp(g, 0, 5, 1e-3, on_push=cb),
    ])
    def test_released_when_on_push_raises(self, push):
        # the hook's argument is a state of the push's return type, and its
        # last one holds the returned arrays byte for byte
        g = random_connected(40, "er", seed=5)
        seen = []
        result = push(g, seen.append)
        assert seen and all(type(state) is type(result) for state in seen)
        assert compact_arrays(seen[-1]) == compact_arrays(result)
        assert seen[-1].push_count == result.push_count
        assert seen[-1].degree_work == result.degree_work
        assert_slots_released(g)

        def boom(_):
            raise RuntimeError("stop")

        with pytest.raises(RuntimeError, match="stop"):
            push(g, boom)
        assert_slots_released(g)

    def test_nested_push_on_the_same_graph(self):
        g = random_connected(40, "er", seed=5)
        inner = []

        def on_push(state):
            inner.append(approximate_mstp(g, 9, 4, 1e-3))

        outer = approximate_pagerank(g, 0.2, 0, 1e-3, on_push=on_push)
        assert_slots_released(g)
        assert inner
        _, alone = mstp_dicts(approximate_mstp(g, 9, 4, 1e-3))
        assert all([ordered(x) for x in mstp_dicts(m)[1]] == [ordered(x) for x in alone]
                   for m in inner)
        assert ordered(approximate_pagerank(g, 0.2, 0, 1e-3).p) == ordered(outer.p)


    def test_concurrent_pushes_on_the_same_graph(self):
        # pushes sharing one slot array would claim each other's slots
        g = random_connected(300, "ba", seed=6)
        want = {s: ordered(approximate_pagerank(g, 0.2, s, 1e-4).r) for s in range(4)}
        got, errors = {}, []

        def work(s):
            try:
                for _ in range(20):
                    got.setdefault(s, set()).add(
                        tuple(ordered(approximate_pagerank(g, 0.2, s, 1e-4).r)))
            except Exception as exc:  # reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(s,)) for s in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert got == {s: {tuple(x)} for s, x in want.items()}
        assert all((slots == -1).all() for slots in g._slots)


class TestPushMemory:
    def test_peak_does_not_grow_with_n(self):
        # a 30-node component in a graph of a million nodes: after the first
        # push has made the graph's slot array, a push allocates in
        # proportion to its support, not to n
        g = Graph.from_edges(list(nx.barabasi_albert_graph(30, 2, seed=3).edges()),
                             n=1_000_000)
        approximate_pagerank(g, 0.2, 0, 1e-4)
        tracemalloc.start()
        try:
            approximate_pagerank(g, 0.2, 0, 1e-4)
            approximate_mstp(g, 0, 61, 1e-4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6


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
        for level, rv in enumerate(mstp_dicts(state)[1]):
            loop_dense(rv, want[level])
        got = state.residual_dense(g.n)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()
