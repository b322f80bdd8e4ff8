import io

import numpy as np
import pytest

from bippr import EdgeListParseError, Graph, RandomStream, degree, load_edge_list, step
from bippr.graph import step_many

from conftest import random_connected


def load(text, weighted=False):
    return load_edge_list(io.StringIO(text), weighted=weighted)


class TestLoadEdgeList:
    def test_path_graph(self):
        g = load("a b\nb c")
        assert g.n == 3
        assert g.m == 2
        assert g.degrees.tolist() == [1.0, 2.0, 1.0]
        assert g.labels == ["a", "b", "c"]

    def test_duplicate_edges_merge_weights(self):
        g = load("a b 2.0\na b 3.0", weighted=True)
        assert g.n == 2
        assert g.m == 1
        assert g.degree(0) == 5.0

    def test_self_loop(self):
        g = load("a a")
        assert g.n == 1
        assert g.m == 1
        assert g.degree(0) == 1.0

    def test_comments_and_blank_lines(self):
        g = load("# header\n\na b  # trailing\n b c\n")
        assert g.n == 3
        assert g.m == 2

    def test_reverse_duplicate_merges(self):
        g = load("a b 1.5\nb a 2.5", weighted=True)
        assert g.m == 1
        assert g.degree(0) == 4.0

    def test_wrong_token_count(self):
        with pytest.raises(EdgeListParseError, match="line 2"):
            load("a b\na b c d")

    def test_weight_without_flag_is_error(self):
        with pytest.raises(EdgeListParseError, match="line 1"):
            load("a b 2.0")

    def test_non_numeric_weight(self):
        with pytest.raises(EdgeListParseError, match="non-numeric"):
            load("a b x", weighted=True)

    def test_nonpositive_weight(self):
        with pytest.raises(EdgeListParseError, match="positive"):
            load("a b 0", weighted=True)
        with pytest.raises(EdgeListParseError, match="positive"):
            load("a b -1.5", weighted=True)

    def test_first_appearance_label_order(self):
        g = load("z y\ny x")
        assert g.labels == ["z", "y", "x"]
        assert g.node_id("x") == 2


class TestDegree:
    def test_star_center(self, s3):
        assert degree(s3, 0) == 3.0

    def test_k2(self, k2):
        assert degree(k2, 0) == 1.0
        assert degree(k2, 1) == 1.0

    def test_weighted_single_edge(self):
        g = load("a b 2.5", weighted=True)
        assert degree(g, 0) == 2.5

    def test_out_of_range(self, k2):
        with pytest.raises(ValueError):
            degree(k2, 2)
        with pytest.raises(ValueError):
            degree(k2, -1)


class TestInvariants:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_symmetry_and_degree_sum(self, seed):
        g = random_connected(60, "er", seed)
        g.check()
        assert abs(g.degrees.sum() - 2.0 * g.total_weight) <= 1e-9 * g.total_weight

    def test_weighted_degree_sum(self):
        g = load("a b 2.0\nb c 0.5\na c 1.25", weighted=True)
        g.check()
        assert g.degrees.sum() == pytest.approx(2 * g.total_weight, abs=1e-12)


class TestStep:
    def test_sole_neighbor(self, k2):
        assert step(k2, 0, RandomStream(0)) == 1

    def test_self_loop_only(self):
        g = load("a a")
        assert step(g, 0, RandomStream(0)) == 0

    def test_isolated_node_rejected(self):
        g = Graph.from_edges([(0, 1)], n=3)
        with pytest.raises(ValueError, match="isolated"):
            step(g, 2, RandomStream(0))

    def test_triangle_uniform_frequency(self, k3):
        rng = RandomStream(11)
        n = 100_000
        nodes = step_many(k3, np.zeros(n, dtype=np.int64), rng)
        freq1 = (nodes == 1).mean()
        freq2 = (nodes == 2).mean()
        assert abs(freq1 - 0.5) < 0.01
        assert abs(freq2 - 0.5) < 0.01

    def test_weighted_distribution_within_4_sigma(self):
        g = load("a b 3.0\na c 1.0", weighted=True)
        rng = RandomStream(5)
        n = 100_000
        nodes = step_many(g, np.zeros(n, dtype=np.int64), rng)
        for target, p in [(1, 0.75), (2, 0.25)]:
            sigma = np.sqrt(p * (1 - p) / n)
            assert abs((nodes == target).mean() - p) < 4 * sigma

    def test_deterministic_given_stream(self, k3):
        a = step_many(k3, np.zeros(1000, dtype=np.int64), RandomStream(9, 3))
        b = step_many(k3, np.zeros(1000, dtype=np.int64), RandomStream(9, 3))
        assert np.array_equal(a, b)


def step_many_by_search(g, nodes, rng):
    """Reference stepping: binary search on the global cumulative weights."""
    cum = np.concatenate([[0.0], np.cumsum(g.weights)])
    starts = g.indptr[nodes]
    targets = cum[starts] + rng.random(len(nodes)) * g.degrees[nodes]
    j = np.searchsorted(cum, targets, side="right") - 1
    j = np.minimum(j, g.indptr[nodes + 1] - 1)
    j = np.maximum(j, starts)
    return g.indices[j]


class PresetDraws:
    """Stand-in random stream that hands out prepared uniforms."""

    def __init__(self, u):
        self.u = u

    def random(self, size):
        assert size == len(self.u)
        return self.u


def boundary_draws(g, nodes):
    """Uniforms on, and one or two ulps either side of, each slot boundary
    of each node's row, with the node repeated once per draw."""
    cum = np.concatenate([[0.0], np.cumsum(g.weights)])
    reps, draws = [], []
    for v in nodes:
        a, b = g.indptr[v], g.indptr[v + 1]
        base = (cum[a:b + 1] - cum[a]) / g.degrees[v]
        below = np.nextafter(base, -1.0)
        near = [base, below, np.nextafter(below, -1.0), np.nextafter(base, 2.0)]
        u = np.clip(np.concatenate(near), 0.0, np.nextafter(1.0, 0.0))
        reps.append(np.full(u.size, v, dtype=np.int64))
        draws.append(u)
    return np.concatenate(reps), np.concatenate(draws)


def random_small_graph(seed, kind):
    """Random edges with self-loops and trailing isolated nodes.

    ``unit``: distinct pairs; ``weighted``: real-valued weights;
    ``repeated``: an unweighted list in which one pair appears twice.
    """
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 40))
    pairs = rng.integers(0, n, size=(3 * n, 2))
    pairs[: max(1, n // 5), 1] = pairs[: max(1, n // 5), 0]  # self-loops
    edges = sorted({(int(min(u, v)), int(max(u, v))) for u, v in pairs})
    isolated = int(rng.integers(1, 4))
    if kind == "weighted":
        w = rng.uniform(0.01, 5.0, size=len(edges))
        return Graph.from_edges([(u, v, x) for (u, v), x in zip(edges, w)],
                                n=n + isolated, weighted=True)
    if kind == "repeated":
        edges.append(edges[len(edges) // 2])
    return Graph.from_edges(edges, n=n + isolated)


class TestStepMatchesSearch:
    @pytest.mark.parametrize("kind", ["unit", "weighted", "repeated"])
    @pytest.mark.parametrize("seed", range(12))
    def test_same_neighbors_for_same_stream(self, kind, seed):
        g = random_small_graph(seed, kind)
        assert g.unit_weights == (kind == "unit")
        assert (g._cum is None) == g.unit_weights
        walkable = np.flatnonzero(np.diff(g.indptr) > 0)
        assert walkable.size < g.n
        nodes = np.random.default_rng(seed + 100).choice(walkable, size=5000)
        got = step_many(g, nodes, RandomStream(seed, 1))
        want = step_many_by_search(g, nodes, RandomStream(seed, 1))
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("kind", ["unit", "weighted"])
    def test_draws_at_slot_boundaries(self, kind):
        # x = indptr[v] + u*d_v rounds up to the next slot when u*d_v sits a
        # few ulps below an integer and the row offset is large
        n = 60_000
        edges = [(i, (i + 1) % n) for i in range(n)]
        edges += [(0, i) for i in range(2, n - 1, 3)]
        if kind == "weighted":
            edges = [(u, v, 0.1 + 0.7 * ((u + 2 * v) % 5)) for u, v in edges]
        g = Graph.from_edges(edges, n=n, weighted=kind == "weighted")
        assert g.unit_weights == (kind == "unit")
        nodes, u = boundary_draws(g, [0, 1, 2, n // 2, n - 2, n - 1])
        got = step_many(g, nodes, PresetDraws(u))
        want = step_many_by_search(g, nodes, PresetDraws(u))
        assert np.array_equal(got, want)

    def test_unweighted_repeated_pair_is_not_unit_weight(self):
        g = load("a b\nb c\nb a")
        assert not g.weighted
        assert not g.unit_weights
        assert g.degrees.tolist() == [2.0, 3.0, 1.0]
