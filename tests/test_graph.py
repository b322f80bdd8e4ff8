import io
import math
import os
import shlex
import stat
import subprocess
import sys
import sysconfig
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bippr import EdgeListParseError, Graph, RandomStream, load_edge_list
from bippr import graph as graph_module
from bippr.graph import _build_alias, step_many

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

    @pytest.mark.parametrize("token", ["inf", "-inf", "nan", "Infinity", "-0.0"])
    def test_non_finite_or_zero_weight(self, token):
        with pytest.raises(EdgeListParseError,
                           match=rf"^line 3: weight must be positive, got {token}$"):
            load(f"a b 1\n# note\nb c {token}\n", weighted=True)

    def test_first_appearance_label_order(self):
        g = load("z y\ny x")
        assert g.labels == ["z", "y", "x"]
        assert g.node_id("x") == 2

    def test_hash_inside_a_token_starts_a_comment(self):
        g = load("a b#c\nc d # e\n")
        assert g.labels == ["a", "b", "c", "d"]
        assert g.m == 2 and g.neighbors(0)[0].tolist() == [1]
        assert g.neighbors(2)[0].tolist() == [3]
        g = load("a b 2#x", weighted=True)
        assert g.weights.tolist() == [2.0, 2.0]

    def test_bad_line_after_comment_only_lines_keeps_its_number(self):
        with pytest.raises(EdgeListParseError, match=r"^line 4: expected 2 tokens, got 3$"):
            load("# one\n#two\n  # three\na b c\n")
        with pytest.raises(EdgeListParseError, match=r"^line 3: non-numeric weight 'x'$"):
            load("#\n# a b 1\na b x#1\n", weighted=True)

    def test_ingest_peak_memory_is_under_three_graphs(self):
        g, ratio = skewed_ingest_peak(weighted=False)
        assert g.m > 90_000
        assert ratio < 3, ratio

    def test_ingest_frees_the_edge_arrays_during_the_build(self):
        # the parser's id and weight arrays are freed once the build has
        # formed the pair keys and merged the weights: about 1.97 graphs if
        # they live to the end of the build
        g, ratio = skewed_ingest_peak(weighted=True)
        assert not g.unit_weights
        assert ratio < 1.75, ratio


def skewed_ingest_peak(weighted):
    """The graph of about 100k edges over 20k labels, skewed as real graphs
    are, and one ingest's tracemalloc peak over its size; the lines exist
    before tracing, so the peak is the parse and the build."""
    rng = np.random.default_rng(11)
    p = (np.arange(20_000) + 1.0) ** -0.6
    ends = rng.choice(20_000, size=(100_000, 2), p=p / p.sum())
    if weighted:
        w = rng.integers(1, 10, 100_000)
        lines = [f"n{u} n{v} {x}\n" for (u, v), x in zip(ends.tolist(), w.tolist())]
    else:
        lines = [f"n{u} n{v}\n" for u, v in ends.tolist()]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        g = load_edge_list(lines, weighted=weighted)
        after, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return g, (peak - before) / (after - before)


class TestFromEdges:
    @pytest.mark.parametrize("edges", [
        [(0, 1, math.nan), (1, 2)],
        [(0, 1, math.inf), (1, 2)],
        [(0, 1, -math.inf), (1, 2)],
        # a negative weight that its duplicate would sum back to positive
        [(0, 1, -1.0), (0, 1, 2.0)],
        [(0, 1, 0.0), (1, 2)],
    ])
    def test_bad_weight_rejected_before_merging(self, edges):
        with pytest.raises(ValueError, match="positive and finite"):
            Graph.from_edges(edges)

    def test_out_of_range(self):
        with pytest.raises(ValueError, match=r"edge \(0, 3\) out of range for n=3"):
            Graph.from_edges([(0, 1), (0, 3)], n=3)
        with pytest.raises(ValueError, match="out of range"):
            Graph.from_edges([(0, -1)], n=3)

    def test_first_edge_of_a_pair_not_first_in_its_sorted_run(self):
        # The unstable key sort puts a later (1, 2) edge ahead of the pair's
        # first, at position 10, so (1, 2) must still enter total_weight after
        # (4, 5) and before (0, 1) and (2, 3), and the tenths of (4, 5) must
        # still add in input order; another order changes the bits of either.
        tenths = [0.1, 0.2, 0.3]
        edges = ([(4, 5, tenths[i % 3]) for i in range(10)]
                 + [(1, 2, 1e16), (0, 1, 1.0), (3, 2, 1.0)]
                 + [[(2, 1, 4.0), (1, 2, 4.0), (5, 4, tenths[i % 3])][i % 3]
                    for i in range(300)])
        keys = np.array([min(u, v) * 6 + max(u, v) for u, v, _ in edges])
        assert np.argsort(keys)[np.sort(keys) == 8][0] != 10
        assert_same_graph(Graph.from_edges(edges), reference_from_edges(edges))

    def test_pair_keys_must_fit_int64(self):
        with pytest.raises(ValueError, match="overflow int64"):
            Graph(3_037_000_500, [], [], [])


class TestDegree:
    def test_star_center(self, s3):
        assert s3.degree(0) == 3.0

    def test_k2(self, k2):
        assert k2.degree(0) == 1.0
        assert k2.degree(1) == 1.0

    def test_weighted_single_edge(self):
        g = load("a b 2.5", weighted=True)
        assert g.degree(0) == 2.5

    def test_out_of_range(self, k2):
        with pytest.raises(ValueError):
            k2.degree(2)
        with pytest.raises(ValueError):
            k2.degree(-1)

    @pytest.mark.parametrize("v", [1.0, np.float64(1.0), 0.5, True, np.True_, "1", None],
                             ids=["float", "np.float64", "half", "bool", "np.bool_",
                                  "str", "None"])
    def test_non_integer_id_rejected(self, path3, v):
        # True would otherwise be a boolean index and 1.0 a numpy IndexError
        for check in (path3.degree, path3.require_walkable):
            with pytest.raises(ValueError, match="node id must be an integer"):
                check(v)

    @pytest.mark.parametrize("v", [1, np.int64(1), np.int32(1), np.uint8(1)])
    def test_integer_ids_accepted(self, path3, v):
        assert path3.degree(v) == 2.0
        path3.require_walkable(v)

    @pytest.mark.parametrize("v,message", [
        (-1, "out of range"), (4, "out of range"), (10, "out of range"),
        (1.0, "node id must be an integer"), (True, "node id must be an integer"),
    ])
    def test_is_isolated_and_neighbors_check_ids(self, v, message):
        # -1 read indptr[-1] (False, an empty row) and 4 raised IndexError
        g = Graph.from_edges([(0, 1), (1, 2)], n=4)
        for check in (g.is_isolated, g.neighbors):
            with pytest.raises(ValueError, match=message):
                check(v)
        assert g.is_isolated(3) is True
        assert g.neighbors(3)[0].size == 0
        for u in (1, np.int64(1), np.uint8(1)):
            assert g.is_isolated(u) is False
            assert g.neighbors(u)[0].tolist() == [0, 2]


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

    @pytest.mark.parametrize("j", [0, 17, -1])
    def test_one_changed_weight_is_not_symmetric(self, j):
        g = random_connected(30, "er", 0)
        g.weights[j] = 2.0
        with pytest.raises(ValueError, match="adjacency is not symmetric"):
            g.check()

    @pytest.mark.parametrize("pick", [0, -1], ids=["lowest", "highest"])
    @pytest.mark.parametrize("j", [0, 17, -1])
    def test_one_moved_entry_is_not_symmetric(self, j, pick):
        # the entry moves to the lowest or highest node its row does not hold,
        # so some moves keep the row sorted and some do not
        g = random_connected(30, "er", 0)
        j %= g.indices.size
        row = int(np.searchsorted(g.indptr, j, side="right")) - 1
        g.indices[j] = np.setdiff1d(np.arange(g.n), g.neighbors(row)[0])[pick]
        with pytest.raises(ValueError, match="adjacency is not symmetric"):
            g.check()

    @pytest.mark.parametrize("v", [0, 29])
    def test_one_changed_degree_breaks_the_degree_sum(self, v):
        g = random_connected(30, "er", 0)
        g.degrees[v] += 0.5
        with pytest.raises(ValueError, match="degree sum does not match total edge weight"):
            g.check()


class TestStep:
    def test_sole_neighbor(self, k2):
        assert step_many(k2, np.array([0]), RandomStream(0).random(1)).tolist() == [1]

    def test_self_loop_only(self):
        g = load("a a")
        assert step_many(g, np.array([0]), RandomStream(0).random(1)).tolist() == [0]

    def test_triangle_uniform_frequency(self, k3):
        n = 100_000
        nodes = step_many(k3, np.zeros(n, dtype=np.int64), RandomStream(11).random(n))
        freq1 = (nodes == 1).mean()
        freq2 = (nodes == 2).mean()
        assert abs(freq1 - 0.5) < 0.01
        assert abs(freq2 - 0.5) < 0.01

    def test_weighted_distribution_within_4_sigma(self):
        g = load("a b 3.0\na c 1.0", weighted=True)
        n = 100_000
        nodes = step_many(g, np.zeros(n, dtype=np.int64), RandomStream(5).random(n))
        for target, p in [(1, 0.75), (2, 0.25)]:
            sigma = np.sqrt(p * (1 - p) / n)
            assert abs((nodes == target).mean() - p) < 4 * sigma

    def test_deterministic_given_stream(self, k3):
        a = step_many(k3, np.zeros(1000, dtype=np.int64), RandomStream(9, 3).random(1000))
        b = step_many(k3, np.zeros(1000, dtype=np.int64), RandomStream(9, 3).random(1000))
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("weighted", [False, True], ids=["unit", "weighted"])
    def test_leaves_inputs_alone_and_refuses_ids_past_n(self, weighted):
        edges = [(0, 1, 3.0), (1, 2, 1.0), (2, 0, 0.5), (2, 3, 2.0)]
        g = Graph.from_edges([e if weighted else e[:2] for e in edges])
        assert g.unit_weights != weighted
        nodes = np.array([0, 1, 2, 3, 2, 0], dtype=np.int64)
        u = RandomStream(4).random(nodes.size)
        nodes_before, u_before = nodes.copy(), u.copy()
        got = step_many(g, nodes, u)
        assert got.dtype == np.int64
        assert np.array_equal(nodes, nodes_before)
        assert np.array_equal(u, u_before)
        for bad in (g.n, g.n + 1, 2**40):
            with pytest.raises(IndexError):
                step_many(g, np.array([0, bad], dtype=np.int64), u[:2])

    @pytest.mark.parametrize("weighted", [False, True], ids=["unit", "weighted"])
    def test_refuses_isolated_negative_and_out_of_range_nodes(self, weighted):
        # node 0 is isolated: its empty row must not step into node 1's
        g = Graph(4, [1, 2, 3], [2, 3, 1], [1.0, 2.0 if weighted else 1.0, 1.0])
        assert g.unit_weights != weighted and g.is_isolated(0)
        for bad, why in [(0, "isolated"), (4, "out of range"), (-1, "out of range"),
                         (-2**63, "out of range")]:
            with pytest.raises(IndexError, match=why):
                step_many(g, np.array([1, bad, 2]), np.full(3, 0.5))

    @pytest.mark.parametrize("weighted", [False, True], ids=["unit", "weighted"])
    def test_refuses_uniforms_outside_the_unit_interval(self, weighted):
        g = Graph(4, [1, 2, 3], [2, 3, 1], [1.0, 2.0 if weighted else 1.0, 1.0])
        for bad in (1.0, -0.25, 2.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="outside"):
                step_many(g, np.array([1, 2]), np.array([0.5, bad]))

    @pytest.mark.parametrize("weighted", [False, True], ids=["unit", "weighted"])
    def test_block_of_rounds_equals_one_call_per_round(self, weighted):
        g = random_small_graph(3, "weighted" if weighted else "unit")
        rows = np.flatnonzero(np.diff(g.indptr))
        live = np.array([6, 6, 4, 1])
        u = RandomStream(2).random(live.sum())
        table = np.full((5, 6), -1, dtype=np.int64)
        table[0] = np.random.default_rng(2).choice(rows, 6)
        row = table[0].copy()
        assert step_many(g, table, u, live) is None
        assert step_many(g, row, u, live) is None
        want, at = table[0], 0
        for k, a in enumerate(live.tolist()):
            want = step_many(g, want[:a], u[at:at + a])
            at += a
            assert table[k + 1].tolist() == want.tolist() + [-1] * (6 - a)
        # stepped in place, walk i ends where the table's walk i is after
        # the rounds that step it
        steps = (live[:, None] > np.arange(6)).sum(axis=0)
        assert row.tolist() == table[steps, np.arange(6)].tolist()

    def test_block_of_rounds_reports_the_bad_step(self):
        # the steps before the bad one are taken
        g = Graph(4, [1, 2, 3], [2, 3, 1], [1.0, 1.0, 1.0])
        table = np.array([[1, 2, 3], [9, 9, 0], [9, 9, 9]])
        with pytest.raises(IndexError, match="node 0, which is isolated"):
            step_many(g, table, np.full(5, 0.5), np.array([2, 3]))
        assert table[1, :2].tolist() == [3, 3] and table[2, :2].tolist() == [2, 2]
        row = np.array([1, 2, 7])
        with pytest.raises(IndexError, match="node 7, out of range"):
            step_many(g, row, np.full(5, 0.5), np.array([2, 3]))
        assert row.tolist() == [2, 2, 7]

    # a round wider than the row, a negative count, too few uniforms, too many
    @pytest.mark.parametrize("live, uniforms", [([3, 4], 7), ([3, -1], 3), ([3, 3], 5),
                                                ([3, 3], 7)])
    def test_block_of_rounds_refuses_counts_that_do_not_fit(self, live, uniforms):
        g = Graph(4, [1, 2, 3], [2, 3, 1], [1.0, 1.0, 1.0])
        table = np.array([[1, 2, 3], [0, 0, 0], [0, 0, 0]])
        with pytest.raises(ValueError, match="live counts"):
            step_many(g, table, np.full(uniforms, 0.5), np.array(live))

    def test_block_of_rounds_refuses_arrays_the_kernel_cannot_read(self, k3):
        live, u = np.array([2]), np.full(2, 0.5)
        for pos in (np.zeros((3, 2), np.int64), np.zeros((2, 2), np.int32),
                    np.zeros((2, 4), np.int64)[:, ::2], np.zeros((2, 2, 2), np.int64)):
            with pytest.raises(ValueError, match="block of rounds"):
                step_many(k3, pos, u, live)
        pos = np.zeros((2, 2), np.int64)
        for bad_u, bad_live in [(u.astype(np.float32), live), (u, live.astype(np.int32)),
                                (np.full(4, 0.5)[::2], live)]:
            with pytest.raises(ValueError, match="block of rounds"):
                step_many(k3, pos, bad_u, bad_live)


def import_bippr(cache, path=None):
    """``import bippr`` in a fresh interpreter with ``XDG_CACHE_HOME`` set to
    ``cache`` and, if given, ``PATH`` set to ``path``."""
    env = dict(os.environ, XDG_CACHE_HOME=str(cache),
               PYTHONPATH=str(Path(graph_module.__file__).parents[1]))
    if path is not None:
        env["PATH"] = path
    return subprocess.run([sys.executable, "-c", "import bippr"], env=env,
                          capture_output=True, text=True, timeout=120)


class TestKernelBuild:
    """The walk kernel is compiled on the first import into the user's cache
    and loaded from there afterwards, with no compiler needed."""

    def test_first_import_compiles_and_the_next_loads_from_the_cache(self, tmp_path):
        first = import_bippr(tmp_path)
        assert first.returncode == 0, first.stderr
        cache = tmp_path / "bippr"
        assert stat.S_IMODE(cache.stat().st_mode) == 0o700
        built = sorted(cache.iterdir())
        assert [p.suffix for p in built] == [".so"]  # no temporary left over
        mtime = built[0].stat().st_mtime_ns
        second = import_bippr(tmp_path, path="")
        assert second.returncode == 0, second.stderr
        assert sorted(cache.iterdir()) == built
        assert built[0].stat().st_mtime_ns == mtime

    def test_a_build_removes_the_older_libraries(self, tmp_path):
        cache = tmp_path / "bippr"
        cache.mkdir(mode=0o700)
        older = [cache / "walk-deadbeef.so", cache / f"walk-{'0' * 32}.so"]
        for path in older:
            path.write_bytes(b"an older build")
        (cache / "notes.txt").write_text("kept")
        first = import_bippr(tmp_path)
        assert first.returncode == 0, first.stderr
        built = sorted(p.name for p in cache.iterdir())
        assert len(built) == 2 and "notes.txt" in built
        assert [p for p in older if p.exists()] == []

    def test_a_library_that_does_not_load_or_holds_another_key_is_rebuilt(self, tmp_path):
        assert import_bippr(tmp_path).returncode == 0
        (built,) = (tmp_path / "bippr").iterdir()
        good = built.read_bytes()
        other = tmp_path / "other.c"
        other.write_text("const unsigned char bippr_key[] = {0};\n"
                         "const long long bippr_key_size = 1;\n")
        cc = shlex.split(sysconfig.get_config_var("CC"))
        subprocess.run([*cc, "-shared", "-fPIC", str(other), "-o", str(built)], check=True)
        for stale in (built.read_bytes(), b"not a library"):
            built.write_bytes(stale)
            again = import_bippr(tmp_path)
            assert again.returncode == 0, again.stderr
            assert [p.name for p in (tmp_path / "bippr").iterdir()] == [built.name]
            assert built.read_bytes() == good

    def test_cold_import_without_a_compiler_fails_in_one_line(self, tmp_path):
        cold = import_bippr(tmp_path, path="")
        assert cold.returncode == 1
        last = cold.stderr.strip().splitlines()[-1]
        assert last.startswith("ImportError: bippr needs a C compiler to build its walk "
                               "kernel on first import"), cold.stderr
        assert "During handling" not in cold.stderr
        assert list((tmp_path / "bippr").iterdir()) == []


def step_many_by_search(g, nodes, u):
    """Reference stepping: a binary search in the row's own cumulative
    weights, summed from 0.0, for the target ``u*d_v``."""
    cums = {}
    out = []
    for v, u_v in zip(nodes.tolist(), u.tolist()):
        a, b = g.indptr[v], g.indptr[v + 1]
        if v not in cums:
            cums[v] = np.concatenate([[0.0], np.cumsum(g.weights[a:b])])
        k = np.searchsorted(cums[v], u_v * g.degrees[v], side="right") - 1
        out.append(int(g.indices[a + k]))
    return np.array(out, dtype=np.int64)


def alias_row_reference(g, v):
    """Row v's alias table by a Python loop: Vose's pairing with the light
    (p < 1) and heavy slots each swept in CSR order. A light takes the heavy
    whose running excess covers where its deficit starts; a heavy that runs
    dry takes the next heavy. Returns (prob, alias node) per slot of the row."""
    a, b = int(g.indptr[v]), int(g.indptr[v + 1])
    cnt = b - a
    p = [float(g.weights[s]) * cnt / float(g.degrees[v]) for s in range(a, b)]
    lights = [k for k in range(cnt) if p[k] < 1.0]
    heavies = [k for k in range(cnt) if p[k] >= 1.0]
    deficit, excess, acc = [], [], 0.0
    for k in lights:
        acc += 1.0 - p[k]
        deficit.append(acc)
    acc = 0.0
    for k in heavies:
        acc += p[k] - 1.0
        excess.append(acc)
    prob, alias = list(p), list(range(cnt))
    h = 0
    for i, k in enumerate(lights):
        start = deficit[i - 1] if i else 0.0
        while h < len(heavies) - 1 and excess[h] < start:
            h += 1
        if heavies:
            alias[k] = heavies[h]
    i = 0
    for h, k in enumerate(heavies):
        while i < len(lights) and deficit[i] <= excess[h]:
            i += 1
        prob[k] = 1.0
        if h < len(heavies) - 1:
            alias[k] = heavies[h + 1]
            if i < len(lights):
                prob[k] = 1.0 + excess[h] - deficit[i]
    nodes = g.indices[a:b].tolist()
    return prob, [nodes[k] for k in alias]


def step_many_by_alias_loop(g, nodes, u):
    """Reference stepping: one alias draw per node, in a Python loop."""
    tables = {}
    out = []
    for v, u_v in zip(nodes.tolist(), u.tolist()):
        if v not in tables:
            tables[v] = alias_row_reference(g, v)
        prob, alias = tables[v]
        x = u_v * len(prob)
        k = int(x)
        out.append(int(g.indices[g.indptr[v] + k]) if x - k < prob[k] else alias[k])
    return np.array(out, dtype=np.int64)


def alias_boundary_draws(g, nodes):
    """Uniforms that put ``x = u*cnt`` on, and one or two ulps either side
    of, each slot start and each cached absolute keep/alias threshold of
    each node's row, plus 0 and one ulp below 1, with the node repeated once
    per draw."""
    thr, _, _ = g._alias_tables()
    reps, draws = [], []
    for v in nodes:
        a, b = g.indptr[v], g.indptr[v + 1]
        k = np.arange(b - a)
        base = np.concatenate([k, thr[a:b], [0.0, b - a]]) / (b - a)
        below = np.nextafter(base, -1.0)
        near = [base, below, np.nextafter(below, -1.0), np.nextafter(base, 2.0)]
        u = np.clip(np.concatenate(near), 0.0, np.nextafter(1.0, 0.0))
        reps.append(np.full(u.size, v, dtype=np.int64))
        draws.append(u)
    return np.concatenate(reps), np.concatenate(draws)


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
                                n=n + isolated)
    if kind == "repeated":
        edges.append(edges[len(edges) // 2])
    return Graph.from_edges(edges, n=n + isolated)


class TestStepMatchesSearch:
    """Unit-weight graphs step to the slot a binary search in the row's
    cumulative weights would pick from the same draw; the ``weighted`` and
    ``repeated`` cases, which sample from alias tables, match the Python-loop
    alias reference draw by draw instead."""

    @pytest.mark.parametrize("kind", ["unit", "weighted", "repeated"])
    @pytest.mark.parametrize("seed", range(12))
    def test_same_neighbors_for_same_stream(self, kind, seed):
        g = random_small_graph(seed, kind)
        assert g.unit_weights == (kind == "unit")
        walkable = np.flatnonzero(np.diff(g.indptr) > 0)
        assert walkable.size < g.n
        nodes = np.random.default_rng(seed + 100).choice(walkable, size=5000)
        assert g._alias is None
        u = RandomStream(seed, 1).random(nodes.size)
        got = step_many(g, nodes, u)
        assert (g._alias is None) == g.unit_weights
        reference = step_many_by_search if g.unit_weights else step_many_by_alias_loop
        want = reference(g, nodes, u)
        assert np.array_equal(got, want)

    # the weighted sizes put the largest node id at 2^15 - 1 (an int16 pair
    # table) and at 2^15 and beyond (int32), and draw from rows on both sides
    @pytest.mark.parametrize("kind, n", [
        pytest.param("unit", 60_000, id="unit"),
        pytest.param("weighted", 60_000, id="weighted"),
        pytest.param("weighted", 2**15 + 1, id="weighted-int32"),
        pytest.param("weighted", 2**15, id="weighted-int16"),
    ])
    def test_draws_at_slot_boundaries(self, kind, n):
        edges = [(i, (i + 1) % n) for i in range(n)]
        edges += [(0, i) for i in range(2, n - 1, 3)]
        if kind == "weighted":
            edges = [(u, v, 0.1 + 0.7 * ((u + 2 * v) % 5)) for u, v in edges]
        g = Graph.from_edges(edges, n=n)
        assert g.unit_weights == (kind == "unit")
        near = range(2**15 - 2, min(n, 2**15 + 2))
        rows = sorted({0, 1, 2, n // 2, *near, n - 2, n - 1})
        if g.unit_weights:
            nodes, u = boundary_draws(g, rows)
            want = step_many_by_search(g, nodes, u)
            # where u*d_v sits a few ulps below an integer, indptr[v] + u*d_v
            # rounds up into the next slot at a large row offset; the row's
            # own search, and the step, keep the lower slot
            starts = g.indptr[nodes]
            x = u * g.degrees[nodes]
            lower = starts + x.astype(np.int64)
            carried = (starts + x).astype(np.int64) > lower
            assert (starts[carried] > 2**16).any()
            assert np.array_equal(want[carried], g.indices[lower[carried]])
        else:
            nodes, u = alias_boundary_draws(g, rows)
            want = step_many_by_alias_loop(g, nodes, u)
            thr, pair, _ = g._alias_tables()
            assert pair.dtype == (np.int16 if n <= 2**15 else np.int32)
            assert want.max() == n - 1
            # the draws land on, and one ulp below, most thresholds inside
            # their slots (the ones below the next slot's start)
            x = u * np.diff(g.indptr)[nodes]
            j = g.indptr[nodes] + x.astype(np.int64)
            inner = np.unique(j[thr[j] < slot_offsets(g)[j] + 1.0])
            on = np.unique(j[x == thr[j]])
            below = np.unique(j[x == np.nextafter(thr[j], -np.inf)])
            assert inner.size > 1000
            assert on.size > inner.size / 2 and below.size > inner.size / 2
        got = step_many(g, nodes, u)
        assert np.array_equal(got, want)
        if g.unit_weights:
            # the largest uniform below 1 lands on the last slot of every row
            top = np.full(n, np.nextafter(1.0, 0.0))
            got = step_many(g, np.arange(n), top)
            assert np.array_equal(got, g.indices[g.indptr[1:] - 1])

    def test_largest_uniform_scales_below_every_row_length(self):
        # fl(u*d) < d for u < 1 and an integer d < 2^53, so the unit-weight
        # step needs no clamp to stay in its row
        u = np.nextafter(1.0, 0.0)
        near = [2.0**e + s for e in range(20, 54) for s in (-1, 0, 1)]
        d = np.concatenate([np.arange(1.0, 2**20), near])
        d = d[d < 2**53]
        assert (u * d < d).all()

    def test_uniforms_drawn_ahead_need_one_per_node(self, k3):
        with pytest.raises(ValueError, match="one uniform per node"):
            step_many(k3, np.zeros(4, dtype=np.int64), np.full(1, 0.5))

    def test_unweighted_repeated_pair_is_not_unit_weight(self):
        g = load("a b\nb c\nb a")
        assert not g.unit_weights
        assert g.degrees.tolist() == [2.0, 3.0, 1.0]


@st.composite
def weighted_graphs(draw):
    """Small non-unit graphs: self-loops, trailing isolated nodes, repeated
    unweighted pairs (weight 2.0), one-entry rows and rows of equal weights."""
    ids = draw(st.integers(1, 8))
    node = st.integers(0, ids - 1)
    kind = draw(st.sampled_from(["weighted", "equal", "repeated"]))
    if kind == "repeated":
        edges = draw(st.lists(st.tuples(node, node), min_size=2, max_size=30))
        edges.append(edges[0])
    else:
        w = st.just(draw(WEIGHTS)) if kind == "equal" else WEIGHTS
        edges = draw(st.lists(st.tuples(node, node, w), min_size=1, max_size=30))
    top = max(max(e[0], e[1]) for e in edges) + 1
    g = Graph.from_edges(edges, n=top + draw(st.integers(0, 3)))
    assume(not g.unit_weights)
    return g


def slot_offsets(g):
    """Each CSR slot's offset in its row, as float64."""
    cnt = np.diff(g.indptr)
    return (np.arange(g.indices.size) - np.repeat(g.indptr[:-1], cnt)).astype(np.float64)


def wide_star(leaves=100_000, seed=5):
    """A hub joined to ``leaves`` leaves by lognormal weights: one row long
    enough that offset plus keep probability rounds in most of its slots."""
    w = np.random.default_rng(seed).lognormal(0.0, 2.0, leaves)
    return Graph(leaves + 1, np.zeros(leaves, np.int64), np.arange(1, leaves + 1), w)


def step_by_keep_probability(g, nodes, u):
    """The step by keep probabilities, ``x - floor(x) >= prob[j]``, as
    array code: the test the cached thresholds replace."""
    prob, pair, row_len = _build_alias(g.indptr, g.indices, g.weights, g.degrees)
    x = u * row_len[nodes]
    k = x.astype(np.int64)
    j = g.indptr[nodes] + k
    alias = x - k >= prob[j]
    return pair[2 * j + alias].astype(np.int64)


def implied_probabilities(g, prob, alias_node):
    """Per slot, the chance an alias draw on its row picks its neighbour:
    (prob + sum of 1-prob over the row's slots aliased to it) / cnt."""
    out = np.empty_like(prob)
    for v in range(g.n):
        a, b = g.indptr[v], g.indptr[v + 1]
        for s in range(a, b):
            gave = [1.0 - prob[t] for t in range(a, b) if alias_node[t] == g.indices[s]]
            out[s] = (prob[s] + sum(gave)) / (b - a)
    return out


class TestAliasTables:
    @settings(max_examples=200, deadline=None)
    @given(weighted_graphs())
    def test_tables_give_each_neighbour_its_weight(self, g):
        prob, pair, _ = _build_alias(g.indptr, g.indices, g.weights, g.degrees)
        alias_node = pair[1::2]
        rows = np.repeat(np.arange(g.n), np.diff(g.indptr))
        want = g.weights / g.degrees[rows]
        assert np.abs(implied_probabilities(g, prob, alias_node) - want).max() <= 1e-12
        assert ((prob >= 0.0) & (prob <= 1.0)).all()

    @settings(max_examples=200, deadline=None)
    @given(weighted_graphs())
    def test_aliases_stay_in_their_row(self, g):
        _, pair, _ = g._alias_tables()
        alias_node = pair[1::2]
        for v in range(g.n):
            a, b = g.indptr[v], g.indptr[v + 1]
            assert set(alias_node[a:b].tolist()) <= set(g.indices[a:b].tolist())

    @settings(max_examples=200, deadline=None)
    @given(weighted_graphs())
    def test_tables_match_loop_reference(self, g):
        prob, pair, _ = _build_alias(g.indptr, g.indices, g.weights, g.degrees)
        assert pair.size == 2 * g.indices.size
        assert np.array_equal(pair[0::2], g.indices)
        alias_node = pair[1::2]
        for v in np.flatnonzero(np.diff(g.indptr)):
            a, b = g.indptr[v], g.indptr[v + 1]
            want_prob, want_alias = alias_row_reference(g, v)
            assert prob[a:b].tobytes() == np.array(want_prob).tobytes()
            assert alias_node[a:b].tolist() == want_alias

    @settings(max_examples=200, deadline=None)
    @given(weighted_graphs())
    def test_step_matches_loop_reference_at_boundaries(self, g):
        nodes, u = alias_boundary_draws(g, np.flatnonzero(np.diff(g.indptr)))
        assert u.max() == np.nextafter(1.0, 0.0)
        got = step_many(g, nodes, u)
        assert np.array_equal(got, step_many_by_alias_loop(g, nodes, u))

    @settings(max_examples=200, deadline=None)
    @given(weighted_graphs())
    def test_blocks_build_the_same_tables(self, g):
        whole = _build_alias(g.indptr, g.indices, g.weights, g.degrees)
        for block in (1, 2, 3):
            with mock.patch.object(graph_module, "_ALIAS_BLOCK", block):
                parts = _build_alias(g.indptr, g.indices, g.weights, g.degrees)
            for a, b in zip(whole, parts):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(weighted_graphs())
    def test_thresholds_are_the_smallest_doubles_at_offset_plus_prob(self, g):
        self.check_thresholds(g)

    def test_thresholds_on_a_wide_star(self):
        g = wide_star()
        bumped = self.check_thresholds(g)
        assert bumped > 10_000

    @staticmethod
    def check_thresholds(g):
        # thr - off and nextafter(thr, -inf) - off are exact (Sterbenz), so
        # these are exact tests of "smallest double >= off + prob"
        prob = _build_alias(g.indptr, g.indices, g.weights, g.degrees)[0]
        thr = g._alias_tables()[0]
        off = slot_offsets(g)
        assert (thr - off >= prob).all()
        assert (np.nextafter(thr, -np.inf) - off < prob).all()
        return int((thr != off + prob).sum())  # slots moved up one ulp

    @pytest.mark.parametrize("make", [
        pytest.param(wide_star, id="wide-star"),
        pytest.param(lambda: random_small_graph(7, "weighted"), id="small"),
        pytest.param(lambda: Graph(3000, *(np.random.default_rng(9).integers(0, 3000, (2, 400_000))
                                          ** 2 // 3000), np.ones(400_000)), id="multigraph"),
    ])
    def test_step_by_thresholds_equals_step_by_keep_probability(self, make):
        g = make()
        assert not g.unit_weights
        rows = np.flatnonzero(np.diff(g.indptr))
        nodes, u = alias_boundary_draws(g, rows)
        rng = np.random.default_rng(1)
        nodes = np.concatenate([nodes, rng.choice(rows, 300_000)])
        u = np.concatenate([u, rng.random(300_000)])
        assert np.array_equal(step_many(g, nodes, u), step_by_keep_probability(g, nodes, u))

    def test_build_peak_memory_is_near_the_tables(self):
        # a skewed weighted graph of about 600k slots, nine or more blocks
        rng = np.random.default_rng(12)
        p = (np.arange(50_000) + 1.0) ** -0.8
        ends = rng.choice(50_000, size=(300_000, 2), p=p / p.sum())
        g = Graph(50_000, ends[:, 0], ends[:, 1], rng.integers(1, 10, 300_000).astype(float))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tables = g._alias_tables()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        kept = sum(t.nbytes for t in tables)
        ratio = (peak - before) / kept
        assert ratio < 2, ratio

    def test_equal_weights_rounding_below_one(self):
        # 6 * w / (((w + w) + w) ...) rounds to 1 - 2**-53: no slot is heavy,
        # so each slot aliases itself and is always kept
        w = 0.9308141418622209
        g = Graph.from_edges([(0, i, w) for i in range(1, 7)])
        p = w * 6 / g.degrees[0]
        assert p < 1.0
        prob, pair, _ = _build_alias(g.indptr, g.indices, g.weights, g.degrees)
        assert prob[:6].tolist() == [p] * 6
        assert pair[1:12:2].tolist() == g.indices[:6].tolist()
        u = np.r_[(np.arange(6) + 0.5) / 6, np.nextafter(1.0, 0.0)]
        got = step_many(g, np.zeros(7, dtype=np.int64), u)
        assert got.tolist() == g.indices[:6].tolist() + [g.indices[5]]

    def test_rounding_past_the_rows_last_heavy(self):
        # row 0 scales to p = [3/7, 11/7, 1 - 2**-52]: the last light's
        # deficit starts at 4/7 + 1 ulp, past the one heavy's excess 4/7, so
        # its alias must be clamped to that heavy, not the next row's
        g = Graph.from_edges([(0, 1, 0.3), (0, 2, 1.1), (0, 3, 0.7), (1, 4, 0.5)])
        prob, pair, _ = _build_alias(g.indptr, g.indices, g.weights, g.degrees)
        assert pair[1:6:2].tolist() == [2, 2, 2]
        assert prob[1] == 1.0

    def test_built_once_on_first_weighted_step(self):
        g = load("a b 3.0\na c 1.0", weighted=True)
        assert g._alias is None
        step_many(g, np.zeros(4, dtype=np.int64), RandomStream(0).random(4))
        tables = g._alias
        step_many(g, np.zeros(4, dtype=np.int64), RandomStream(1).random(4))
        assert g._alias is tables


def reference_arrays(n, merged, labels=None):
    """The dict-of-dicts CSR builder the array build replaced, kept as the
    reference: ``merged`` is ``{(u, v): w}`` with ``u <= v``."""
    adj = [dict() for _ in range(n)]
    for (u, v), w in merged.items():
        adj[u][v] = adj[u].get(v, 0.0) + w
        if v != u:
            adj[v][u] = adj[v].get(u, 0.0) + w
    indptr = np.zeros(n + 1, dtype=np.int64)
    for v in range(n):
        indptr[v + 1] = indptr[v] + len(adj[v])
    nnz = int(indptr[-1])
    indices = np.zeros(nnz, dtype=np.int64)
    weights = np.zeros(nnz, dtype=np.float64)
    for v in range(n):
        for k, (u, w) in enumerate(sorted(adj[v].items())):
            indices[indptr[v] + k] = u
            weights[indptr[v] + k] = w
    degrees = np.add.reduceat(
        np.concatenate([weights, [0.0]]), indptr[:-1]) if n else np.zeros(0)
    degrees[indptr[:-1] == indptr[1:]] = 0.0
    labels = list(labels) if labels is not None else [str(i) for i in range(n)]
    unit = bool((weights == 1.0).all())
    return {
        "n": n, "m": len(merged), "indptr": indptr, "indices": indices,
        "weights": weights, "degrees": degrees, "labels": labels,
        "label_ids": {lab: i for i, lab in enumerate(labels)},
        "total_weight": float(sum(merged.values())), "unit_weights": unit,
        "_alias": None,
    }


def reference_from_edges(edges, n=None):
    merged, max_node = {}, -1
    for e in edges:
        u, v, w = e if len(e) == 3 else (*e, 1.0)
        key = (u, v) if u <= v else (v, u)
        merged[key] = merged.get(key, 0.0) + float(w)
        max_node = max(max_node, u, v)
    return reference_arrays(max_node + 1 if n is None else n, merged)


def reference_load(text, weighted):
    """The line parser the array build replaced, merging into a dict."""
    labels, ids, merged = [], {}, {}

    def intern(label):
        if label not in ids:
            ids[label] = len(labels)
            labels.append(label)
        return ids[label]

    for line_no, raw in enumerate(io.StringIO(text), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if weighted:
            if len(tokens) not in (2, 3):
                raise EdgeListParseError(line_no, f"expected 2 or 3 tokens, got {len(tokens)}")
        elif len(tokens) != 2:
            raise EdgeListParseError(line_no, f"expected 2 tokens, got {len(tokens)}")
        w = 1.0
        if len(tokens) == 3:
            try:
                w = float(tokens[2])
            except ValueError:
                raise EdgeListParseError(line_no, f"non-numeric weight {tokens[2]!r}") from None
            if not (w > 0) or not np.isfinite(w):
                raise EdgeListParseError(line_no, f"weight must be positive, got {tokens[2]}")
        u, v = intern(tokens[0]), intern(tokens[1])
        key = (u, v) if u <= v else (v, u)
        merged[key] = merged.get(key, 0.0) + w
    return reference_arrays(len(labels), merged, labels)


def assert_same_graph(g, ref):
    """Exact equality, down to the bytes and dtype of every array."""
    for name, want in ref.items():
        got = getattr(g, name)
        if isinstance(want, np.ndarray):
            assert got.dtype == want.dtype, name
            assert got.tobytes() == want.tobytes(), name
        else:
            assert type(got) is type(want), name
            assert got == want, name
    assert repr(g.total_weight) == repr(ref["total_weight"])


# A small weight menu makes repeated pairs sum to values with rounding in
# them; the float draws add arbitrary mantissas.
WEIGHTS = st.one_of(st.sampled_from([1.0, 0.1, 0.2, 0.3, 2.5, 1e-3, 7.0]),
                    st.floats(min_value=1e-6, max_value=1e6))


@st.composite
def edge_lists(draw):
    """(edges, n): few distinct ids so pairs repeat, in both directions, and
    self-loops occur; ``n`` is None, or leaves trailing isolated nodes."""
    ids = draw(st.integers(0, 9))
    node = st.integers(0, max(ids - 1, 0))
    weighted = draw(st.booleans())
    edge = st.tuples(node, node, WEIGHTS) if weighted else st.tuples(node, node)
    edges = draw(st.lists(edge, max_size=40)) if ids else []
    top = max((max(e[0], e[1]) for e in edges), default=-1) + 1
    n = draw(st.one_of(st.none(), st.integers(top, top + 3)))
    return edges, n


LABELS = st.sampled_from(["a", "b", "c", "node_7", "Z", "10", "-3", "x.y", "é"])
BLANKS = st.sampled_from([" ", "\t", "  ", " \t "])


@st.composite
def edge_list_texts(draw):
    """Valid edge-list text: comments, blank lines, tabs, CRLF line ends."""
    weighted = draw(st.booleans())
    lines = []
    for _ in range(draw(st.integers(0, 30))):
        kind = draw(st.sampled_from(["edge", "edge", "edge", "blank", "comment"]))
        if kind == "blank":
            line = draw(st.sampled_from(["", " ", "\t", "  \t"]))
        elif kind == "comment":
            line = draw(st.sampled_from(["# header", "#", "  # a b 1"]))
        else:
            parts = [draw(LABELS), draw(LABELS)]
            if weighted and draw(st.booleans()):
                w = draw(WEIGHTS)
                parts.append(draw(st.sampled_from([repr(w), f"{w:.3g}", f"{w:e}"])))
            line = draw(BLANKS).join(parts)
            if draw(st.booleans()):
                line = draw(BLANKS) + line + draw(BLANKS)
            if draw(st.booleans()):
                line += draw(st.sampled_from(["#c", " # trailing a b", "\t#"]))
        lines.append(line + draw(st.sampled_from(["\n", "\r\n"])))
    return "".join(lines), weighted


class TestArrayBuildMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(edge_lists())
    def test_from_edges(self, case):
        edges, n = case
        g = Graph.from_edges(edges, n=n)
        assert_same_graph(g, reference_from_edges(edges, n))
        g.check()

    @settings(max_examples=150, deadline=None)
    @given(edge_list_texts())
    def test_load_edge_list(self, case):
        text, weighted = case
        assert_same_graph(load(text, weighted), reference_load(text, weighted))

    @settings(max_examples=100, deadline=None)
    @given(edge_list_texts(), st.integers(1, 40),
           st.sampled_from(["0", "-1", "nan", "inf", "-inf", "1e999", "w", "a b", ""]))
    def test_load_edge_list_errors(self, case, at, bad):
        # one malformed line inserted among valid ones: same message and line
        text, weighted = case
        lines = text.splitlines(keepends=True)
        lines.insert(min(at, len(lines)), f"p q {bad}\n")
        text = "".join(lines)
        try:
            want = reference_load(text, weighted)
        except EdgeListParseError as exc:
            with pytest.raises(EdgeListParseError) as got:
                load(text, weighted)
            assert str(got.value) == str(exc)
            assert got.value.line_no == exc.line_no
        else:
            assert_same_graph(load(text, weighted), want)

    @pytest.mark.parametrize("n", [0, 1, 4])
    def test_empty(self, n):
        assert_same_graph(Graph.from_edges([], n=n), reference_from_edges([], n))
        assert_same_graph(load("# nothing\n\n"), reference_load("# nothing\n\n", False))
