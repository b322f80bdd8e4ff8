import networkx as nx
import numpy as np
import pytest

from bippr import Graph


def to_graph(nxg: nx.Graph) -> Graph:
    return Graph.from_edges(list(nxg.edges()), n=nxg.number_of_nodes())


def dense_walk_matrix(g: Graph) -> np.ndarray:
    """Dense random-walk matrix W = D^{-1} A; rows of isolated nodes are zero."""
    rows = np.repeat(np.arange(g.n), np.diff(g.indptr))
    W = np.zeros((g.n, g.n))
    W[rows, g.indices] = g.weights / g.degrees[rows]
    return W


def mstp_dicts(state) -> tuple[list[dict], list[dict]]:
    """An MstpState's levels as lists of dicts ``(q, r)``, one dict per level
    mapping node to value, each in the order the push first wrote its entries
    and with Python float values."""
    def dicts(levels):
        cut = levels.ptr[1:-1]
        return [dict(zip(state.node[s].tolist(), v.tolist()))
                for s, v in zip(np.split(levels.slot, cut), np.split(levels.val, cut))]
    return dicts(state.q_levels), dicts(state.r_levels)


def random_connected(n: int, kind: str, seed: int) -> Graph:
    """Deterministic connected random graph, Erdos-Renyi or preferential-attachment."""
    if kind == "er":
        nxg = nx.gnp_random_graph(n, min(1.0, 4.0 / n), seed=seed)
    elif kind == "ba":
        nxg = nx.barabasi_albert_graph(n, 2, seed=seed)
    else:
        raise ValueError(kind)
    comps = sorted(nx.connected_components(nxg), key=min)
    for comp in comps[1:]:
        nxg.add_edge(min(comps[0]), min(comp))
    return to_graph(nxg)


@pytest.fixture
def k2():
    return Graph.from_edges([(0, 1)])


@pytest.fixture
def k3():
    return Graph.from_edges([(0, 1), (1, 2), (0, 2)])


@pytest.fixture
def s3():
    # star: center 0, leaves 1..3
    return Graph.from_edges([(0, 1), (0, 2), (0, 3)])


@pytest.fixture
def path3():
    return Graph.from_edges([(0, 1), (1, 2)])


@pytest.fixture(scope="session")
def g500():
    return random_connected(500, "ba", seed=7)
