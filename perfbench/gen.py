"""Seeded synthetic graphs for the benchmark, written as edge-list text.

Chung–Lu power-law graphs: node i gets expected degree proportional to
(i + 1) ** (-1 / (exponent - 1)), and each edge joins two endpoints drawn
independently in proportion to those weights. Self-loops and repeated pairs
are dropped, so an unweighted file has every edge once and the library's
duplicate merging never doubles a weight. Labels are a random permutation
of the node ids, so a label says nothing about the degree.
"""
from __future__ import annotations

from pathlib import Path

import numpy as np


def chung_lu(n: int, m: int, exponent: float, seed: int,
             weighted: bool = False) -> np.ndarray:
    """(k, 2) or (k, 3) array of distinct undirected edges, k close to m.

    Weights, when asked for, are integers drawn uniformly from 1 to 9.
    """
    rng = np.random.default_rng(seed)
    expected = (np.arange(n) + 1.0) ** (-1.0 / (exponent - 1.0))
    cum = np.cumsum(expected)
    cum /= cum[-1]
    draw = int(m * 1.15) + 64  # room for the pairs dropped below
    ends = np.searchsorted(cum, rng.random((draw, 2)), side="right")
    ends = np.minimum(ends, n - 1)
    ends.sort(axis=1)
    ends = ends[ends[:, 0] != ends[:, 1]]
    _, first = np.unique(ends[:, 0] * n + ends[:, 1], return_index=True)
    first.sort()
    edges = ends[first[:m]]
    labels = rng.permutation(n)
    edges = labels[edges]
    if not weighted:
        return edges
    w = rng.integers(1, 10, size=len(edges))
    return np.column_stack([edges, w])


def write_edge_list(edges: np.ndarray, path: Path) -> None:
    """One edge per line, whitespace separated, as ``load_edge_list`` reads it."""
    fmt = " ".join(["%d"] * edges.shape[1])
    text = "\n".join(fmt % tuple(row) for row in edges.tolist())
    path.write_text(text + "\n", encoding="utf-8")
