"""Dense brute-force oracles: exact PPR, multi-step transition probabilities,
and truncated diffusions. Restricted to desk-scale graphs; every estimator in
this package is property-tested against these."""
from __future__ import annotations

import math

import numpy as np

from .graph import Graph
from .walk import _MAX_WALKS, _check_alpha, _check_count, _check_positive

__all__ = ["exact_ppr", "exact_ppr_from", "exact_ppr_matrix", "exact_mstp",
           "exact_diffusion"]


def _walk_step(g: Graph, shape: tuple[int, ...]):
    """``x -> x @ W``, W = D^{-1} A, for ``x`` of ``shape``: a length-n vector
    or a stack of them. ``(x @ W)[v]`` sums ``x[u] * w_uv / d_u`` over v's CSR
    row: one gather and one ``np.bincount`` by row (stacked rows offset by n),
    which adds in CSR order from 0.0 as a sparse CSR ``x @ W`` does, so the
    sums match scipy's bit for bit. Bins and coefficients are built once."""
    k = shape[0] if len(shape) == 2 else 1
    coef = g.weights / g.degrees[g.indices]
    bins = (np.arange(k)[:, None] * g.n + np.repeat(np.arange(g.n), np.diff(g.indptr))).ravel()
    return lambda x: np.bincount(bins, weights=(x[..., g.indices] * coef).ravel(),
                                 minlength=k * g.n).reshape(shape)


def exact_ppr(g: Graph, alpha: float, s: int, tol: float = 1e-12) -> np.ndarray:
    """PPR vector of source s by power iteration.

    Iterates pi <- alpha*e_s + (1-alpha)*pi W from pi = e_s until the
    successive-iterate infinity-norm difference is <= tol*alpha; the (1-alpha)
    contraction then certifies an infinity-norm error <= tol.
    """
    g.require_walkable(s)
    e_s = np.zeros(g.n)
    e_s[s] = 1.0
    return exact_ppr_from(g, alpha, e_s, tol)


def exact_ppr_from(g: Graph, alpha: float, sigma: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """PPR vector for an arbitrary source distribution sigma (dense, sums to 1)."""
    sigma = np.asarray(sigma, dtype=np.float64)
    if sigma.shape != (g.n,) or (sigma < 0).any() or abs(sigma.sum() - 1.0) > 1e-12:
        raise ValueError("sigma must be a length-n probability distribution")
    if g.n and (sigma[np.diff(g.indptr) == 0] > 0).any():
        raise ValueError("sigma puts mass on an isolated node")
    return _power_iteration(g, alpha, sigma, tol)


def exact_ppr_matrix(g: Graph, alpha: float, tol: float = 1e-12) -> np.ndarray:
    """All-sources PPR matrix Pi with Pi[s] = exact_ppr(g, alpha, s).

    Same iteration and stopping rule as exact_ppr, run on all rows at once.
    Isolated sources yield zero rows.
    """
    I = np.eye(g.n)
    I[np.diff(g.indptr) == 0] = 0.0
    return _power_iteration(g, alpha, I, tol)


def _power_iteration(g: Graph, alpha: float, start: np.ndarray, tol: float) -> np.ndarray:
    """Iterates pi <- alpha*start + (1-alpha)*(pi @ W) from pi = start, a
    vector or one row per source, until no entry moves by more than tol*alpha.
    (1-alpha)^k <= tol*alpha after the iteration cap, so the rule fires by then."""
    _check_alpha(alpha)
    _check_positive("tol", tol)
    step = _walk_step(g, start.shape)
    pi = start.copy()
    max_iter = max(8, int(math.ceil(math.log(tol * alpha) / math.log1p(-alpha))) + 2)
    for _ in range(max_iter):
        nxt = alpha * start + (1.0 - alpha) * step(pi)
        if np.abs(nxt - pi).max() <= tol * alpha:
            return nxt
        pi = nxt
    return pi


def _mstp_levels(g: Graph, s: int, ell_max: int):
    """Yields e_s W^0, ..., e_s W^ell_max, each vector built from the one
    before by one sparse vector-matrix product. A caller that keeps only the
    current vector holds one, so memory does not grow with ell_max (time
    does)."""
    g.require_walkable(s)
    _check_count("ell_max", ell_max, low=0, high=_MAX_WALKS - 1)
    step = _walk_step(g, (g.n,))
    p = np.zeros(g.n)
    p[s] = 1.0
    yield p
    for _ in range(ell_max):
        p = step(p)
        yield p


def exact_mstp(g: Graph, s: int, ell_max: int) -> list[np.ndarray]:
    """[e_s W^0, ..., e_s W^ell_max] by repeated sparse vector-matrix products."""
    return list(_mstp_levels(g, s, ell_max))


def exact_diffusion(g: Graph, weights, s: int) -> np.ndarray:
    """Truncated diffusion sum_l alphas[l] * (e_s W^l); tail mass is the caller's.
    One level vector is held at a time."""
    alphas = np.asarray(weights.alphas, dtype=np.float64)
    out = np.zeros(g.n)
    for a, p in zip(alphas, _mstp_levels(g, s, len(alphas) - 1)):
        out += a * p
    return out
