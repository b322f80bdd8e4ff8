"""Forward local-update (push) algorithm producing sparse PPR estimates and
residuals, with degree-weighted work accounting."""
from __future__ import annotations

import ctypes
from dataclasses import dataclass

import numpy as np

from .graph import _LIB, Graph
from .walk import _check_alpha, _check_positive, _check_push_work

__all__ = ["PushResult", "approximate_pagerank"]


@dataclass
class PushResult:
    """Sparse estimate vector p and residual vector r after forward push.

    On return every residual ratio r[v]/d_v is <= r_max, each sample drawn
    against r is bounded by d_t*r_max, and degree_work <= 1/(alpha*r_max).

    The state is compact: slot i holds node ``node[i]``, its estimate
    ``p_val[i]`` and its residual ``r_val[i]``, over every node the push
    touched. The dicts ``p`` and ``r`` (for ``--trace-push``) are built on
    demand from these arrays, nonzero entries in slot order, Python floats;
    the query paths read the arrays (:meth:`p_at`, :meth:`residual_dense`).
    """

    node: np.ndarray
    p_val: np.ndarray
    r_val: np.ndarray
    push_count: int
    degree_work: float
    alpha: float
    r_max: float

    @property
    def p(self) -> dict[int, float]:
        return _as_dict(self.node, self.p_val)

    @property
    def r(self) -> dict[int, float]:
        return _as_dict(self.node, self.r_val)

    def p_at(self, v: int) -> float:
        """p[v], 0.0 for a node the push never settled."""
        hit = np.flatnonzero(self.node == v)
        return float(self.p_val[hit[0]]) if hit.size else 0.0

    def residual_dense(self, n: int) -> np.ndarray:
        out = np.zeros(n)
        out[self.node] = self.r_val
        return out


def _as_dict(node: np.ndarray, val: np.ndarray) -> dict[int, float]:
    nz = np.flatnonzero(val)
    return dict(zip(node[nz].tolist(), val[nz].tolist()))


class _SlotMap:
    """A sparse set of nodes over the graph's reusable slot array (Briggs and
    Torczon 1993): ``slot[v]`` is node v's slot in 0..k-1, or -1, and
    ``node[:k]`` lists the members by slot.

    The array is taken off the graph while the map lives, so a map opened
    inside another on the same graph, or in another thread, gets a fresh one;
    on exit only the members' entries are reset to -1 and the array goes
    back to the graph, unless the graph already holds one again.
    ``nodes`` are distinct and claim slots 0..len(nodes)-1.
    """

    def __init__(self, g: Graph, nodes: np.ndarray):
        self.g = g
        try:
            self.slot = g._slots.pop()
        except IndexError:
            self.slot = np.full(g.n, -1, np.int64)
        self.k = nodes.size
        self.node = nodes.astype(np.int64)
        self.slot[nodes] = np.arange(self.k)

    def __enter__(self) -> "_SlotMap":
        return self

    def __exit__(self, *exc) -> None:
        self.slot[self.node[:self.k]] = -1
        if not self.g._slots:
            self.g._slots.append(self.slot)


class _Record(ctypes.Structure):
    """The kernel's ``Push`` record (``_walk.c``), field for field."""

    _fields_ = ([(f, ctypes.c_void_p) for f in ("indptr", "indices", "weights", "degrees",
                                                "slot", "node", "deg")]
                + [(f, ctypes.c_int64) for f in ("k", "cap", "need")]
                + [(f, ctypes.c_void_p) for f in ("front", "touch", "ru", "acc", "bits", "r", "p",
                                                  "qptr", "qslot", "rptr", "rslot", "qval",
                                                  "rval")]
                + [(f, ctypes.c_int64) for f in ("qcap", "rcap", "qneed", "rneed", "level",
                                                 "levels", "pushes", "more")]
                + [(f, ctypes.c_double) for f in ("work", "alpha", "r_max")])


def _check_layout(record: type[ctypes.Structure]) -> None:
    """Raise a one-line ``ImportError`` unless ``record`` lays out the
    kernel's ``Push`` as the compiled library does: the same field names in
    the same order, of the same sizes at the same offsets, and the same
    total size (``push_fields`` and ``push_layout`` in ``_walk.c``). A field
    added on one side only would otherwise show up as memory corruption."""
    size = ctypes.c_int64.in_dll(_LIB, "push_layout_size").value
    layout = list((ctypes.c_int64 * size).in_dll(_LIB, "push_layout"))
    kernel = list(zip(ctypes.c_char_p.in_dll(_LIB, "push_fields").value.decode().split(),
                      layout[1::2], layout[2::2]))
    ours = [(name, getattr(record, name).offset, getattr(record, name).size)
            for name, _ in record._fields_]
    if kernel != ours:
        i = next((i for i, (a, b) in enumerate(zip(kernel, ours)) if a != b),
                 min(len(kernel), len(ours)))
        side = [f"field {f[i][0]!r} of {f[i][2]} bytes at offset {f[i][1]}"
                if i < len(f) else "no field" for f in (kernel, ours)]
        raise ImportError(f"bippr's compiled Push record does not match push._Record: "
                          f"{side[0]} in the kernel, {side[1]} in Python")
    if layout[0] != ctypes.sizeof(record):
        raise ImportError(f"bippr's compiled Push record takes {layout[0]} bytes, "
                          f"push._Record {ctypes.sizeof(record)}")


_check_layout(_Record)
for _kernel in (_LIB.push_pagerank, _LIB.push_levels):
    _kernel.restype = ctypes.c_int64
    _kernel.argtypes = [ctypes.POINTER(_Record), ctypes.c_int64]
del _kernel

_ALL_ROUNDS = (1 << 63) - 1
_FIRST_CAP = 1 << 10  # slots a graph's first push space holds before it first grows


class _Space:
    """The arrays the compiled push works in, over ``cap`` slots, and the
    kernel's record (``_walk.c``'s ``Push``) holding their addresses and the
    graph's. Every per-slot array holds ``cap + 1`` entries: ``node`` and
    ``deg`` (the slot map's members), the scratch ``front``, ``touch``,
    ``ru``, ``acc`` (-1.0 between rounds) and the bitmap ``bits`` (clear
    between rounds), and a PageRank push's residual ``r`` and estimate ``p``
    by slot. An MSTP push logs its levels in ``qslot``/``qval`` and
    ``rslot``/``rval`` (``qcap``/``rcap`` + 1 entries).

    A finished push leaves its space on the graph (``Graph._spaces``), like
    the slot array, with ``r`` and ``p`` zero again, so the graph's next
    push allocates only if its support outgrows every earlier one's. The
    logs are made by the first MSTP push in the space."""

    def __init__(self, g: Graph):
        self.n = g.n
        self.graph = (g.indptr, g.indices, None if g.unit_weights else g.weights, g.degrees)
        self.rec = _Record(*(None if a is None else a.ctypes.data for a in self.graph))
        self.cap = self.qcap = self.rcap = 0
        self.node = self.qslot = self.rslot = np.zeros(0, np.int64)
        self.deg = self.r = self.p = self.qval = self.rval = np.zeros(0)
        self.reserve(_FIRST_CAP, 0)

    def reserve(self, need: int, k: int) -> None:
        """Room for ``need`` slots, at most n: if there is less, every
        per-slot array grows to twice its capacity or more, keeping the first
        ``k`` nodes, degrees, residuals and estimates."""
        if need <= self.cap:
            return
        cap = min(self.n, max(need, 2 * self.cap))
        for name in ("node", "deg", "r", "p"):
            self._set(name, np.zeros(cap + 1, getattr(self, name).dtype), k)
        for name, a in (("front", np.empty(cap + 1, np.int64)),
                        ("touch", np.empty(cap + 1, np.int64)), ("ru", np.empty(cap + 1)),
                        ("acc", np.full(cap + 1, -1.0)),
                        ("bits", np.zeros(cap // 64 + 1, np.uint64))):
            self._set(name, a, 0)
        self.cap = self.rec.cap = cap

    def reserve_logs(self, qneed: int, rneed: int, qend: int, rend: int) -> None:
        """Room for ``qneed`` and ``rneed`` log entries: a shorter log grows
        to twice its capacity or more, keeping its first ``qend`` or ``rend``
        entries."""
        for side, need, end in (("q", qneed, qend), ("r", rneed, rend)):
            if need > getattr(self, side + "cap"):
                cap = max(need, 2 * getattr(self, side + "cap"))
                for name in (side + "slot", side + "val"):
                    self._set(name, np.empty(cap + 1, getattr(self, name).dtype), end)
                setattr(self, side + "cap", cap)
                setattr(self.rec, side + "cap", cap)

    def _set(self, name: str, a: np.ndarray, keep: int) -> None:
        """``a``, holding the first ``keep`` entries of the array it replaces,
        becomes the space's and the record's array ``name``."""
        if keep:
            a[:keep] = getattr(self, name)[:keep]
        setattr(self, name, a)
        setattr(self.rec, name, a.ctypes.data)


class _Push(_SlotMap):
    """A push from s, in slot 0, run by the compiled kernel over the graph's
    slot map, in a space (:class:`_Space`) taken off the graph like the slot
    array. Without ``levels`` it is a PageRank push, whose residual and
    estimate are ``sp.r`` and ``sp.p`` by slot; with ``levels`` = ell_max it
    is an MSTP push, whose levels are logs (:meth:`log`). When an array is
    too short the kernel returns with nothing changed, and :meth:`run` grows
    the space and calls it again."""

    def __init__(self, g: Graph, s: int, r_max: float, alpha: float = 0.0,
                 levels: int | None = None):
        try:
            sp = g._spaces.pop()
        except IndexError:
            sp = _Space(g)
        super().__init__(g, np.array([s], np.int64))
        self.sp, self.levels = sp, levels
        self.node = sp.node
        sp.node[0], sp.deg[0] = s, g.degrees[s]
        rec = self.rec = sp.rec
        rec.slot, rec.k, rec.pushes, rec.more, rec.work = self.slot.ctypes.data, 1, 0, 0, 0.0
        rec.alpha, rec.r_max, rec.level, rec.levels = alpha, r_max, 0, int(levels or 0)
        if levels is None:
            sp.r[0] = 1.0
        else:  # level 0 is slot 0's unit residual
            self.qptr = np.empty(levels + 2, np.int64)
            self.rptr = np.empty(levels + 2, np.int64)
            self.qptr[0], self.rptr[:2] = 0, (0, 1)
            rec.qptr, rec.rptr = self.qptr.ctypes.data, self.rptr.ctypes.data
            sp.reserve_logs(sp.cap, 2 * sp.cap, 0, 0)
            sp.rslot[0], sp.rval[0] = 0, 1.0

    def __exit__(self, *exc) -> None:
        sp = self.sp
        super().__exit__(*exc)
        sp.r[:self.k] = 0.0
        sp.p[:self.k] = 0.0
        if not self.g._spaces:
            self.g._spaces.append(sp)

    def run(self, kernel, on_push, state) -> None:
        """Runs ``kernel`` to the end of the push, calling ``on_push(state())``,
        if given, after every round, which the kernel then runs one at a time."""
        sp, rec, rounds = self.sp, self.rec, _ALL_ROUNDS if on_push is None else 1
        while True:
            pushes = rec.pushes
            short = kernel(rec, rounds)
            self.k = rec.k
            if short:
                sp.reserve(rec.need, self.k)
                self.node = sp.node
                if self.levels is not None:
                    sp.reserve_logs(rec.qneed, rec.rneed, self.qptr[rec.level],
                                    self.rptr[rec.level + 1])
                continue
            if on_push is not None and rec.pushes > pushes:
                on_push(state())
            if not rec.more:
                return

    def log(self, side: str):
        """``(ptr, slot, val)`` of the ``side`` ("q" or "r") level log, copied,
        each level past the kernel's current one empty."""
        known = self.rec.level + (1 if side == "q" else 2)
        ptr = getattr(self, side + "ptr").copy()
        end = ptr[known - 1]
        ptr[known:] = end
        return (ptr, getattr(self.sp, side + "slot")[:end].copy(),
                getattr(self.sp, side + "val")[:end].copy())


def approximate_pagerank(g: Graph, alpha: float, s: int, r_max: float,
                         on_push=None) -> PushResult:
    """Push from a unit of residual mass at s until all ratios r[v]/d_v <= r_max.

    Each push converts an alpha-fraction of the residual at a node into
    settled estimate and spreads the rest to its neighbors in proportion to
    edge weight. The push runs in synchronous rounds (parallel push, Shun et
    al. VLDB 2016): each round pushes every node whose ratio exceeds r_max,
    in slot order, all reading their residuals before any of the round's
    mass lands, until no ratio exceeds it. Each push settles alpha*r_u >
    alpha*r_max*d_u, so degree_work <= 1/(alpha*r_max) holds as for one node
    at a time, and each round is a composition of valid pushes, so the
    invariant pi_s = p + sum_v r[v]*pi_v holds after every round. A push
    whose bound 1/(alpha*r_max) exceeds the walks' budget of 2^32 steps is
    refused before it starts (``ValueError`` naming alpha).

    The whole round loop is one call of the compiled kernel
    (``push_pagerank`` in ``_walk.c``), which returns early only to let the
    slot arrays grow. ``on_push(state)``, if given, is called after every
    round with a snapshot of the state, built as the returned one is; the
    kernel then runs one round per call.
    """
    g.require_walkable(s)
    _check_alpha(alpha)
    _check_positive("r_max", r_max)
    _check_push_work(alpha, r_max)
    with _Push(g, s, r_max, alpha=alpha) as push:

        def state() -> PushResult:
            k, sp = push.k, push.sp
            return PushResult(node=sp.node[:k].copy(), p_val=sp.p[:k].copy(),
                              r_val=sp.r[:k].copy(), push_count=push.rec.pushes,
                              degree_work=push.rec.work, alpha=alpha, r_max=r_max)
        push.run(_LIB.push_pagerank, on_push, state)
        return state()
