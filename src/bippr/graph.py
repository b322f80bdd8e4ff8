"""Undirected weighted graph storage, edge-list ingestion, and walk steps."""
from __future__ import annotations

import ctypes
import itertools
import math
import os
import shlex
import sysconfig
import zlib
from typing import Iterable, TextIO

import numpy as np

__all__ = ["Graph", "EdgeListParseError", "load_edge_list"]

# largest n for which every pair key lo*n + hi fits in int64
_MAX_NODES = math.isqrt(np.iinfo(np.int64).max)


class EdgeListParseError(ValueError):
    """Malformed edge-list input; the message carries the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class Graph:
    """Immutable undirected weighted graph in compressed adjacency form.

    Adjacency is CSR-style (indptr / indices / weights). Node labels are
    remapped to dense integer ids at load time; hot loops only ever see
    integers.

    ``unit_weights`` is true when every stored edge weight is exactly 1.0.
    Such a graph samples a neighbor by indexing its row directly; any other
    graph samples from per-row alias tables (see :func:`step_many`), built
    by array code on its first weighted step and cached in ``_alias``, so
    ingest and unit-weight graphs never pay for them. The cache holds each
    slot's absolute alias threshold (the smallest double at or above the
    slot's offset in its row plus its keep probability), the slot pair table
    (the slot's own neighbour and its alias, interleaved, so a step reads
    its node with one gather) and the float64 row lengths the step scales
    its uniforms by. An unweighted edge list that repeats a pair merges it
    to weight 2.0, so its graph is not unit-weight.

    A self-loop is stored once in its node's row and contributes its weight
    once to that node's degree. Isolated nodes are storable, but any walk or
    push starting from one fails fast.

    ``_slots`` holds the graph's idle length-n int slot array, every entry
    -1, which push state borrows as its sparse-set slot map (see
    ``push._SlotMap``); it is created on the first push, like ``_alias`` on
    the first weighted step. It is a list so that taking the array off the
    graph is one atomic ``pop``.

    ``_walk_args`` caches the walk kernel and the graph's part of its
    arguments, with the arrays they point into, built on the first walk, so
    a step reads no graph array's address. ``_spaces`` holds the graph's
    idle push space (``push._Space``), the arrays the compiled push works
    in, with the graph's part of its arguments, made by the first push and
    kept like the slot array.
    """

    __slots__ = ("n", "m", "indptr", "indices", "weights", "degrees",
                 "labels", "label_ids", "unit_weights", "total_weight",
                 "_alias", "_slots", "_walk_args", "_spaces")

    def __init__(self, n: int, src, dst, weight,
                 labels: list[str] | dict[str, int] | None = None, *,
                 _columns: list | None = None):
        """Build the graph from one entry per input edge, in input order.

        ``src``, ``dst`` and ``weight`` are equal-length sequences: edge ``i``
        joins ``src[i]`` and ``dst[i]`` with weight ``weight[i]``. Every id
        must lie in ``[0, n)`` and every weight must be finite and positive;
        both are checked before anything is merged. ``labels`` names the
        nodes in id order (default ``"0"`` to ``"n-1"``); a dict mapping each
        label to its id, as :func:`load_edge_list` builds, becomes
        ``label_ids`` as it is.

        The build is array code throughout. Each edge is canonicalised to
        ``(lo, hi)``; repeated pairs (in either direction) merge by one sort
        of ``lo*n + hi`` and ``np.bincount``, which adds each pair's weights
        in input order starting from 0.0, so a merged weight is the left fold
        ``((0.0 + w1) + w2) + ...``. ``total_weight`` is Python's ``sum``
        over the merged weights in first-appearance order. The CSR is one
        sort of the stored entries by ``row*n + col``; each row lists its
        neighbors in increasing id order.

        ``_columns``, given by :func:`load_edge_list` with the three
        sequences ``None``, is the list ``[src, dst, weight]`` in their place.
        The build empties it on entry and drops each array after its last
        use, so arrays that nothing else holds are freed during the build;
        arrays passed as arguments stay held by the call until it returns.
        """
        if _columns is None:
            _columns = [src, dst, weight]
        del src, dst, weight
        src, dst, w = (np.asarray(c, dtype=t) for c, t in
                       zip(_columns, (np.int64, np.int64, np.float64)))
        _columns.clear()
        if not (src.ndim == 1 and src.shape == dst.shape == w.shape):
            raise ValueError("src, dst and weight must be 1-d and of equal length")
        if n > _MAX_NODES:
            raise ValueError(f"n={n} exceeds {_MAX_NODES}: pair keys n*n overflow int64")
        bad = (src < 0) | (src >= n) | (dst < 0) | (dst >= n)
        if bad.any():
            i = int(bad.argmax())
            raise ValueError(f"edge ({src[i]}, {dst[i]}) out of range for n={n}")
        bad = ~((w > 0.0) & (w < np.inf))
        if bad.any():
            i = int(bad.argmax())
            raise ValueError(f"edge ({src[i]}, {dst[i]}) has weight {w[i]}; "
                             "weights must be positive and finite")

        # The unstable sort groups each pair's edges. A run's smallest input
        # position is the pair's first appearance and its rank each edge's
        # pair index: the keys, first positions and inverse of np.unique.
        key = np.minimum(src, dst)
        key *= n
        key += np.maximum(src, dst)
        del src, dst
        order = np.argsort(key)
        key = key[order]
        new = np.diff(key, prepend=-1) != 0  # keys are nonnegative
        starts = np.flatnonzero(new)
        first = np.zeros(key.size, dtype=bool)
        first[np.minimum.reduceat(order, starts)] = True
        inv = np.empty(order.size, dtype=np.int64)
        inv[order] = np.cumsum(new) - 1
        lo, hi = np.divmod(key[starts], n)
        del key, order, new, starts
        # astype: bincount returns int64 when there are no edges
        merged = np.bincount(inv, weights=w, minlength=lo.size).astype(
            np.float64, copy=False)
        del w
        by_first = merged[inv[first]]  # first-appearance order, for total_weight
        total_weight = float(sum(itertools.chain.from_iterable(
            by_first[i:i + 65536].tolist() for i in range(0, lo.size, 65536))))
        del inv, first, by_first
        self.m = int(lo.size)
        off = lo != hi
        rows = np.concatenate([lo, hi[off]])
        cols = np.concatenate([hi, lo[off]])
        del lo, hi
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
        # the CSR key row*n + col, in place; distinct, so an unstable sort is exact
        rows *= n
        rows += cols
        order = np.argsort(rows)
        del rows
        indices = cols[order]
        del cols
        weights = np.concatenate([merged, merged[off]])
        del merged, off
        weights = weights[order]

        self.n = n
        self.indptr = indptr
        self.indices = indices
        self.weights = weights
        self.degrees = np.add.reduceat(
            np.concatenate([weights, [0.0]]), indptr[:-1]
        ) if n else np.zeros(0)
        # reduceat yields garbage for empty rows: zero them explicitly
        empty = indptr[:-1] == indptr[1:]
        if empty.any():
            self.degrees[empty] = 0.0
        self.labels = list(labels) if labels is not None else list(map(str, range(n)))
        if len(self.labels) != n:
            raise ValueError("label count does not match node count")
        self.label_ids = (labels if isinstance(labels, dict)
                          else dict(zip(self.labels, range(n))))
        self.total_weight = total_weight
        self.unit_weights = bool((weights == 1.0).all())
        self._alias = None
        self._slots: list[np.ndarray] = []
        self._walk_args = None
        self._spaces: list = []

    @classmethod
    def from_edges(cls, edges: Iterable[tuple], n: int | None = None) -> "Graph":
        """Build from (u, v) or (u, v, w) integer tuples, merging duplicates.

        ``n`` defaults to one more than the largest id. A missing weight is
        1.0; every given weight must be finite and positive.
        """
        src: list[int] = []
        dst: list[int] = []
        wts: list[float] = []
        for e in edges:
            if len(e) == 3:
                u, v, w = e
            else:
                u, v = e
                w = 1.0
            src.append(u)
            dst.append(v)
            wts.append(w)
        if n is None:
            n = max(max(src, default=-1), max(dst, default=-1)) + 1
        return cls(n, src, dst, wts)

    def _node(self, v) -> int:
        """v as an int id in [0, n); bools and non-integral values are rejected."""
        if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
            raise ValueError(f"node id must be an integer, got {v!r}")
        if not (0 <= v < self.n):
            raise ValueError(f"node {v} out of range [0, {self.n})")
        return int(v)

    def degree(self, v: int) -> float:
        return float(self.degrees[self._node(v)])

    def is_isolated(self, v: int) -> bool:
        v = self._node(v)
        return bool(self.indptr[v] == self.indptr[v + 1])

    def require_walkable(self, v: int) -> None:
        """Reject non-integer, out-of-range or isolated nodes as walk/push endpoints."""
        if self.is_isolated(v):
            raise ValueError(f"node {self.labels[v]!r} is isolated")

    def neighbors(self, v: int) -> tuple[np.ndarray, np.ndarray]:
        v = self._node(v)
        a, b = self.indptr[v], self.indptr[v + 1]
        return self.indices[a:b], self.weights[a:b]

    def node_id(self, label: str) -> int:
        if label not in self.label_ids:
            raise KeyError(f"unknown node label {label!r}")
        return self.label_ids[label]

    def _alias_tables(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(thr, pair, row_len)``, built on first use: one absolute alias
        threshold per CSR slot (see :func:`_thresholds`), two ``pair``
        entries per slot (its own neighbour, then its alias; the aliases are
        the view ``pair[1::2]``), and each row's length as a float64."""
        if self._alias is None:
            prob, pair, row_len = _build_alias(self.indptr, self.indices, self.weights,
                                               self.degrees)
            self._alias = (_thresholds(prob, self.indptr), pair, row_len)
        return self._alias

    def check(self) -> None:
        """Verify adjacency symmetry and the degree-sum identity. The CSR keys
        ``row*n + col`` must strictly increase (rows sorted, no entry repeated),
        and one sort by the transposed key ``col*n + row`` must give back the
        CSR's own (row, col) pairs and weights, entry for entry."""
        rows, cols = np.repeat(np.arange(self.n), np.diff(self.indptr)), self.indices
        rising = bool((np.diff(rows * self.n + cols) > 0).all())
        order = np.argsort(cols * self.n + rows)  # unstable: rising keys are distinct
        if not (rising and np.array_equal(cols[order], rows) and np.array_equal(rows[order], cols)
                and np.array_equal(self.weights[order], self.weights)):
            raise ValueError("adjacency is not symmetric")
        loop_mass = float(self.weights[rows == self.indices].sum())
        expected = 2.0 * self.total_weight - loop_mass
        if abs(float(self.degrees.sum()) - expected) > 1e-9 * max(1.0, expected):
            raise ValueError("degree sum does not match total edge weight")


def load_edge_list(source: TextIO | Iterable[str], weighted: bool = False) -> Graph:
    """Parse an edge-list text stream into a Graph.

    Each non-comment line is "u v" (or "u v w" when ``weighted``). '#' starts
    a comment, even inside a token; blank lines are ignored. Labels are
    arbitrary strings mapped to dense ids in first-appearance order;
    duplicate edges sum their weights. The loop only tokenises, interns
    labels and checks weights; ``Graph`` builds from its lists as arrays.
    """
    ids: dict[str, int] = {}
    intern = ids.setdefault
    src, dst, wts = [], [], []
    add_src, add_dst, add_w = src.append, dst.append, wts.append
    for line_no, raw in enumerate(source, start=1):
        tokens = (raw.split("#", 1)[0] if "#" in raw else raw).split()
        if len(tokens) == 2:
            u, v = tokens
            if weighted:
                add_w(1.0)
        elif not tokens:
            continue
        elif weighted and len(tokens) == 3:
            u, v, token = tokens
            try:
                w = float(token)
            except ValueError:
                raise EdgeListParseError(line_no, f"non-numeric weight {token!r}") from None
            if not 0.0 < w < math.inf:
                raise EdgeListParseError(line_no, f"weight must be positive, got {token}")
            add_w(w)
        else:
            raise EdgeListParseError(
                line_no, f"expected {'2 or 3' if weighted else 2} tokens, got {len(tokens)}")
        add_src(intern(u, len(ids)))
        add_dst(intern(v, len(ids)))

    # the lists (held by the bound appends too) are freed before the build,
    # and the arrays are held only by the list the build empties
    del add_src, add_dst, add_w
    columns = [np.array(src, dtype=np.int64)]
    del src
    columns.append(np.array(dst, dtype=np.int64))
    del dst
    columns.append(np.array(wts, dtype=np.float64) if weighted else np.ones(columns[0].size))
    del wts
    return Graph(len(ids), None, None, None, labels=ids, _columns=columns)


def step_many(g: Graph, pos: np.ndarray, u: np.ndarray,
              live: np.ndarray | None = None) -> np.ndarray | None:
    """Advance walk positions one transition each, w_{vu}/d_v per neighbor,
    driven by one uniform in [0, 1) per step, in one call of the compiled
    kernel (``_walk.c``, see :func:`_load_kernel`).

    ``step_many(g, nodes, u)`` steps each ``nodes[i]`` with ``u[i]`` and
    returns the next nodes as a fresh int64 array of the shape of ``nodes``;
    ``nodes`` and ``u`` are left as they were. ``step_many(g, pos, u, live)``
    steps a block of rounds in place and returns None: round k steps walks
    ``0 .. live[k]-1`` with the next ``live[k]`` uniforms of ``u``, which
    holds ``live.sum()`` of them, laid out round by round. A 2-d ``pos`` is
    ``live.size + 1`` rows of a position table, round k writing row k+1 from
    row k; a 1-d ``pos`` is one row, stepped in place. Here ``pos`` is C
    contiguous int64, ``u`` C contiguous float64 and ``live`` C contiguous
    int64. The caller draws ``u``, so the draw order that fixes every seeded
    answer is decided by the samplers in :mod:`bippr.walk`, not here.

    A step picks slot ``j = indptr[v] + floor(x)`` of v's row from ``x =
    u*len_v``, with ``len_v`` the row length as a float64: ``degrees`` on
    unit-weight graphs, where it is the exact integer count, and a cached
    array built with the alias tables on other graphs. O(1) per step.

    - On unit-weight graphs the slot's neighbor is the step. No clamp is
      needed: for a double ``u < 1`` and an integer ``1 <= d < 2^53``,
      ``fl(u*d) < d``. As ``u <= 1 - 2^-53``, the exact product lies at
      least ``d*2^-53`` below d. If d is a power of two the product is exact;
      otherwise, with ``2^e < d < 2^(e+1)``, the doubles below d are
      ``2^(e-52)`` apart and ``d*2^-53 > 2^(e-53)`` is more than half that
      gap, so rounding to nearest stays below d. The row offset is added
      after the floor, so a large ``indptr[v]`` cannot carry ``x`` into the
      next row's slot.
    - On other graphs, per-row alias tables (Walker 1977): slot j is kept
      when ``x - floor(x) < prob[j]`` and swapped for its alias otherwise.
      The step tests ``x >= thr[j]`` instead, ``thr[j]`` the smallest double
      at or above ``k + prob[j]``, k the slot's offset in its row (see
      :func:`_thresholds`). It is the same test: ``x - k`` is exact
      (Sterbenz 1974: ``k <= x < k + 1 <= 2k``, or k = 0), so ``x - k >=
      prob[j]`` holds exactly when the double x is at least the real number
      ``k + prob[j]``, that is at least the smallest double at or above it.
      The slot pair table holds slot j's own neighbour at ``2j`` and its
      alias at ``2j + 1``, so the step is one read, ``pair[2j + alias]``,
      from a table of the smallest signed type that holds every node id.

    The kernel checks every step before it reads: a node outside [0, n) or
    isolated raises ``IndexError``, and a uniform outside [0, 1)
    ``ValueError``; the steps before the bad one are taken.
    """
    if live is None:
        if u.shape != pos.shape:  # a length-1 u would otherwise broadcast
            raise ValueError(f"need one uniform per node, got {u.shape} for {pos.shape}")
        src = np.ascontiguousarray(pos.astype(np.int64, casting="same_kind", copy=False))
        out = np.empty_like(src)
        _run_kernel(g, src, out.ctypes.data, 0, np.ascontiguousarray(u, np.float64),
                    np.array([src.size]), src.size)
        return out
    table = pos.ndim == 2
    if not (pos.dtype == np.int64 and u.dtype == np.float64 and live.dtype == np.int64
            and pos.flags.c_contiguous and u.flags.c_contiguous and live.flags.c_contiguous
            and pos.ndim == 1 + table and (not table or pos.shape[0] == live.size + 1)):
        raise ValueError("a block of rounds needs C-contiguous int64 positions, one row or "
                         "a row per round plus one, float64 uniforms and int64 live counts")
    width = pos.shape[-1]
    _run_kernel(g, pos, pos.ctypes.data + table * pos.strides[0], table * width, u, live, width)
    return None


def _run_kernel(g: Graph, src: np.ndarray, dst: int, stride: int, u: np.ndarray,
                live: np.ndarray, width: int) -> None:
    """One kernel call: round k reads ``src`` from slot ``k*stride`` and
    writes from address ``dst`` plus ``k*stride`` slots; raise at a bad
    step or a bad block."""
    if g._walk_args is None:
        if g.unit_weights:
            kernel, arrays = _KERNELS[np.dtype(np.int64)], (g.indptr, g.degrees, g.indices, None)
        else:
            thr, pair, row_len = g._alias_tables()
            kernel, arrays = _KERNELS[pair.dtype], (g.indptr, row_len, pair, thr)
        g._walk_args = (kernel, tuple(None if a is None else a.ctypes.data for a in arrays),
                        arrays)
    kernel, args, _ = g._walk_args
    bad = kernel(*args, g.n, src.ctypes.data, dst, stride, u.ctypes.data, u.size,
                 live.ctypes.data, live.size, width)
    if bad == -1:
        return
    if bad == -2:
        raise ValueError(f"live counts must lie in [0, {width}] and sum to the "
                         f"{u.size} uniforms")
    ends = np.cumsum(live)
    k = int(np.searchsorted(ends, bad, "right"))
    v = int(src.reshape(-1)[k * stride + bad - ends[k] + live[k]])
    if not 0 <= v < g.n:
        raise IndexError(f"step from node {v}, out of range [0, {g.n})")
    if g.indptr[v] == g.indptr[v + 1]:
        raise IndexError(f"step from node {v}, which is isolated")
    raise ValueError(f"step with uniform {float(u[bad])!r}, outside [0, 1)")


_KERNEL_FLAGS = ["-O2", "-ffp-contract=off", "-shared", "-fPIC"]


def _load_kernel() -> ctypes.CDLL:
    """The kernels of ``_walk.c``, compiled on the first import and loaded
    with ctypes.

    The compiler is Python's own (``sysconfig`` ``CC``), and the flags keep
    every float operation as written: no FMA contraction, no
    ``-ffast-math``, no ``-march``, so a step's or a push's bits do not
    depend on the build. The library is cached in ``$XDG_CACHE_HOME/bippr``
    (by default ``~/.cache/bippr``, made with mode 0700) as
    ``walk-<crc>.so``, ``<crc>`` the CRC-32 of the key: the source, the
    compiler, the flags and the platform. The library holds its full key
    as the array ``bippr_key``, and a library whose key differs, or that
    does not load, is built anew, so a changed source or a CRC collision
    never loads a stale kernel. A build compiles to a temporary name in the
    cache, loads it from there and moves it into place with ``os.replace``,
    so processes that import bippr at once each load a whole library; it
    then removes every other ``walk-*.so`` of the cache, stale builds of
    other sources, tolerating one that another process removed first.
    Without a compiler the import fails with one line.
    """
    with open(os.path.join(os.path.dirname(__file__), "_walk.c"), "rb") as fh:
        source = fh.read()
    cc = shlex.split(sysconfig.get_config_var("CC") or "")
    if not cc:
        raise ImportError("bippr needs a C compiler to build its walk kernel "
                          "on first import, and Python names none (sysconfig CC)")
    key = b"\0".join([source, *(x.encode() for x in cc + _KERNEL_FLAGS),
                      sysconfig.get_platform().encode()])
    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):
        base = os.path.join(os.path.expanduser("~"), ".cache")
    cache = os.path.join(base, "bippr")
    name = f"walk-{zlib.crc32(key):08x}.so"
    try:
        lib = ctypes.CDLL(os.path.join(cache, name))
        if _library_key(lib) == key:
            return lib
    except OSError:  # not built yet, or removed since
        pass
    return _build_kernel(cc, source, key, cache, name)


def _library_key(lib: ctypes.CDLL) -> bytes | None:
    try:
        size = ctypes.c_int64.in_dll(lib, "bippr_key_size").value
        return bytes((ctypes.c_ubyte * size).in_dll(lib, "bippr_key"))
    except ValueError:  # a library without the key
        return None


def _build_kernel(cc: list[str], source: bytes, key: bytes, cache: str,
                  name: str) -> ctypes.CDLL:
    """Compiles ``source`` with its ``key`` appended into ``cache/name``; see
    :func:`_load_kernel`."""
    import subprocess
    import tempfile

    os.makedirs(cache, mode=0o700, exist_ok=True)
    fd, tmp = tempfile.mkstemp(".so", "build-", cache)
    os.close(fd)
    keyed = source + (f"\nconst unsigned char bippr_key[] = {{{','.join(map(str, key))}}};\n"
                      f"const int64_t bippr_key_size = {len(key)};\n").encode()
    try:
        subprocess.run([*cc, *_KERNEL_FLAGS, "-x", "c", "-", "-o", tmp],
                       input=keyed, capture_output=True, check=True)
        lib = ctypes.CDLL(tmp)
        os.replace(tmp, os.path.join(cache, name))
    except FileNotFoundError:
        raise ImportError(f"bippr needs a C compiler to build its walk kernel on "
                          f"first import, and {cc[0]!r} was not found") from None
    except subprocess.CalledProcessError as e:
        why = e.stderr.decode(errors="replace").strip().splitlines() or ["no output"]
        raise ImportError(f"bippr could not build its walk kernel with "
                          f"{cc[0]!r}: {why[-1]}") from None
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    for old in os.listdir(cache):
        if old != name and old.startswith("walk-") and old.endswith(".so"):
            try:
                os.unlink(os.path.join(cache, old))
            except FileNotFoundError:  # removed by another process first
                pass
    return lib


_LIB = _load_kernel()
_KERNELS = {}
for _t in (np.int8, np.int16, np.int32, np.int64):
    _kernel = getattr(_LIB, f"walk_{np.dtype(_t).name}_t")
    _kernel.restype = ctypes.c_int64
    _kernel.argtypes = ([ctypes.c_void_p] * 4 + [ctypes.c_int64]
                        + [ctypes.c_void_p] * 2 + [ctypes.c_int64]
                        + [ctypes.c_void_p, ctypes.c_int64] * 2 + [ctypes.c_int64])
    _KERNELS[np.dtype(_t)] = _kernel
del _t, _kernel


_ALIAS_BLOCK = 1 << 16  # slots per block of the alias build: bounds its temporaries


def _build_alias(indptr, indices, weights, degrees) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-row alias tables by the prefix-sum sweep (Huebschle-Schneider and
    Sanders, ESA 2019), array code only.

    Row v's entries are scaled to ``p = w*cnt_v/d_v`` (mean 1). Entries with
    ``p < 1`` are light, the rest heavy, each taken in CSR order; ``D`` and
    ``E`` are the row-local inclusive prefix sums of the light deficits
    ``1-p`` and the heavy excesses ``p-1``. Light ``i`` keeps ``p`` and
    aliases the first heavy of its row with ``E_j >= D_{i-1}``. Heavy ``j``
    keeps ``1 + E_j - D_{i*}``, ``i*`` the first light of its row with
    ``D_{i*} > E_j``, and aliases the next heavy; the row's last heavy (or
    a heavy with no such light) keeps 1. Every alias is clamped into its own
    row; a row that rounding left without a heavy aliases each slot to itself.

    Every step is row-local, so the rows are built in consecutive blocks of
    at most ``_ALIAS_BLOCK`` slots (a longer row is a block of its own), each
    writing its part of the outputs: the build holds its outputs plus one
    block's temporaries, and gives the same bytes as one pass over all rows.

    Returns ``(prob, pair, cnt_v as float64)``. ``pair`` interleaves each
    slot's neighbour ``indices[j]`` at ``2j`` with its alias at ``2j + 1``,
    in the smallest signed type that holds every node id; the aliases are
    written through the view ``pair[1::2]``, so there is no separate alias
    array.
    """
    n = indptr.size - 1
    prob = np.empty(weights.size)
    # the smallest signed type that holds every node id: at n=20k a quarter
    # of int64's memory, and the step's result is still int64
    pair = np.empty(2 * weights.size, np.min_scalar_type(-n))
    r0 = 0
    while r0 < n:
        # the rows from r0 that fit in one block, and at least one row
        r1 = max(r0 + 1, int(np.searchsorted(indptr, indptr[r0] + _ALIAS_BLOCK, "right")) - 1)
        a, b = indptr[r0], indptr[r1]
        _alias_rows(indptr[r0:r1 + 1] - a, indices[a:b], weights[a:b], degrees[r0:r1],
                    prob[a:b], pair[2 * a:2 * b])
        r0 = r1
    return prob, pair, np.diff(indptr).astype(np.float64)


def _alias_rows(indptr, indices, weights, degrees, prob, pair) -> None:
    """:func:`_build_alias` on one block of rows, ``indptr`` starting at 0,
    writing ``prob`` and ``pair`` in place."""
    n = indptr.size - 1
    cnt = np.diff(indptr)
    np.multiply(weights, np.repeat(cnt, cnt), out=prob)
    prob /= np.repeat(degrees, cnt)
    light = prob < 1.0
    li = np.flatnonzero(light)
    hi = np.flatnonzero(~light)
    del light
    nl = np.diff(np.searchsorted(li, indptr))
    nh = cnt - nl
    lrow = np.repeat(np.arange(n), nl)
    hrow = np.repeat(np.arange(n), nh)
    D = _row_cumsum(1.0 - prob[li], nl)
    E = _row_cumsum(prob[hi] - 1.0, nh)
    d_before = np.zeros_like(D)
    d_before[1:] = D[:-1]
    d_before[(np.cumsum(nl) - nl)[nl > 0]] = 0.0
    h_first = np.cumsum(nh) - nh
    last = np.zeros(hi.size, dtype=bool)
    last[(h_first + nh - 1)[nh > 0]] = True

    # every slot starts out as its own alias
    pair[0::2] = indices
    pair[1::2] = indices
    alias_node = pair[1::2]
    # complex keys order lexicographically: by row, then by prefix sum
    heavy_key = _keys(hrow, E)
    a = np.searchsorted(heavy_key, _keys(lrow, d_before), side="left")
    del d_before
    a = np.minimum(a, h_first[lrow] + nh[lrow] - 1)
    has = nh[lrow] > 0
    alias_node[li[has]] = indices[hi[a[has]]]
    del a, has, li
    nxt = np.flatnonzero(~last)
    alias_node[hi[nxt]] = indices[hi[nxt + 1]]
    del nxt

    # first light past E_j, if any, and whether it lies in heavy j's row
    b = np.searchsorted(_keys(lrow, D), heavy_key, side="right")
    del heavy_key
    d_star = np.append(D, 0.0)[b]
    shared = (np.append(lrow, -1)[b] == hrow) & ~last
    prob[hi] = np.where(shared, (1.0 + E) - d_star, 1.0)


def _thresholds(prob: np.ndarray, indptr: np.ndarray) -> np.ndarray:
    """Turn ``prob`` into absolute alias thresholds in place, a block of
    ``_ALIAS_BLOCK`` slots at a time, and return it.

    Slot j, at offset k in its row, gets ``thr[j]``, the smallest double at
    or above the real number ``k + prob[j]``. Rounding to nearest gives
    ``fl(k + prob[j])``, which is that double unless it lies below the real
    sum; it does exactly when ``fl(k + prob[j]) - k < prob[j]``, a test that
    is exact because the difference is (Sterbenz 1974: the sum lies in
    ``[k, k + 1]``, within a factor 2 of k, or k = 0), and such a slot moves
    up one ulp, to the next double, which is above the sum.
    """
    for a in range(0, prob.size, _ALIAS_BLOCK):
        p = prob[a:a + _ALIAS_BLOCK]
        slot = np.arange(a, a + p.size)
        off = (slot - indptr[np.searchsorted(indptr, slot, "right") - 1]).astype(np.float64)
        thr = off + p
        up = thr - off < p
        thr[up] = np.nextafter(thr[up], np.inf)
        p[...] = thr
    return prob


def _keys(row: np.ndarray, value: np.ndarray) -> np.ndarray:
    key = np.empty(row.size, dtype=np.complex128)
    key.real = row
    key.imag = value
    return key


def _row_cumsum(x: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """Inclusive prefix sums of ``x`` restarting at each of the consecutive
    segments of lengths ``lens``, each added left to right.

    Segments are padded with zeros to the next power of two and summed as the
    rows of one 2-d ``cumsum`` per width: O(len(x)) memory and work, and at
    most log2(max(lens)) + 1 rounds.
    """
    out = np.empty_like(x)
    starts = np.cumsum(lens) - lens
    _, width = np.frexp(np.maximum(lens - 1, 0))
    for b in np.unique(width):
        rows = np.flatnonzero(width == b)
        cols = np.arange(1 << int(b))
        mask = cols < lens[rows, None]
        idx = (starts[rows, None] + cols)[mask]
        pad = np.zeros(mask.shape)
        pad[mask] = x[idx]
        out[idx] = np.cumsum(pad, axis=1)[mask]
    return out
