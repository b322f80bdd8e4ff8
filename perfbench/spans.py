"""Spans around calls into the library's layers, recorded from outside it.

The traced run rebinds module and class attributes of ``bippr`` to wrappers
that record one span per call: name, start, end, the enclosing span and the
query id, plus the counters the call's arguments and result expose. Spans
stay in memory until the run ends. A wrapped name that no longer exists is
reported as absent, and the time it used to take falls into the enclosing
span's self time; so does the time of any counter that cannot be read.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager

_READ_ERRORS = (AttributeError, KeyError, IndexError, TypeError, ValueError)


def _push(a, res):
    counters = {"pushes": res.push_count, "degree_work": float(res.degree_work),
                "bound_use": res.alpha * res.r_max * float(res.degree_work)}
    try:  # the residual is a dict today; other layouts lose only these two
        values = res.r.values()
        counters.update(residual_nnz=len(values), residual_mass=float(sum(values)))
    except _READ_ERRORS:
        pass
    return counters


def _geometric(a, res):
    return {"walks": int(a["num"]), "steps": int(res[1])}


def _fixed(a, res):
    return {"walks": int(a["num"]), "steps": int(a["num"]) * int(a["ell"])}


def _mstp(a, res):
    return {"pushes": res.push_count, "degree_work": float(res.degree_work)}


def _mstp_densify(a, res):
    return {"mb": (a["self"].ell_max + 1) * int(a["n"]) * 8 / 1e6}


# (module, attribute path, span name, counters read from arguments and result)
TARGETS = [
    ("bippr.graph", "Graph.__init__", "graph.build", None),
    ("bippr.estimator", "approximate_pagerank", "push", _push),
    ("bippr.push", "PushResult.residual_dense", "estimator.densify", None),
    ("bippr.estimator", "geometric_terminals", "walk.geometric", _geometric),
    ("bippr.mc", "geometric_terminals", "mc.walk", _geometric),
    ("bippr.walk", "step_many", "walk.step", None),
    ("bippr.mstp", "approximate_mstp", "mstp.push", _mstp),
    ("bippr.mstp", "fixed_walk_positions", "mstp.walk", _fixed),
    ("bippr.mstp", "MstpState.residual_dense", "mstp.densify", _mstp_densify),
]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, query, counters]
        self.absent: list[str] = []
        self.query: int | None = None
        self._stack: list[int] = []
        self._patches = []
        for module, path, name, counters in TARGETS:
            owner_path, _, attr = path.rpartition(".")
            try:
                owner = importlib.import_module(module)
                for part in filter(None, owner_path.split(".")):
                    owner = getattr(owner, part)
                fn = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.absent.append(f"{module}.{path}")
                continue
            self._patches.append((owner, attr, fn, self._wrap(name, fn, counters)))

    def _wrap(self, name, fn, counters):
        sig = inspect.signature(fn) if counters else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if counters is not None:
                try:
                    self.spans[idx][5] = counters(
                        sig.bind(*args, **kwargs).arguments, result)
                except _READ_ERRORS:
                    pass
            return result
        return wrapper

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.query, None])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def install(self) -> None:
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, fn, _ in self._patches:
            setattr(owner, attr, fn)


WALK_SPANS = {"walk.geometric", "mc.walk", "mstp.walk", "walk.step"}


def layer_metrics(spans: list[list], loads: int, m: int,
                  passes: int) -> dict[str, float]:
    """Per-layer times and counters of one pass over the query list.

    Graph figures are per ingest: ``loads`` ingests of a graph with ``m``
    edges were traced. Everything else is summed over the traced queries and
    divided by ``passes``.
    """
    dur = [end - start for _, start, end, _, _, _ in spans]
    child = [0.0] * len(spans)
    for i, (_, _, _, parent, _, _) in enumerate(spans):
        if parent >= 0:
            child[parent] += dur[i]
    total = defaultdict(float)   # inclusive time by span name
    own = defaultdict(float)     # self time by span name
    calls = defaultdict(float)
    sums = defaultdict(float)    # counter sums, keyed "span/counter"
    bound_use = 0.0
    mass = []
    walk_s = 0.0
    for i, (name, _, _, parent, _, counters) in enumerate(spans):
        weight = 1.0 / (loads if name.startswith("graph.") else passes)
        total[name] += dur[i] * weight
        own[name] += (dur[i] - child[i]) * weight
        calls[name] += weight
        for key, value in (counters or {}).items():
            sums[f"{name}/{key}"] += value * weight
        if name == "push" and counters:
            bound_use = max(bound_use, counters["bound_use"])
            if "residual_mass" in counters:
                mass.append(counters["residual_mass"])
        if name in WALK_SPANS and (parent < 0 or spans[parent][0] not in WALK_SPANS):
            walk_s += dur[i] * weight
    query_s = sum(t for name, t in total.items() if name.startswith("query."))

    def ratio(a, b):
        return a / b if b > 0 else 0.0

    walk_names = ("walk.geometric", "mc.walk", "mstp.walk")
    walk_steps = sum(sums[f"{n}/steps"] for n in walk_names)
    return {
        "graph.parse_s": own["graph.load"],
        "graph.build_s": total["graph.build"],
        "graph.edges_per_s": ratio(m, total["graph.load"]),
        "push.s": total["push"],
        "push.share": ratio(total["push"], query_s),
        "push.count": sums["push/pushes"],
        "push.degree_work": sums["push/degree_work"],
        "push.edge_updates_per_s": ratio(sums["push/degree_work"], total["push"]),
        "push.bound_use": bound_use,
        "push.residual_nnz": sums["push/residual_nnz"],
        "push.residual_mass": statistics.fmean(mass) if mass else 0.0,
        "walk.s": walk_s,
        "walk.share": ratio(walk_s, query_s),
        "walk.walks": sum(sums[f"{n}/walks"] for n in walk_names),
        "walk.steps": walk_steps,
        "walk.steps_per_s": ratio(walk_steps, walk_s),
        "walk.rounds": calls["walk.step"],
        "estimator.densify_s": total["estimator.densify"],
        "estimator.combine_s": own["query.ppr"],
        "mc.s": own["query.mc"],
        "mc.walks": sums["mc.walk/walks"],
        "mc.steps": sums["mc.walk/steps"],
        "mstp.push_s": total["mstp.push"],
        "mstp.push_count": sums["mstp.push/pushes"],
        "mstp.degree_work": sums["mstp.push/degree_work"],
        "mstp.densify_s": total["mstp.densify"],
        "mstp.densify_calls": calls["mstp.densify"],
        "mstp.densify_mb": sums["mstp.densify/mb"],
        "mstp.walk_s": total["mstp.walk"],
        "mstp.combine_s": own["query.diffusion"],
    }


def query_breakdown(spans: list[list]) -> dict[str, float]:
    """Share of summed query time spent in each direct child span name of the
    queries, and in the queries' own code ("self")."""
    out = defaultdict(float)
    query_s = 0.0
    for name, start, end, parent, _, _ in spans:
        if name.startswith("query."):
            query_s += end - start
            out["self"] += end - start
        elif parent >= 0 and spans[parent][0].startswith("query."):
            out[name] += end - start
            out["self"] -= end - start
    return {k: v / query_s for k, v in sorted(out.items(), key=lambda kv: -kv[1])} if query_s else {}
