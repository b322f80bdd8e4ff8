"""Workload process: ingest the edge list, answer queries, report timings.

Run by ``run.py`` as ``python3 worker.py SPEC OUT``. It is a closed loop with
one client: one query at a time, each a single library call, with no other
work in the process but the host-speed reference block (hostspeed.py), timed
after every query and around every ingest. Untraced, it ingests the file
several times and, between ingests, cycles through the query list until the
time is up. Traced, it makes passes over the query list, answering each
query untraced and then traced with the same random stream; the two answers
must agree.
"""
from __future__ import annotations

import json
import resource
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from bippr import load_edge_list  # noqa: E402

from hostspeed import Reference  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import WORKLOADS, Runner  # noqa: E402


REF_AROUND_INGEST = 5  # reference blocks timed before and after each ingest


def answer(run: Runner, i: int, s: int, t: int) -> tuple[float | None, float]:
    t0 = time.perf_counter()
    try:
        value = run(i, s, t)
    except Exception:  # a failing query is counted, not fatal
        traceback.print_exc()
        value = None
    return value, time.perf_counter() - t0


def load(spec: dict, wl, tracer: Tracer | None):
    """One timed ingest of the edge-list file, as the CLI does it."""
    t0 = time.perf_counter()
    with tracer.span("graph.load") if tracer else nullcontext():
        with open(spec["graph"], encoding="utf-8") as fh:
            g = load_edge_list(fh, weighted=wl.weighted)
    return g, time.perf_counter() - t0


def main(spec_path: str, out_path: str) -> None:
    spec = json.loads(Path(spec_path).read_text())
    wl = WORKLOADS[spec["workload"]]
    repeats = spec["setup_repeats"]
    if spec["trace"]:
        out = traced(spec, wl, repeats)
    else:
        # Ingests alternate with slices of the query loop, so a burst of
        # machine noise hits a few samples of each metric rather than all
        # samples of one. The loop cycles through the pairs, and pair j always
        # runs with random stream j, so each repeat of a pair is the same work.
        # The ingests count in the run's time: round r ends at r/repeats of it.
        out = {"setup_s": [], "setup_ref_s": [], "values": [], "latencies": [],
               "ref_s": []}
        reference = Reference()
        start = time.perf_counter()
        for r in range(1, repeats + 1):
            g = run = None  # free the previous graph before the next ingest
            before = [reference() for _ in range(REF_AROUND_INGEST)]
            g, seconds = load(spec, wl, None)
            out["setup_s"].append(seconds)
            out["setup_ref_s"].append(before + [reference() for _ in range(REF_AROUND_INGEST)])
            run = Runner(g, wl, spec["seed"])
            pairs = [(g.node_id(s), g.node_id(t)) for s, t in spec["queries"]]
            deadline = start + spec["seconds"] * r / repeats
            while time.perf_counter() < deadline:
                j = len(out["values"]) % len(pairs)
                value, latency = answer(run, j, *pairs[j])
                out["values"].append(value)
                out["latencies"].append(latency)
                out["ref_s"].append(reference())
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    Path(out_path).write_text(json.dumps(out))


def traced(spec: dict, wl, repeats: int) -> dict:
    """Traced ingests, then passes over the query list in which each query is
    answered untraced and then traced with the same random stream. Every pass
    repeats the same queries, so its counts are the same; passes go on while
    another one fits in the run's time."""
    tracer = Tracer()
    tracer.install()
    for _ in range(repeats):
        g = None  # free the previous graph before the next ingest
        g, _ = load(spec, wl, tracer)
    run = Runner(g, wl, spec["seed"])
    pairs = [(g.node_id(s), g.node_id(t)) for s, t in spec["queries"]]
    values, latencies, untraced = [], [], []
    start = time.perf_counter()
    passes, elapsed = 0, 0.0
    while passes == 0 or elapsed / passes * (passes + 1) <= spec["seconds"]:
        for i, (s, t) in enumerate(pairs):
            tracer.uninstall()
            plain, plain_latency = answer(run, i, s, t)
            tracer.install()
            tracer.query = i
            with tracer.span(f"query.{wl.kind}"):
                value, latency = answer(run, i, s, t)
            tracer.query = None
            values.append(value if value == plain else None)
            latencies.append(latency)
            untraced.append(plain_latency)
        passes += 1
        elapsed = time.perf_counter() - start
    tracer.uninstall()
    out = {"values": values, "latencies": latencies, "untraced_latencies": untraced,
           "passes": passes, "spans": tracer.spans, "absent": tracer.absent}
    if wl.kind == "mc":
        out["bippr_work"] = sum(run.bippr_work(i, s, t) for i, (s, t) in enumerate(pairs))
    return out


if __name__ == "__main__":
    main(*sys.argv[1:])
