"""Benchmark of the bippr library: seeded synthetic graphs, closed-loop
query workloads, answers checked against the exact oracles.

    python3 perfbench/run.py --workload ppr-point --seed 0 --seconds 28 --trace 0

Run from the repository root. The harness generates the workload's graph and
query list from the seed, writes the graph as an edge-list file, and starts
a separate workload process (worker.py) that ingests the file and answers
the queries through the public API. It then checks every answer against
``bippr.exact`` and prints the metrics, one per line with its unit, and as
the last line one JSON object. With ``--trace 0`` these are the end-to-end
metrics, with every time scaled to full host speed by the reference block
timed next to it (see hostspeed.py; the unscaled figures are printed too);
with ``--trace 1`` the workload process wraps the calls into each layer and
the metrics are per layer (see spans.py).
"""
from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from bippr import load_edge_list  # noqa: E402

import hostspeed  # noqa: E402
from gen import chung_lu, write_edge_list  # noqa: E402
from oracle import Oracle  # noqa: E402
from spans import layer_metrics, query_breakdown  # noqa: E402
from workloads import (EXPONENT, N_EDGES, N_NODES, ROOT, WORKLOADS,  # noqa: E402
                       make_queries)

SETUP_REPEATS = 7  # setup_s is the median of this many ingests

END_TO_END = {
    "setup_s": "s",
    "query_p50_s": "s",
    "query_p90_s": "s",
    "queries_per_s": "1/s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "graph.parse_s": "s", "graph.build_s": "s", "graph.edges_per_s": "1/s",
    "graph.n": "count", "graph.m": "count", "graph.input_mb": "MB",
    "push.s": "s", "push.share": "share", "push.count": "count",
    "push.degree_work": "count", "push.edge_updates_per_s": "1/s",
    "push.bound_use": "ratio", "push.residual_nnz": "count",
    "push.residual_mass": "mass",
    "walk.s": "s", "walk.share": "share", "walk.walks": "count",
    "walk.steps": "count", "walk.steps_per_s": "1/s", "walk.rounds": "count",
    "estimator.densify_s": "s", "estimator.combine_s": "s",
    "estimator.violations": "count", "estimator.err_over_bound_max": "ratio",
    "mc.s": "s", "mc.walks": "count", "mc.steps": "count", "mc.work_ratio": "ratio",
    "mstp.push_s": "s", "mstp.push_count": "count", "mstp.degree_work": "count",
    "mstp.densify_s": "s", "mstp.densify_calls": "count", "mstp.densify_mb": "MB",
    "mstp.walk_s": "s", "mstp.combine_s": "s",
    "exact.oracle_s": "s",
    "trace.untraced_p50_s": "s", "trace.overhead_s": "s",
}


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def run_worker(spec: dict, tmp: Path) -> dict:
    spec_path, out_path = tmp / "spec.json", tmp / "out.json"
    spec_path.write_text(json.dumps(spec))
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), str(spec_path), str(out_path)],
        cwd=ROOT, timeout=spec["seconds"] + 120)
    if proc.returncode != 0:
        sys.exit(f"workload process exited with code {proc.returncode}")
    return json.loads(out_path.read_text())


def end_to_end(setup_s: list[float], latencies: list[float], values: list,
               peak_rss_mb: float) -> dict[str, float]:
    """The end-to-end metrics from per-ingest and per-query times."""
    return {
        "setup_s": statistics.median(setup_s),
        "query_p50_s": float(np.percentile(latencies, 50)),
        "query_p90_s": float(np.percentile(latencies, 90)),
        "queries_per_s": sum(v is not None for v in values) / sum(latencies),
        "peak_rss_mb": peak_rss_mb,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    wl = WORKLOADS[args.workload]
    work = ROOT / ".perfbench_work"
    work.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work) as tmp:
        tmp = Path(tmp)
        graph_path = tmp / "graph.txt"
        write_edge_list(chung_lu(N_NODES, N_EDGES, EXPONENT, args.seed, wl.weighted),
                        graph_path)
        with open(graph_path, encoding="utf-8") as fh:
            g = load_edge_list(fh, weighted=wl.weighted)
        pairs = make_queries(g, args.seed)
        spec = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
                "trace": bool(args.trace), "graph": str(graph_path),
                "setup_repeats": SETUP_REPEATS,
                "queries": [[g.labels[s], g.labels[t]] for s, t in pairs]}
        out = run_worker(spec, tmp)
        input_mb = graph_path.stat().st_size / 1e6

    oracle = Oracle(g, wl)
    ratios = [oracle.error_over_bound(*pairs[i % len(pairs)], v)
              for i, v in enumerate(out["values"])]
    attempted = len(ratios)
    failed = sum(1 for r in ratios if not r <= 1.0)
    lat = out["latencies"]
    print(f"workload {wl.name}, seed {args.seed}, trace {args.trace}: "
          f"{attempted} queries, {failed} failed (failed_frac {failed / attempted:.4g})")

    if args.trace:
        spans = out["spans"]
        passes = out["passes"]
        metrics = layer_metrics(spans, SETUP_REPEATS, g.m, passes)
        untraced_p50 = statistics.median(out["untraced_latencies"])
        overhead = statistics.median(lat) - untraced_p50
        bippr_work = out.get("bippr_work", 0.0)
        metrics.update({
            "graph.n": g.n, "graph.m": g.m, "graph.input_mb": input_mb,
            "estimator.violations": failed / passes,
            "estimator.err_over_bound_max": max(
                (r for r in ratios if math.isfinite(r)), default=0.0),
            "mc.work_ratio": metrics["mc.steps"] / bippr_work if bippr_work else 0.0,
            "exact.oracle_s": oracle.seconds,
            "trace.untraced_p50_s": untraced_p50, "trace.overhead_s": overhead,
        })
        units = PER_LAYER
        shares = ", ".join(f"{k} {v:.1%}" for k, v in query_breakdown(spans).items())
        print(f"query time by span: {shares}")
        if out["absent"]:
            print(f"absent (time counted in the caller): {', '.join(out['absent'])}")
        print(f"tracing overhead on p50: {overhead:.4g} s "
              f"({overhead / untraced_p50:.1%} of the untraced p50)")
    else:
        raw = end_to_end(out["setup_s"], lat, out["values"], out["peak_rss_mb"])
        metrics = end_to_end(
            [t / hostspeed.slowdown(r) for t, r in zip(out["setup_s"], out["setup_ref_s"])],
            hostspeed.scaled(lat, out["ref_s"]), out["values"], out["peak_rss_mb"])
        print(f"host slowdown {hostspeed.slowdown(out['ref_s']):.4g} (median reference "
              f"block over the run / {hostspeed.REFERENCE_S} s); unscaled figures:")
        for name, value in raw.items():
            print(f"  raw {name} {value:.6g} {END_TO_END[name]}")
        units = END_TO_END
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
