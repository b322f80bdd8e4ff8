"""Command-line interface: estimate PPR between node pairs, dump exact
vectors, benchmark estimators at matched accuracy, estimate diffusions, and
validate graph files.

Exit codes: 0 ok, 1 I/O error, 2 bad arguments or labels, 3 size guard exceeded.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

from . import exact, mstp
from .estimator import BipprParams, PreparedSource, significance_delta
from .graph import EdgeListParseError, Graph, load_edge_list
from .mc import mc_estimate, mc_num_walks
from .walk import RandomStream, _check_count, _check_table_walks

EXIT_OK = 0
EXIT_IO = 1
EXIT_USAGE = 2
EXIT_GUARD = 3


class GuardError(Exception):
    pass


def _load_graph(path: str, weighted: bool) -> Graph:
    with open(path, "r", encoding="utf-8") as fh:
        return load_edge_list(fh, weighted=weighted)


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("BIPPR_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ValueError(f"BIPPR_SEED must be an integer, got {env!r}") from None
    return 0


def _node(g: Graph, label: str) -> int:
    try:
        return g.node_id(label)
    except KeyError as exc:
        raise ValueError(exc.args[0]) from None


def _fmt(x: float) -> str:
    return repr(float(x))


def _derive_params(args, g: Graph, t: int) -> BipprParams:
    delta = significance_delta(g, t) if args.delta == "auto" else float(args.delta)
    return BipprParams.derive(alpha=args.alpha, delta=delta, eps=args.eps,
                              p_fail=args.pfail, d_t=g.degree(t),
                              r_max=args.rmax, w=args.walks)


def cmd_estimate(args) -> int:
    g = _load_graph(args.graph, args.weighted)
    s, t = _node(g, args.source), _node(g, args.target)
    g.require_walkable(s)
    g.require_walkable(t)
    seed = _resolve_seed(args)
    params = _derive_params(args, g, t)
    prepared = PreparedSource(g, params.alpha, s, params.r_max)
    est = prepared.estimate(t, params.w, RandomStream(seed))
    record = {
        "source": args.source,
        "target": args.target,
        "estimate": est.value,
        "push_term": est.push_term,
        "walk_term": est.walk_term,
        "params": {"alpha": params.alpha, "delta": params.delta,
                   "eps": params.eps, "p_fail": params.p_fail, "c": params.c,
                   "r_max": params.r_max, "w": params.w},
        "work": {"push_count": est.push_count, "degree_work": est.push_work,
                 "walk_steps": est.walk_steps},
        "seed": seed,
    }
    if args.trace_push:
        record["push"] = {
            "p": {g.labels[v]: val for v, val in sorted(prepared.push.p.items())},
            "r": {g.labels[v]: val for v, val in sorted(prepared.push.r.items())},
            "push_count": prepared.push.push_count,
            "degree_work": prepared.push.degree_work,
        }
    print(json.dumps(record))
    return EXIT_OK


def cmd_exact(args) -> int:
    g = _load_graph(args.graph, args.weighted)
    s = _node(g, args.source)
    g.require_walkable(s)
    cap = args.cap if args.cap is not None else 100_000 if args.ell is None else 10_000
    _check_count("cap", cap, low=0)
    if g.n > cap:
        raise GuardError(f"graph has {g.n} nodes, over the cap of {cap}")
    if args.ell is None:
        vec = exact.exact_ppr(g, args.alpha, s, tol=args.tol)
    else:
        for vec in exact._mstp_levels(g, s, args.ell):
            pass  # only the current level is held
    order = sorted(range(g.n), key=lambda v: (-vec[v], g.labels[v]))
    print("node,value")
    for v in order:
        print(f"{g.labels[v]},{_fmt(vec[v])}")
    return EXIT_OK


def cmd_bench(args) -> int:
    g = _load_graph(args.graph, args.weighted)
    s, t = _node(g, args.source), _node(g, args.target)
    g.require_walkable(s)
    g.require_walkable(t)
    _check_count("trials", args.trials)
    estimators = ["bippr", "mc", "push"] if args.estimator == "all" else [args.estimator]
    seed = _resolve_seed(args)
    params = _derive_params(args, g, t)
    cap = args.cap if args.cap is not None else 100_000
    _check_count("cap", cap, low=0)
    truth = float(exact.exact_ppr(g, args.alpha, s, tol=1e-12)[t]) if g.n <= cap else None
    bound = None if truth is None else max(params.eps * truth, 2.0 * np.e * params.delta)
    truth_col = "" if truth is None else _fmt(truth)
    if "bippr" in estimators or "push" in estimators:
        prepared = PreparedSource(g, params.alpha, s, params.r_max)
    if "mc" in estimators:
        mc_walks = mc_num_walks(params.delta, params.eps, params.p_fail)

    # each estimator maps a stream to (value, degree_work, walk_steps)
    def counters(est):
        return est.value, est.push_work, est.walk_steps
    runs = {"bippr": lambda rng: counters(prepared.estimate(t, params.w, rng)),
            "mc": lambda rng: counters(mc_estimate(g, s, t, params.alpha, mc_walks, rng)),
            "push": lambda rng: (prepared.push.p_at(t), prepared.push.degree_work, 0)}

    # printed once every estimator has run, so an error leaves stdout empty
    rows = ["row_type,trial,estimator,source,target,true_value,estimate,"
            "rel_error,degree_work,walk_steps,total_work,violation_rate,wall_time_s"]
    summaries, bippr_work = [], None
    for name in estimators:
        n_trials = 1 if name == "push" else args.trials
        if args.wall_time:  # untimed, on a stream no trial uses: lazy setup is not timed
            runs[name](RandomStream(seed, stream_id=-1))
        violations, work_sum, est_sum = 0, 0.0, 0.0
        for trial in range(n_trials):
            t0 = time.perf_counter()
            value, degree_work, walk_steps = runs[name](RandomStream(seed, stream_id=trial))
            elapsed = time.perf_counter() - t0
            work = degree_work + walk_steps
            violations += bound is not None and abs(value - truth) > bound
            work_sum += work
            est_sum += value
            rows.append(",".join([
                "trial", str(trial), name, args.source, args.target, truth_col, _fmt(value),
                _fmt(abs(value - truth) / truth) if truth else "", _fmt(degree_work),
                str(walk_steps), _fmt(work), "", _fmt(elapsed) if args.wall_time else ""]))
        mean_work = work_sum / n_trials
        bippr_work = mean_work if name == "bippr" else bippr_work
        summaries.append(",".join([
            "summary", "", name, args.source, args.target, truth_col, _fmt(est_sum / n_trials),
            _fmt(mean_work / bippr_work) if bippr_work and name != "bippr" else "", "", "",
            _fmt(mean_work), _fmt(violations / n_trials), ""]))
    print("\n".join(rows + summaries))
    return EXIT_OK


def cmd_diffusion(args) -> int:
    g = _load_graph(args.graph, args.weighted)
    s, t = _node(g, args.source), _node(g, args.target)
    seed = _resolve_seed(args)
    ell_max = mstp.choose_ell_max(args.family, args.trunc_tol, alpha=args.alpha, gamma=args.gamma)
    # refused before the weights, which at a tiny alpha take gigabytes
    _check_table_walks("w_per_level", args.walks_per_level, ell_max + 1)
    weights = (mstp.pagerank_weights(args.alpha, ell_max) if args.family == "pagerank"
               else mstp.heat_kernel_weights(args.gamma, ell_max))
    est = mstp.estimate_diffusion(
        g, s, t, weights, r_max=args.rmax, w_per_level=args.walks_per_level,
        rng=RandomStream(seed), shared_walks=not args.independent_walks)
    record = {
        "family": args.family,
        "source": args.source,
        "target": args.target,
        "value": est.value,
        "trunc_bound": est.trunc_bound,
        "ell_max": weights.ell_max,
        "per_level": [
            {"ell": ell, "alpha_ell": float(weights.alphas[ell]),
             "estimate": est.per_level[ell]}
            for ell in range(weights.ell_max + 1)
        ],
        "params": {"r_max": args.rmax, "w_per_level": args.walks_per_level,
                   "trunc_tol": args.trunc_tol,
                   "gamma": args.gamma if args.family == "heat-kernel" else None,
                   "alpha": args.alpha if args.family == "pagerank" else None},
        "seed": seed,
    }
    print(json.dumps(record))
    return EXIT_OK


def cmd_validate(args) -> int:
    g = _load_graph(args.graph, args.weighted)
    g.check()
    print(json.dumps({
        "nodes": g.n,
        "edges": g.m,
        "total_weight": g.total_weight,
        "isolated_nodes": int((np.diff(g.indptr) == 0).sum()),
        "symmetric": True,
        "degree_sum_ok": True,
    }))
    return EXIT_OK


def _float_or_auto(value: str) -> str:
    if value != "auto":
        float(value)
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bippr",
        description="Bidirectional PPR and graph-diffusion estimation on undirected graphs")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--graph", required=True, help="edge-list file path")
        p.add_argument("--weighted", action="store_true",
                       help="parse an optional third column as edge weight")
        p.add_argument("--seed", type=int, default=None,
                       help="random seed (falls back to BIPPR_SEED, then 0)")

    def estimator_flags(p):
        p.add_argument("--alpha", type=float, default=0.2)
        p.add_argument("--delta", type=_float_or_auto, default="auto",
                       help="minimum probability threshold, or 'auto' for d_t/m")
        p.add_argument("--eps", type=float, default=0.1)
        p.add_argument("--pfail", type=float, default=0.01)
        p.add_argument("--rmax", type=float, default=None,
                       help="override the balanced residual threshold")
        p.add_argument("--walks", type=int, default=None,
                       help="override the derived walk count")

    p = sub.add_parser("estimate", help="bidirectional point estimate of PPR")
    common(p)
    estimator_flags(p)
    p.add_argument("--source", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--trace-push", action="store_true",
                   help="include the sparse push state in the output record")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("exact", help="dump an exact PPR or fixed-length vector")
    common(p)
    p.add_argument("--source", required=True)
    p.add_argument("--alpha", type=float, default=0.2)
    p.add_argument("--tol", type=float, default=1e-12)
    p.add_argument("--ell", type=int, default=None,
                   help="dump the length-ell transition vector instead of PPR")
    p.add_argument("--cap", type=int, default=None,
                   help="node-count guard (default 1e5 for PPR, 1e4 for --ell)")
    p.set_defaults(func=cmd_exact)

    p = sub.add_parser("bench", help="per-trial benchmark CSV with work counters")
    common(p)
    estimator_flags(p)
    p.add_argument("--source", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--estimator", choices=["bippr", "mc", "push", "all"],
                   default="all")
    p.add_argument("--cap", type=int, default=None,
                   help="skip the exact oracle above this node count")
    p.add_argument("--wall-time", action="store_true",
                   help="record wall time per trial (breaks byte-determinism)")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("diffusion", help="bidirectional graph-diffusion estimate")
    common(p)
    p.add_argument("--source", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--family", required=True, choices=["pagerank", "heat-kernel"])
    p.add_argument("--alpha", type=float, default=0.2)
    p.add_argument("--gamma", type=float, default=1.0)
    p.add_argument("--trunc-tol", type=float, default=1e-6)
    p.add_argument("--rmax", type=float, default=1e-3)
    p.add_argument("--walks-per-level", type=int, default=1000)
    p.add_argument("--independent-walks", action="store_true",
                   help="independent walk batches per level instead of shared")
    p.set_defaults(func=cmd_diffusion)

    p = sub.add_parser("validate", help="check graph invariants")
    common(p)
    p.set_defaults(func=cmd_validate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except GuardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except (EdgeListParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
