"""Acceptance suite: one test per criterion, each printing a PASS line with
its runtime. Run with ``pytest tests/test_acceptance.py -v -s``."""
import io
import json
import math
import time
from contextlib import redirect_stdout

import numpy as np
import pytest

from bippr import (BipprParams, Graph, PreparedSource, RandomStream,
                   approximate_mstp, approximate_pagerank, estimate_diffusion,
                   exact_ppr, exact_ppr_matrix, choose_ell_max,
                   heat_kernel_weights, mc_num_walks, pagerank_weights,
                   significance_delta)
from bippr.cli import main as cli_main
from bippr.walk import geometric_terminals

from conftest import dense_walk_matrix, mstp_dicts, random_connected


def report(number, name, started, detail=""):
    elapsed = time.time() - started
    print(f"ACCEPTANCE {number} ({name}): PASS in {elapsed:.1f}s {detail}")


def small_fixtures():
    return {
        "k2": Graph.from_edges([(0, 1)]),
        "k3": Graph.from_edges([(0, 1), (1, 2), (0, 2)]),
        "s3": Graph.from_edges([(0, 1), (0, 2), (0, 3)]),
    }


def test_criterion_1_reversibility_symmetry():
    started = time.time()
    graphs = [random_connected(30 + 17 * i, "er", seed=i) for i in range(10)]
    graphs += [random_connected(40 + 16 * i, "ba", seed=i) for i in range(10)]
    worst = 0.0
    for g in graphs:
        for alpha in (0.1, 0.2, 0.5):
            Pi = exact_ppr_matrix(g, alpha, tol=1e-13)
            scaled = g.degrees[:, None] * Pi
            worst = max(worst, float(np.abs(scaled - scaled.T).max()))
    assert worst <= 1e-9
    assert time.time() - started < 30
    report(1, "reversibility symmetry", started, f"max asymmetry {worst:.2e}")


def test_criterion_2_push_invariant_every_step():
    started = time.time()
    graphs = [
        Graph.from_edges([(0, 1), (1, 2), (0, 2)]),
        Graph.from_edges([(0, 1), (0, 2), (0, 3)]),
        Graph.from_edges([(i, i + 1) for i in range(9)]),
        random_connected(30, "er", seed=2),
        Graph.from_edges([(0, 0), (0, 1), (1, 2)]),
    ]
    worst = 0.0
    pushes = 0
    for g in graphs:
        for alpha in (0.1, 0.2):
            Pi = exact_ppr_matrix(g, alpha, tol=1e-14)
            for r_max in (0.5, 0.1, 0.01):
                gaps = []

                def on_push(state):
                    recon = np.zeros(g.n)
                    for v, x in state.p.items():
                        recon[v] += x
                    rd = np.zeros(g.n)
                    for v, x in state.r.items():
                        rd[v] = x
                    gaps.append(float(np.abs(recon + rd @ Pi - Pi[0]).max()))

                approximate_pagerank(g, alpha, 0, r_max, on_push=on_push)
                pushes += len(gaps)
                if gaps:
                    worst = max(worst, max(gaps))
    assert pushes > 0
    assert worst <= 1e-10
    assert time.time() - started < 60
    report(2, "push invariant after every step", started,
           f"{pushes} pushes, max gap {worst:.2e}")


def test_criterion_3_push_work_bound():
    started = time.time()
    violations = 0
    runs = 0
    graphs = list(small_fixtures().values())
    graphs += [random_connected(80, kind, seed=s)
               for kind in ("er", "ba") for s in range(3)]
    for g in graphs:
        for alpha in (0.1, 0.2, 0.5):
            for r_max in (0.9, 0.5, 0.1, 0.01, 0.001):
                res = approximate_pagerank(g, alpha, 0, r_max)
                runs += 1
                if res.degree_work > 1.0 / (alpha * r_max):
                    violations += 1
    assert violations == 0
    report(3, "push work bound", started, f"{runs} runs, 0 violations")


def test_criterion_4_accuracy_guarantee(g500):
    started = time.time()
    eps, p_fail, trials = 0.1, 0.01, 2000
    slack = 1.645 * math.sqrt(p_fail * (1 - p_fail) / trials)
    fixtures = dict(small_fixtures())
    fixtures["g500"] = g500
    pairs = {"k2": (0, 1), "k3": (0, 1), "s3": (1, 0), "g500": (0, 25)}
    rates = {}
    for name, g in fixtures.items():
        s, t = pairs[name]
        delta = significance_delta(g, t)
        params = BipprParams.derive(0.2, delta, eps, p_fail, d_t=g.degree(t))
        true = float(exact_ppr(g, 0.2, s, tol=1e-12)[t])
        values = PreparedSource(g, params.alpha, s, params.r_max).estimate_many(
            t, params.w, RandomStream(100), trials)
        bound = max(eps * true, 2 * math.e * delta)
        rate = float((np.abs(values - true) > bound).mean())
        rates[name] = rate
        assert rate <= p_fail + slack, (name, rate)
    assert time.time() - started < 180
    report(4, "accuracy guarantee", started, f"violation rates {rates}")


def test_criterion_5_unbiasedness():
    started = time.time()
    k2 = Graph.from_edges([(0, 1)])
    params = BipprParams.derive(0.2, 0.01, 0.1, 0.01, d_t=1.0)
    values = PreparedSource(k2, params.alpha, 0, params.r_max).estimate_many(
        1, params.w, RandomStream(200), 10_000)
    se = values.std(ddof=1) / math.sqrt(len(values))
    gap = abs(values.mean() - 4 / 9)
    assert gap <= 4 * se
    assert time.time() - started < 30
    report(5, "unbiasedness", started, f"mean gap {gap:.2e} vs 4*SE {4*se:.2e}")


def test_criterion_6_work_scaling(g500):
    started = time.time()
    g = g500
    s, t = 0, 25
    alpha, eps, p_fail = 0.2, 0.2, 0.1
    d_t = g.degree(t)
    deltas = [1e-2, 1e-3, 1e-4]
    bippr_work = []
    mc_work = []
    for i, delta in enumerate(deltas):
        params = BipprParams.derive(alpha, delta, eps, p_fail, d_t=d_t)
        push = approximate_pagerank(g, alpha, s, params.r_max)
        _, steps = geometric_terminals(g, t, alpha, params.w, RandomStream(300, i),
                                       lambda v: v)
        bippr_work.append(push.degree_work + steps)
        walks = mc_num_walks(delta, eps, p_fail)
        _, mc_steps = geometric_terminals(g, s, alpha, walks, RandomStream(301, i),
                                          lambda v: v == t)
        mc_work.append(float(mc_steps))
    # two-decade span: sqrt scaling predicts x10, linear predicts x100
    bippr_growth = bippr_work[2] / bippr_work[0]
    mc_growth = mc_work[2] / mc_work[0]
    assert 10 / 2 <= bippr_growth <= 10 * 2, bippr_growth
    assert 100 / 2 <= mc_growth <= 100 * 2, mc_growth
    assert mc_work[2] / bippr_work[2] > 5

    # the bench subcommand reports the same gap in its summary ratio column
    import tempfile, os
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "k3.txt")
        with open(path, "w") as fh:
            fh.write("a b\nb c\na c\n")
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = cli_main(["bench", "--graph", path, "--source", "a",
                             "--target", "b", "--trials", "3", "--seed", "0",
                             "--delta", "0.001"])
        assert code == 0
        summary = [l for l in buf.getvalue().splitlines()
                   if l.startswith("summary,,mc")][0]
        assert float(summary.split(",")[7]) > 1.0
    assert time.time() - started < 180
    report(6, "work scaling", started,
           f"bippr x{bippr_growth:.1f}, mc x{mc_growth:.1f} over two decades")


def test_criterion_7_mstp_invariant():
    started = time.time()
    graphs = [
        Graph.from_edges([(0, 1), (1, 2), (0, 2)]),
        Graph.from_edges([(0, 1), (0, 2), (0, 3)]),
        random_connected(30, "er", seed=2),
    ]
    worst = 0.0
    pushes = 0
    for g in graphs:
        W = dense_walk_matrix(g)
        for ell_max in (4, 6):
            Wpows = [np.eye(g.n)]
            for _ in range(ell_max):
                Wpows.append(Wpows[-1] @ W)
            for r_max in (0.5, 0.1, 0.02):
                gaps = []

                def on_push(state):
                    q, r = mstp_dicts(state)
                    worst_here = 0.0
                    for ell in range(ell_max + 1):
                        recon = np.zeros(g.n)
                        for v, x in q[ell].items():
                            recon[v] += x
                        for k in range(ell + 1):
                            rk = np.zeros(g.n)
                            for v, x in r[k].items():
                                rk[v] = x
                            recon += rk @ Wpows[ell - k]
                        worst_here = max(worst_here,
                                         float(np.abs(recon - Wpows[ell][0]).max()))
                    gaps.append(worst_here)

                approximate_mstp(g, 0, ell_max, r_max, on_push=on_push)
                pushes += len(gaps)
                if gaps:
                    worst = max(worst, max(gaps))
    assert pushes > 0
    assert worst <= 1e-10
    report(7, "multi-level push invariant", started,
           f"{pushes} pushes, max gap {worst:.2e}")


def test_criterion_8_diffusion_correctness():
    started = time.time()
    fixtures = small_fixtures()
    pairs = {"k2": (0, 1), "k3": (0, 1), "s3": (1, 0)}

    # (a) geometric length weights with tiny tail reproduce exact PPR
    ell_max = choose_ell_max("pagerank", 1e-6, alpha=0.2)
    weights = pagerank_weights(0.2, ell_max)
    assert weights.tail <= 1e-6
    for name, g in fixtures.items():
        s, t = pairs[name]
        true = float(exact_ppr(g, 0.2, s, tol=1e-12)[t])
        est = estimate_diffusion(g, s, t, weights, 1e-4, 2000, RandomStream(400))
        assert abs(est.value - true) <= max(0.1 * true, 0.01), name

    # (b) heat kernel on the two-node graph has a closed form
    hk = heat_kernel_weights(1.0, 40)
    est = estimate_diffusion(fixtures["k2"], 0, 1, hk, 1e-4, 100_000,
                             RandomStream(401))
    assert abs(est.value - math.sinh(1) / math.e) <= 0.01

    # (c) weight normalization across random parameter combinations
    rng = np.random.Generator(np.random.Philox(key=402))
    for _ in range(50):
        alpha = float(rng.uniform(0.05, 0.95))
        gamma = float(rng.uniform(0.05, 8.0))
        ell = int(rng.integers(0, 60))
        for w in (pagerank_weights(alpha, ell), heat_kernel_weights(gamma, ell)):
            assert abs(w.alphas.sum() + w.tail - 1.0) <= 1e-12
    report(8, "diffusion correctness", started)


def test_criterion_9_cli_determinism(tmp_path):
    started = time.time()
    import subprocess, sys, os
    path = tmp_path / "g.txt"
    path.write_text("a b\nb c\na c\nc d\n")
    commands = [
        ["estimate", "--graph", str(path), "--source", "a", "--target", "d",
         "--seed", "9"],
        ["exact", "--graph", str(path), "--source", "a"],
        ["bench", "--graph", str(path), "--source", "a", "--target", "d",
         "--trials", "3", "--seed", "9"],
        ["diffusion", "--graph", str(path), "--source", "a", "--target", "d",
         "--family", "heat-kernel", "--gamma", "1", "--seed", "9"],
        ["validate", "--graph", str(path)],
    ]
    env = dict(os.environ)
    env.pop("BIPPR_SEED", None)
    for cmd in commands:
        runs = [subprocess.run([sys.executable, "-m", "bippr.cli", *cmd],
                               capture_output=True, env=env) for _ in range(2)]
        assert runs[0].returncode == 0, runs[0].stderr
        assert runs[0].stdout == runs[1].stdout, cmd
    report(9, "CLI determinism", started)
