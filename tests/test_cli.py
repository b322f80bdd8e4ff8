import json
import math
import os
import pathlib
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from bippr import (RandomStream, approximate_pagerank, exact_ppr, exact_ppr_from,
                   mc_estimate)
from bippr.cli import main

from conftest import random_connected


def run_cli(*args, env=None, timeout=None):
    full_env = dict(os.environ)
    full_env.pop("BIPPR_SEED", None)
    if env:
        full_env.update(env)
    return subprocess.run([sys.executable, "-m", "bippr.cli", *args],
                          capture_output=True, text=True, env=full_env,
                          timeout=timeout)


@pytest.fixture
def k2_file(tmp_path):
    path = tmp_path / "k2.txt"
    path.write_text("a b\n")
    return str(path)


@pytest.fixture
def k3_file(tmp_path):
    path = tmp_path / "k3.txt"
    path.write_text("a b\nb c\na c\n")
    return str(path)


class TestEstimateCommand:
    def test_k2_record(self, k2_file):
        proc = run_cli("estimate", "--graph", k2_file, "--source", "a",
                       "--target", "b", "--delta", "0.01", "--seed", "3")
        assert proc.returncode == 0
        record = json.loads(proc.stdout)
        assert 0.40 <= record["estimate"] <= 0.49
        assert record["estimate"] == pytest.approx(
            record["push_term"] + record["walk_term"])
        for key in ("alpha", "delta", "eps", "p_fail", "c", "r_max", "w"):
            assert key in record["params"]
        for key in ("push_count", "degree_work", "walk_steps"):
            assert key in record["work"]
        assert record["seed"] == 3

    def test_missing_graph_file_exit_1(self):
        proc = run_cli("estimate", "--graph", "/nonexistent/g.txt",
                       "--source", "a", "--target", "b")
        assert proc.returncode == 1

    def test_unknown_target_exit_2(self, k2_file):
        proc = run_cli("estimate", "--graph", k2_file, "--source", "a",
                       "--target", "zzz")
        assert proc.returncode == 2

    def test_malformed_graph_exit_1(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("a b c d\n")
        proc = run_cli("estimate", "--graph", str(bad), "--source", "a",
                       "--target", "b")
        assert proc.returncode == 1

    def test_trace_push_dump(self, k2_file):
        proc = run_cli("estimate", "--graph", k2_file, "--source", "a",
                       "--target", "b", "--seed", "0", "--trace-push")
        record = json.loads(proc.stdout)
        assert set(record["push"]) == {"p", "r", "push_count", "degree_work"}

    def test_env_seed_fallback(self, k2_file):
        a = run_cli("estimate", "--graph", k2_file, "--source", "a",
                    "--target", "b", env={"BIPPR_SEED": "11"})
        b = run_cli("estimate", "--graph", k2_file, "--source", "a",
                    "--target", "b", "--seed", "11")
        assert a.stdout == b.stdout
        assert json.loads(a.stdout)["seed"] == 11


class TestExactCommand:
    def test_k3_values_sorted(self, k3_file):
        proc = run_cli("exact", "--graph", k3_file, "--source", "a",
                       "--alpha", "0.2")
        assert proc.returncode == 0
        lines = proc.stdout.strip().splitlines()
        assert lines[0] == "node,value"
        rows = [line.split(",") for line in lines[1:]]
        assert rows[0][0] == "a"
        assert float(rows[0][1]) == pytest.approx(3 / 7, abs=1e-9)
        assert float(rows[1][1]) == pytest.approx(2 / 7, abs=1e-9)
        assert float(rows[2][1]) == pytest.approx(2 / 7, abs=1e-9)

    def test_cap_exceeded_exit_3(self, k3_file):
        proc = run_cli("exact", "--graph", k3_file, "--source", "a",
                       "--cap", "2")
        assert proc.returncode == 3

    def test_isolated_source_exit_2(self, tmp_path):
        path = tmp_path / "loop.txt"
        path.write_text("a b\nc c\n")
        # self-loop node is walkable; use a fresh isolated check via bad label
        proc = run_cli("exact", "--graph", str(path), "--source", "missing")
        assert proc.returncode == 2

    def test_mstp_dump(self, k2_file):
        proc = run_cli("exact", "--graph", k2_file, "--source", "a",
                       "--ell", "2")
        lines = proc.stdout.strip().splitlines()
        assert lines[1] == "a,1.0"

    def test_mstp_peak_does_not_grow_with_ell(self, tmp_path, capsys):
        # a 5000-node ring: 201 level vectors held at once would take 8 MB
        path = tmp_path / "ring.txt"
        path.write_text("".join(f"{v} {(v + 1) % 5000}\n" for v in range(5000)))
        peaks = []
        for ell in (2, 200):
            tracemalloc.start()
            try:
                assert main(["exact", "--graph", str(path), "--source", "0",
                             "--ell", str(ell)]) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert capsys.readouterr().out.startswith("node,value\n")
        assert peaks[1] < 1.25 * peaks[0], peaks


class TestBenchCommand:
    def test_summary_violation_rate(self, k3_file):
        proc = run_cli("bench", "--graph", k3_file, "--source", "a",
                       "--target", "b", "--trials", "20", "--seed", "1",
                       "--delta", "0.01")
        assert proc.returncode == 0
        lines = proc.stdout.strip().splitlines()
        header = lines[0].split(",")
        summaries = [dict(zip(header, line.split(",")))
                     for line in lines[1:] if line.startswith("summary")]
        by_name = {s["estimator"]: s for s in summaries}
        assert set(by_name) == {"bippr", "mc", "push"}
        assert float(by_name["bippr"]["violation_rate"]) <= 0.01 + 0.05
        # the mc-vs-bippr work gap is reported in the rel_error/ratio slot
        assert float(by_name["mc"]["rel_error"]) > 1.0

    def test_trial_rows_echo_truth(self, k2_file):
        proc = run_cli("bench", "--graph", k2_file, "--source", "a",
                       "--target", "b", "--trials", "2", "--seed", "0",
                       "--estimator", "bippr", "--delta", "0.01")
        lines = [l for l in proc.stdout.strip().splitlines()
                 if l.startswith("trial")]
        assert len(lines) == 2
        true_value = float(lines[0].split(",")[5])
        assert true_value == pytest.approx(4 / 9, abs=1e-9)

    def test_wall_time_changes_only_its_column(self, tmp_path, capsys, monkeypatch):
        # each estimator first makes one untimed call, on a stream no trial
        # uses, so lazy setup (a weighted graph's alias tables) is not timed
        path = tmp_path / "w.txt"
        path.write_text("a b 1.5\nb c 2\nc d 0.5\nd a 1\na c 3\n")
        argv = ["bench", "--graph", str(path), "--weighted", "--source", "a",
                "--target", "c", "--trials", "3", "--seed", "5"]
        streams = []

        def recording(g, s, t, alpha, walks, rng):
            streams.append(rng.stream_id)
            return mc_estimate(g, s, t, alpha, walks, rng)

        monkeypatch.setattr("bippr.cli.mc_estimate", recording)
        assert main(argv) == 0
        plain = capsys.readouterr().out.splitlines()
        assert main(argv + ["--wall-time"]) == 0
        timed = capsys.readouterr().out.splitlines()
        assert streams == [0, 1, 2, 2**64 - 1, 0, 1, 2]
        assert len(plain) == len(timed) == 11
        for a, b in zip(plain, timed):
            a, b = a.split(","), b.split(",")
            assert a[:-1] == b[:-1]
            if b[0] == "trial":
                assert a[-1] == "" and float(b[-1]) >= 0.0


class TestPushOnlyErrorBound:
    def test_bound_from_global_pagerank(self):
        # |p_s[t] - pi_s[t]| <= r_max * d_t * n * pi_unif[t] on fixtures
        for seed in (0, 1):
            g = random_connected(30, "er", seed=seed)
            alpha, r_max = 0.2, 0.01
            res = approximate_pagerank(g, alpha, 0, r_max)
            pi_s = exact_ppr(g, alpha, 0, tol=1e-13)
            pi_unif = exact_ppr_from(g, alpha, np.full(g.n, 1 / g.n), tol=1e-13)
            for t in range(g.n):
                err = abs(res.p.get(t, 0.0) - pi_s[t])
                assert err <= r_max * g.degree(t) * g.n * pi_unif[t] + 1e-12


class TestDiffusionCommand:
    def test_heat_kernel_k2(self, k2_file):
        proc = run_cli("diffusion", "--graph", k2_file, "--source", "a",
                       "--target", "b", "--family", "heat-kernel",
                       "--gamma", "1", "--trunc-tol", "1e-6", "--seed", "0")
        assert proc.returncode == 0
        record = json.loads(proc.stdout)
        assert abs(record["value"] - math.sinh(1) / math.e) < 0.01
        assert record["trunc_bound"] <= 1e-6
        assert len(record["per_level"]) == record["ell_max"] + 1

    def test_heat_kernel_large_gamma(self, k3_file):
        # K3 walks mix fast: the heat-kernel diffusion is 1/3 - e^{-1.5 gamma}/3
        proc = run_cli("diffusion", "--graph", k3_file, "--source", "a",
                       "--target", "b", "--family", "heat-kernel",
                       "--gamma", "800", "--walks-per-level", "20", "--seed", "0",
                       timeout=60)
        assert proc.returncode == 0, proc.stderr
        record = json.loads(proc.stdout)
        assert record["trunc_bound"] <= 1e-6
        assert record["ell_max"] < 2000
        assert abs(record["value"] - 1 / 3) < 0.01

    def test_heat_kernel_tail_out_of_reach_exit_2(self, k3_file):
        proc = run_cli("diffusion", "--graph", k3_file, "--source", "a",
                       "--target", "b", "--family", "heat-kernel",
                       "--gamma", "20000", "--seed", "0", timeout=60)
        assert proc.returncode == 2
        assert "max_levels" in proc.stderr

    def test_pagerank_family(self, k2_file):
        proc = run_cli("diffusion", "--graph", k2_file, "--source", "a",
                       "--target", "b", "--family", "pagerank",
                       "--alpha", "0.2", "--trunc-tol", "1e-6", "--seed", "0")
        record = json.loads(proc.stdout)
        assert abs(record["value"] - 4 / 9) < 0.01

    def test_unknown_family_exit_2(self, k2_file):
        proc = run_cli("diffusion", "--graph", k2_file, "--source", "a",
                       "--target", "b", "--family", "uniform")
        assert proc.returncode == 2


class TestBadArguments:
    @pytest.mark.parametrize("name, args", [
        ("tol", ["exact", "--tol", "inf"]),
        ("tol", ["exact", "--tol", "nan"]),
        ("delta", ["estimate", "--target", "b", "--delta", "nan", "--rmax", "1e-3",
                   "--walks", "10"]),
        ("delta", ["estimate", "--target", "b", "--delta", "inf", "--rmax", "1e-3",
                   "--walks", "10"]),
        ("eps", ["estimate", "--target", "b", "--eps", "5", "--rmax", "1e-3", "--walks", "10"]),
        ("gamma", ["diffusion", "--target", "b", "--family", "heat-kernel", "--gamma", "inf"]),
        ("alpha", ["diffusion", "--target", "b", "--family", "pagerank", "--alpha", "0"]),
        # 13,815,510,551 levels: refused before their weights are allocated
        ("alpha", ["diffusion", "--target", "b", "--family", "pagerank", "--alpha", "1e-9"]),
        ("trials", ["bench", "--target", "b", "--trials", "0"]),
        ("delta", ["bench", "--target", "b", "--delta", "1e-310", "--estimator", "mc"]),
        ("delta", ["bench", "--target", "b", "--delta", "1e-12", "--estimator", "mc"]),
        ("delta", ["bench", "--target", "b", "--delta", "1e-300", "--estimator", "mc"]),
        ("delta", ["estimate", "--target", "b", "--delta", "1e-300"]),
        # finite counts over 2^28 walks: refused before any walk runs
        ("delta", ["bench", "--target", "b", "--delta", "1e-6", "--estimator", "mc"]),
        ("w", ["estimate", "--target", "b", "--rmax", "1e-3", "--walks", "300000000"]),
        # over 2^32 expected steps: a tiny alpha is refused before any walk runs,
        # and with the default r_max before a push that would not end
        ("alpha", ["estimate", "--target", "b", "--alpha", "1e-12", "--rmax", "1"]),
        ("alpha", ["estimate", "--target", "b", "--alpha", "1e-12"]),
        ("alpha", ["estimate", "--target", "b", "--alpha", "1e-300", "--rmax", "1"]),
        # refused at the first mc trial: no csv row is printed before it
        ("alpha", ["bench", "--target", "b", "--estimator", "mc", "--alpha", "1e-12",
                   "--cap", "0"]),
        # over 2^28 positions in a diffusion walk table, (ell_max+1)*w_per_level
        # with ell_max 61, refused before the push and before any allocation
        ("w_per_level", ["diffusion", "--target", "b", "--family", "pagerank",
                         "--walks-per-level", "300000000"]),
        ("w_per_level", ["diffusion", "--target", "b", "--family", "pagerank",
                         "--walks-per-level", "5000000"]),
        # 138,155,098 levels: the default 1000 walks per level are refused
        # before their 2 GiB of weights are built
        ("w_per_level", ["diffusion", "--target", "b", "--family", "pagerank",
                         "--alpha", "1e-7"]),
        ("cap", ["exact", "--cap", "-1"]),
        # one vector per level: over 2^28 - 1 levels is refused before the first
        ("ell_max", ["exact", "--ell", "4611686018427387904"]),
        ("ell_max", ["exact", "--ell", "268435456"]),
        ("cap", ["bench", "--target", "b", "--cap", "-1"]),
    ], ids=lambda a: " ".join(a) if isinstance(a, list) else a)
    def test_one_error_line_exit_2(self, k3_file, name, args):
        source = [] if args[0] == "validate" else ["--source", "a"]
        proc = run_cli(args[0], "--graph", k3_file, *source, *args[1:], timeout=60)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith(f"error: {name} must be "), proc.stderr
        assert proc.stderr.count("\n") == 1, proc.stderr
        assert "Traceback" not in proc.stderr and "RuntimeWarning" not in proc.stderr

    @pytest.mark.parametrize("alpha", ["1e-9", "1e-8"])
    def test_tiny_alpha_rounds_refused_before_any_draw(self, k3_file, alpha, monkeypatch,
                                                       capsys):
        # one walk expects 1/alpha steps, under 2^32, in as many rounds, each
        # charged as 256 steps: refused before the push and before any draw
        for name in ("random", "multinomial", "permutation"):
            monkeypatch.setattr(RandomStream, name, pytest.fail)
        argv = ["estimate", "--graph", k3_file, "--source", "a", "--target", "b",
                "--alpha", alpha, "--rmax", "1", "--walks", "1"]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: alpha must be large enough for at most 2^32 expected steps, " \
                      f"got {float(alpha)}\n"

    def test_threads_option_removed(self, k3_file):
        proc = run_cli("validate", "--graph", k3_file, "--threads", "1")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "unrecognized arguments: --threads 1" in proc.stderr


class TestValidateCommand:
    def test_valid_graph(self, k3_file):
        proc = run_cli("validate", "--graph", k3_file)
        assert proc.returncode == 0
        record = json.loads(proc.stdout)
        assert record["nodes"] == 3
        assert record["edges"] == 3
        assert record["symmetric"] is True


class TestDeterminism:
    def test_repeated_runs_byte_identical(self, k3_file):
        commands = [
            ["estimate", "--graph", k3_file, "--source", "a", "--target", "b",
             "--seed", "5"],
            ["exact", "--graph", k3_file, "--source", "a"],
            ["bench", "--graph", k3_file, "--source", "a", "--target", "c",
             "--trials", "3", "--seed", "5"],
            ["diffusion", "--graph", k3_file, "--source", "a", "--target", "b",
             "--family", "pagerank", "--seed", "5"],
            ["validate", "--graph", k3_file],
        ]
        # the seed-to-stream mapping must not depend on hash randomisation
        for cmd in commands:
            a = run_cli(*cmd, env={"PYTHONHASHSEED": "1"})
            b = run_cli(*cmd, env={"PYTHONHASHSEED": "2"})
            assert a.returncode == 0, a.stderr
            assert a.stdout == b.stdout


class TestImports:
    def test_library_and_cli_load_no_scipy(self):
        code = ("import sys, bippr, bippr.cli; "
                "print(sorted({k for k in sys.modules if k.split('.')[0] == 'scipy'}))")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"


class TestInProcessEntryPoint:
    def test_main_returns_exit_code(self, k2_file, capsys):
        assert main(["validate", "--graph", k2_file]) == 0
        capsys.readouterr()
        assert main(["estimate", "--graph", k2_file, "--source", "a",
                     "--target", "nope"]) == 2


UNWEIGHTED = "a b\nb c\nc d\nd e\ne a\na c\n"
WEIGHTED = "a b 1.5\nb c 2\nc d 0.5\nd a 1\na c 3\n"
CLI_GOLDEN_FILE = pathlib.Path(__file__).with_name("cli_golden.json")

# Each case is a command line; {u} and {w} stand for the unweighted 5-node
# and the weighted 4-node graph file.
CLI_CASES = [
    "estimate --graph {u} --source a --target c --seed 3",
    "estimate --graph {u} --source a --target c --seed 3 --trace-push",
    "exact --graph {u} --source a",
    "exact --graph {u} --source a --ell 2",
    *[f"bench --graph {{u}} --source a --target d --trials 3 --seed 4 --estimator {e}"
      for e in ("all", "mc", "push", "bippr")],
    *[f"bench --graph {{w}} --weighted --source a --target c --trials 3 --seed 5 "
      f"--estimator {e} --cap 2" for e in ("all", "mc", "push", "bippr")],
    "bench --graph {w} --weighted --source b --target d --trials 2 --seed 6",
    *[f"diffusion --graph {{u}} --source a --target d --family {family} "
      f"--trunc-tol 1e-3 --walks-per-level 50 --seed 7{extra}"
      for family in ("pagerank", "heat-kernel") for extra in ("", " --independent-walks")],
    # at --rmax 0.1 the push leaves terms that the walks read, so the output
    # changes with the walks (at the default 1e-3 it does not on this graph)
    *[f"diffusion --graph {{u}} --source a --target d --family {family} "
      f"--trunc-tol 1e-3 --rmax 0.1 --walks-per-level 50 --seed 7{extra}"
      for family in ("pagerank", "heat-kernel") for extra in ("", " --independent-walks")],
    "validate --graph {u}",
    "validate --graph {w} --weighted",
]


class TestGoldenOutput:
    """Every case's stdout, byte for byte, as recorded in ``cli_golden.json``."""

    @pytest.fixture(scope="class")
    def golden(self):
        return json.loads(CLI_GOLDEN_FILE.read_text())

    @pytest.mark.parametrize("case", CLI_CASES)
    def test_stdout_matches_record(self, case, golden, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("BIPPR_SEED", raising=False)
        (tmp_path / "u.txt").write_text(UNWEIGHTED)
        (tmp_path / "w.txt").write_text(WEIGHTED)
        argv = case.format(u=tmp_path / "u.txt", w=tmp_path / "w.txt").split()
        assert main(argv) == 0
        assert capsys.readouterr().out == golden[case]
