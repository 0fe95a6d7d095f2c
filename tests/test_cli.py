"""Command-line interface wiring."""
import re

import numpy as np
import pytest

from jobshopls import (OpId, Solution, build_graph, builtin_instance,
                       parse_taillard, validate)
from jobshopls.cli import main


def test_solve_prints_cost_and_gap(capsys):
    assert main(["solve", "ta01", "--method", "fdd/mwkr"]) == 0
    out = capsys.readouterr().out
    assert "1417" in out and "15.11" in out


def test_solve_writes_machine_orders(tmp_path, capsys):
    out = tmp_path / "sol.txt"
    assert main(["solve", "ta01", "--method", "spt", "--out", str(out)]) == 0
    text = out.read_text()
    assert sum(1 for l in text.splitlines() if l.startswith("machine ")) == 15
    capsys.readouterr()


def test_solve_out_writes_the_solution_it_reports(tmp_path, capsys, monkeypatch):
    import jobshopls.bench as bench
    import jobshopls.metaheuristics as metaheuristics

    calls = []
    real_run = metaheuristics.run
    def counting_run(*args, **kwargs):
        calls.append(args)
        return real_run(*args, **kwargs)
    monkeypatch.setattr(metaheuristics, "run", counting_run)
    monkeypatch.setattr(bench, "run", counting_run)

    out = tmp_path / "sol.txt"
    assert main(["solve", "ta02", "--method", "ils", "--iters", "20",
                 "--seed", "4", "--out", str(out)]) == 0
    assert len(calls) == 1
    cost = int(re.search(r"cost (\d+)", capsys.readouterr().out).group(1))
    seqs = [[OpId(int(j), int(p)) for j, p in re.findall(r"\((\d+),(\d+)\)", line)]
            for line in out.read_text().splitlines() if line.startswith("machine ")]
    inst = builtin_instance("ta02")
    assert validate(inst, Solution(seqs)) == []
    assert build_graph(inst, Solution(seqs)).makespan == cost


def test_gen_round_trips_through_the_parser(tmp_path, capsys):
    assert main(["gen", "4x3", "--seed", "9"]) == 0
    inst = parse_taillard(capsys.readouterr().out)
    assert (inst.n_jobs, inst.n_machines) == (4, 3)

    out_dir = tmp_path / "many"
    assert main(["gen", "3x3", "--seed", "1", "--count", "2",
                 "--out", str(out_dir)]) == 0
    assert sorted(p.name for p in out_dir.iterdir()) == \
        ["gen3x3s1.txt", "gen3x3s2.txt"]


def test_bench_flags_mode_emits_csv(capsys):
    assert main(["bench", "--method", "spt", "--instances", "ta01", "ta02",
                 "--format", "csv"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "instance,method_cost,bks,gap,seconds"
    assert len(lines) == 3


def test_bench_config_file_with_overrides(tmp_path, capsys):
    cfg = tmp_path / "b.cfg"
    cfg.write_text("method = spt\ninstances = ta01\n")
    assert main(["bench", str(cfg), "--format", "table"]) == 0
    out = capsys.readouterr().out
    assert "group 15x15" in out


def test_bench_flags_set_config_fields(tmp_path, capsys, monkeypatch):
    import jobshopls.bench as bench
    seen = []
    monkeypatch.setattr(bench, "run_benchmark",
                        lambda config: seen.append(config) or bench.BenchmarkResult())
    cfg = tmp_path / "b.cfg"
    cfg.write_text("method = spt\ninstances = ta01\niterations = 7\nseed = 3\n"
                   "checkpoint = a.npz\nout = a.csv\nformat = table\njobs = 2\n"
                   "controller_file = c.cfg\n")
    flags = ["--method", "fdd/mwkr", "--instances", "ta02", "ta03",
             "--iters", "9", "--seed", "4", "--checkpoint", "b.npz",
             "--out", "b.csv", "--format", "csv", "--jobs", "3"]
    assert main(["bench", str(cfg)]) == 0
    assert main(["bench", str(cfg)] + flags) == 0
    loaded, overridden = seen
    want = bench.BenchmarkConfig(
        method="fdd/mwkr", instances=("ta02", "ta03"), iterations=9, seed=4,
        checkpoint="b.npz", out="b.csv", fmt="csv", jobs=3,
        controller_file="c.cfg")
    assert overridden == want
    # every flag moved its field away from the file's value
    for name in ("method", "instances", "iterations", "seed", "checkpoint",
                 "out", "fmt", "jobs"):
        assert getattr(loaded, name) != getattr(want, name), name

    # flags-only mode leaves the rest at BenchmarkConfig's defaults
    assert main(["bench", "--method", "spt", "--instances", "ta01"]) == 0
    assert seen[-1] == bench.BenchmarkConfig(method="spt", instances=("ta01",))
    capsys.readouterr()


def test_bench_without_config_or_method_errors(capsys):
    assert main(["bench"]) == 2
    assert "needs --method" in capsys.readouterr().err


def test_unknown_method_reports_error(capsys):
    assert main(["solve", "ta01", "--method", "wizardry"]) == 1
    assert "error" in capsys.readouterr().err.lower()


def test_train_zero_epochs_writes_checkpoint(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["train", "--out", str(out), "--seed", "1", "--iters", "0",
                 "--size", "3x3"]) == 0
    assert (out / "checkpoint.npz").exists()
    assert (out / "train_log.csv").exists()
    assert "best validation makespan" in capsys.readouterr().out
