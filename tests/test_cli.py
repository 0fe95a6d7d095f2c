"""Command-line interface wiring."""
import io
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


def test_solve_reports_a_checkpoint_without_its_meta_record(tmp_path, capsys):
    path = tmp_path / "other.npz"
    np.savez(path, weights=np.zeros(3))
    assert main(["solve", "ta01", "--method", "nls_a", "--iters", "2",
                 "--checkpoint", str(path)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: checkpoint {path}: no __meta__ record; " \
        "not a file written by save_checkpoint\n"


NOT_META = "the __meta__ record is not a JSON object with version, n_actions and config"


@pytest.mark.parametrize("meta, message", [
    (b'{"v": 1}', NOT_META), (b"not json", NOT_META), (b"[1, 2]", NOT_META),
    (b'{"version": 1, "n_actions": 2, "config": {"bogus": 1}}',
     "GNNConfig.__init__() got an unexpected keyword argument 'bogus'"),
], ids=["keys", "text", "list", "config"])
def test_solve_reports_a_malformed_meta_record(tmp_path, capsys, meta, message):
    path = tmp_path / "badmeta.npz"
    np.savez(path, __meta__=np.frombuffer(meta, dtype=np.uint8))
    assert main(["solve", "ta01", "--method", "nls_a", "--iters", "2",
                 "--checkpoint", str(path)]) == 1
    assert capsys.readouterr().err == f"error: checkpoint {path}: {message}\n"


NPY = io.BytesIO()
np.save(NPY, np.zeros(3))


@pytest.mark.parametrize("content", [b"", b"not a checkpoint\n", b"PK\x03\x04cut",
                                     NPY.getvalue()],
                         ids=["empty", "text", "cut-zip", "npy"])
def test_solve_reports_a_checkpoint_that_is_not_an_npz(tmp_path, capsys, content):
    path = tmp_path / "notnpz.npz"
    path.write_bytes(content)
    assert main(["solve", "ta01", "--method", "nls_a", "--iters", "2",
                 "--checkpoint", str(path)]) == 1
    assert capsys.readouterr().err == \
        f"error: checkpoint {path}: not an .npz archive\n"


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
        checkpoint="b.npz", out="b.csv", format="csv", jobs=3,
        controller_file="c.cfg")
    assert overridden == want
    # every flag moved its field away from the file's value
    for name in ("method", "instances", "iterations", "seed", "checkpoint",
                 "out", "format", "jobs"):
        assert getattr(loaded, name) != getattr(want, name), name

    # flags-only mode leaves the rest at BenchmarkConfig's defaults
    assert main(["bench", "--method", "spt", "--instances", "ta01"]) == 0
    assert seen[-1] == bench.BenchmarkConfig(method="spt", instances=("ta01",))
    capsys.readouterr()


def test_bench_fields_flags_and_file_keys_share_their_names():
    import dataclasses
    import jobshopls.bench as bench
    from jobshopls.cli import _build_parser
    fields = {f.name for f in dataclasses.fields(bench.BenchmarkConfig)}
    assert fields == set(bench._CONFIG_FIELDS)
    [sub] = [a for a in _build_parser()._actions if a.dest == "command"]
    flags = [a for a in sub.choices["bench"]._actions
             if a.option_strings and a.dest != "help"]
    assert flags and {a.dest for a in flags} <= fields


@pytest.mark.parametrize("argv, name", [
    (["solve", "ta01", "--method", "nls_a", "--iters", "2", "--checkpoint",
      "{dir}"], "{dir}"),
    (["bench", "{dir}"], "{dir}"),
    (["gen", "6by6"], "6by6"),
    (["train", "--out", "{dir}", "--size", "6by6"], "6by6"),
], ids=["checkpoint-dir", "config-dir", "gen-size", "train-size"])
def test_input_errors_are_one_error_line(tmp_path, capsys, argv, name):
    fill = lambda text: text.replace("{dir}", str(tmp_path))
    assert main([fill(arg) for arg in argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert fill(name) in err


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
