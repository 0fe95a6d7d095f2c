"""Benchmark harness: method routing, instance specs, output formats."""
import numpy as np
import pytest

from jobshopls import emit_taillard, generate_instance
from jobshopls.bench import (BenchmarkConfig, classify_method,
                             expand_instance_specs, load_benchmark_config,
                             run_benchmark)
from jobshopls.dispatch import DispatchRule
from jobshopls.metaheuristics import ControllerKind


def test_method_classification():
    kind, parsed = classify_method("spt")
    assert kind == "pdr" and parsed is DispatchRule.SPT
    kind, parsed = classify_method("vns")
    assert kind == "controller" and parsed is ControllerKind.VNS
    kind, parsed = classify_method("nls_anp")
    assert kind == "policy"
    with pytest.raises(ValueError):
        classify_method("magic")


def test_instance_spec_expansion(tmp_path):
    assert [lbl for lbl, _ in expand_instance_specs(["ta01-ta04"])] == \
        ["ta01", "ta02", "ta03", "ta04"]
    gen = expand_instance_specs(["gen:3x3x2x5"])
    assert [lbl for lbl, _ in gen] == ["gen3x3s5", "gen3x3s6"]
    p = tmp_path / "own.txt"
    p.write_text(emit_taillard(generate_instance(3, 3, seed=0)))
    mixed = expand_instance_specs(["ta07", str(p)])
    assert mixed[0][0] == "ta07"
    assert mixed[1][1] == str(p)


def test_config_validation_fails_fast():
    with pytest.raises(ValueError):
        BenchmarkConfig(method="bogus", instances=("ta01",))
    with pytest.raises(ValueError):
        BenchmarkConfig(method="nls_a", instances=("ta01",))  # no checkpoint
    with pytest.raises(ValueError):
        BenchmarkConfig(method="spt", instances=("ta01",), iterations=0)
    with pytest.raises(ValueError):
        BenchmarkConfig(method="spt", instances=("ta01",), fmt="xml")
    with pytest.raises(ValueError):
        BenchmarkConfig(method="spt", instances=("ta01",), jobs=0)


def test_reference_gap_on_first_benchmark_instance():
    cfg = BenchmarkConfig(method="fdd/mwkr", instances=("ta01",))
    result = run_benchmark(cfg)
    row = result.rows[0]
    assert row.cost == 1417 and row.bks == 1231
    assert row.gap == pytest.approx((1417 - 1231) / 1231)
    assert "15.11" in result.table()


def test_csv_shape_and_reproducibility():
    cfg = BenchmarkConfig(method="vns", instances=("ta01", "ta02"),
                          iterations=30, seed=1)
    a = run_benchmark(cfg).csv()
    b = run_benchmark(cfg).csv()
    lines = a.strip().splitlines()
    assert lines[0] == "instance,method_cost,bks,gap,seconds"
    assert len(lines) == 3

    def strip_seconds(text):
        return [",".join(l.split(",")[:-1]) for l in text.strip().splitlines()]

    assert strip_seconds(a) == strip_seconds(b)


def test_parallel_matches_serial():
    serial = run_benchmark(BenchmarkConfig(
        method="ils", instances=("ta01", "ta02", "ta03"), iterations=40,
        seed=2, jobs=1))
    parallel = run_benchmark(BenchmarkConfig(
        method="ils", instances=("ta01", "ta02", "ta03"), iterations=40,
        seed=2, jobs=2))
    assert [r.cost for r in serial.rows] == [r.cost for r in parallel.rows]


def test_generated_specs_have_no_reference_value():
    result = run_benchmark(BenchmarkConfig(
        method="spt", instances=("gen:4x4x2x9",)))
    assert all(r.bks is None and r.gap is None for r in result.rows)
    assert {r.group for r in result.rows} == {"4x4"}


def test_group_means_cover_multiple_sizes():
    result = run_benchmark(BenchmarkConfig(
        method="spt", instances=("ta01", "gen:4x4x1x0")))
    means = result.group_means()
    assert "15x15" in means


def test_empty_instance_list_warns(capsys):
    result = run_benchmark(BenchmarkConfig(method="spt", instances=()))
    assert result.rows == []
    assert "empty instance" in capsys.readouterr().err.lower()


def test_config_file_parsing(tmp_path):
    p = tmp_path / "bench.cfg"
    p.write_text("# nightly sweep\nmethod = vns\ninstances = ta01, ta02\n"
                 "iterations = 25\nseed = 3\nformat = table\njobs = 2\n")
    cfg = load_benchmark_config(p)
    assert cfg.method == "vns"
    assert cfg.instances == ("ta01", "ta02")
    assert cfg.iterations == 25 and cfg.seed == 3
    assert cfg.fmt == "table" and cfg.jobs == 2
    q = tmp_path / "bad.cfg"
    q.write_text("instances = ta01\n")
    with pytest.raises(ValueError):
        load_benchmark_config(q)


def test_benchmark_config_errors_name_the_line(tmp_path):
    p = tmp_path / "bad.cfg"
    cases = [
        ("method = vns\ninstances ta01\n", f"{p}:2: expected key = value"),
        ("method = vns\n# sweep\nmachines = 5\n", f"{p}:3: unknown key 'machines'"),
        ("method = vns\ninstances = ta01\niterations = ten\n",
         f"{p}:3: iterations: invalid literal"),
        ("method = vns\n", f"{p}: method and instances are required"),
        ("method = tabu\ninstances = ta01\n", f"{p}: unknown method 'tabu'"),
    ]
    for text, message in cases:
        p.write_text(text)
        with pytest.raises(ValueError) as err:
            load_benchmark_config(p)
        assert str(err.value).startswith(message), text


def test_out_file_written(tmp_path):
    out = tmp_path / "res.csv"
    run_benchmark(BenchmarkConfig(method="mwkr", instances=("ta05",),
                                  out=str(out)))
    assert out.read_text().startswith("instance,method_cost")


def test_policy_methods_run_with_checkpoint(tmp_path):
    from jobshopls.nn import QNetwork, GNNConfig, save_checkpoint
    tiny = GNNConfig(d_emb=8, mlp_hidden=8, iqn_hidden=16, n_tau_features=8)
    ck = tmp_path / "net.npz"
    save_checkpoint(QNetwork(10, tiny, seed=3), ck)
    result = run_benchmark(BenchmarkConfig(
        method="nls_anp", instances=("gen:3x3x2x1",), iterations=5,
        checkpoint=str(ck)))
    assert len(result.rows) == 2
    assert all(r.cost > 0 for r in result.rows)


def test_wrong_checkpoint_action_count_is_rejected(tmp_path):
    from jobshopls.nn import QNetwork, GNNConfig, save_checkpoint
    tiny = GNNConfig(d_emb=8, mlp_hidden=8, iqn_hidden=16, n_tau_features=8)
    ck = tmp_path / "net.npz"
    save_checkpoint(QNetwork(2, tiny, seed=3), ck)  # |A|=2 net
    with pytest.raises(ValueError):
        run_benchmark(BenchmarkConfig(
            method="nls_anp", instances=("gen:3x3x1x1",), iterations=3,
            checkpoint=str(ck)))


def test_validation_problems_fail_the_instance(monkeypatch):
    import jobshopls.bench as bench

    calls = []
    def fake_validate(instance, solution):
        calls.append(instance.name)
        return ["machine 0: op (0, 0) appears more than once"]
    monkeypatch.setattr(bench, "validate", fake_validate)
    with pytest.raises(ValueError, match="ta03.*appears more than once"):
        run_benchmark(BenchmarkConfig(method="spt", instances=("ta03",)))
    assert calls == ["ta03"]
