"""tools/bench_pairs.py: run order, refusal of incorrect runs, the summary."""
import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def load_tool():
    spec = importlib.util.spec_from_file_location(
        "bench_pairs", ROOT / "tools" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_pairs_alternate_refuse_incorrect_runs_and_count_wins(tmp_path, monkeypatch):
    tool = load_tool()
    parent, change = tmp_path / "parent", ROOT   # the change side needs BENCHMARK.json
    calls = []

    run_seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]

    def fake_run(checkout, workload, seed, seconds):
        assert seconds == run_seconds   # run length comes from the benchmark
        side = "parent" if checkout == parent.resolve() else "change"
        calls.append((seed, side))
        fast = {"parent": 10.0, "change": 12.0}[side]
        return {"correct": (seed, side) != (3, "change"),
                "metrics": {"steps_per_s": {"value": fast + seed, "unit": "1/s"},
                            "peak_rss_mb": {"value": 100.0, "unit": "MB"}},
                "env": {"side": side}}

    monkeypatch.setattr(tool, "run_side", fake_run)
    out = tmp_path / "pairs.json"
    out.write_text(json.dumps({"search-small": {"kept": True}}))
    code = tool.main(["--parent", str(parent), "--change", str(change),
                      "--workload", "train-desk", "--seeds", "1", "2", "3",
                      "--out", str(out)])
    assert code == 1   # one pair was refused
    assert calls == [(1, "parent"), (1, "change"), (2, "change"), (2, "parent"),
                     (3, "parent"), (3, "change")]
    report = json.loads(out.read_text())
    assert report["search-small"] == {"kept": True}
    data = report["train-desk"]
    assert data["refused"] == [{"seed": 3, "incorrect": ["change"]}]
    assert [p["seed"] for p in data["pairs"]] == [1, 2]
    assert [p["first"] for p in data["pairs"]] == ["parent", "change"]
    steps = data["metrics"]["steps_per_s"]
    assert steps["parent"]["values"] == [11.0, 12.0]
    assert steps["change"]["median"] == 13.5
    assert (steps["wins"], steps["losses"], steps["ties"]) == (2, 0, 0)
    assert steps["median_gain"] == 2.0 and steps["parent_iqr"] == 0.5
    rss = data["metrics"]["peak_rss_mb"]
    assert (rss["wins"], rss["ties"], rss["better"]) == (0, 2, "lower")
    assert data["env"] == {"parent": {"side": "parent"}, "change": {"side": "change"}}


def test_run_side_reads_the_result_record(tmp_path):
    tool = load_tool()
    script = tmp_path / "perfbench" / "run.py"
    script.parent.mkdir()
    # a stand-in for perfbench/run.py: free-form stdout, then the record file
    script.write_text(
        "import json, sys\n"
        "from pathlib import Path\n"
        "args = dict(zip(sys.argv[1::2], sys.argv[2::2]))\n"
        "print('not json')\n"
        "out = Path('.bench_build/perfbench')\n"
        "out.mkdir(parents=True, exist_ok=True)\n"
        "(out / f\"result-{args['--workload']}-{args['--seed']}-0.json\").write_text("
        "json.dumps({'correct': True, 'metrics': {}, 'env': {'seconds': args['--seconds']}}))\n")
    record = tool.run_side(tmp_path, "train-desk", 5, 25)
    assert record == {"correct": True, "metrics": {}, "env": {"seconds": "25"}}
