"""Self-test of the benchmark on tiny inputs.

Run from the root of a checkout: ``python3 -m pytest perfbench``.
"""
from __future__ import annotations

import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import harness  # noqa: E402
import tracing  # noqa: E402
from harness import Workload  # noqa: E402
from jobshopls import bench  # noqa: E402

TINY = [
    Workload("tiny-search", ("vns", "sa_restart"), ("ta01", "ta02"), 5),
    Workload("tiny-policy", ("nls_anp",), ("ta01",), 3, net="desk"),
    Workload("tiny-train", ("train",), ("gen6x6",), 8,
             train_overrides=(("epochs", 1), ("warmup", 4), ("batch_size", 2),
                              ("optimize_every", 2), ("n_validation", 2),
                              ("t_max", 3))),
]


@pytest.fixture(autouse=True)
def _one_setup(monkeypatch):
    monkeypatch.setattr(harness, "SETUP_REPEATS", 1)


def _run(workload, trace, tmp_path, expected=None):
    return harness.run(workload, seed=3, seconds=0.0, trace=trace, root=ROOT,
                       workdir=tmp_path, expected=expected)


def _sites():
    return [(owner, key, getattr(owner, key))
            for owner, key in tracing.patch_sites()]


@pytest.mark.parametrize("workload", TINY, ids=lambda w: w.name)
def test_metrics_fingerprints_and_restored_functions(workload, tmp_path):
    spec = harness.spec(ROOT)
    before = _sites()

    plain = _run(workload, False, tmp_path)
    traced = _run(workload, True, tmp_path, expected=plain["fingerprints"])

    # every named metric is emitted with the unit BENCHMARK.json gives it
    for result, wanted in ((plain, spec["end_to_end"]), (traced, spec["per_layer"])):
        emitted = harness.emit(result, wanted)
        assert list(emitted) == [m["name"] for m in wanted]
        for m in wanted:
            value = emitted[m["name"]]["value"]
            assert emitted[m["name"]]["unit"] == m["unit"]
            assert isinstance(value, float) and math.isfinite(value), m["name"]
    assert all(v["value"] > 0 for v in
               harness.emit(plain, spec["end_to_end"]).values())

    # traced and untraced runs give the same answers and check out
    assert plain["correct"] and traced["correct"], plain["log"] + traced["log"]
    assert traced["fingerprints"] == plain["fingerprints"]
    assert (tmp_path / f"spans-{workload.name}-3.jsonl").stat().st_size > 0

    # the package runs on its own functions again
    assert all(getattr(owner, key) is fn for owner, key, fn in before)


def test_fingerprint_drift_fails(tmp_path):
    workload = TINY[0]
    requests = workload.requests()
    expected = {r.key: 1 for r in requests}
    result = _run(workload, False, tmp_path, expected=expected)
    assert not result["correct"]
    assert result["failed"] == len(requests)


def test_training_check_is_not_traced(tmp_path, monkeypatch):
    from dataclasses import replace
    from jobshopls import training
    workload = TINY[2]
    ctx = harness.setup(workload, tmp_path)
    cfg = replace(ctx.train_config,
                  transitions_per_epoch=workload.iterations // ctx.train_config.epochs)
    calls = []
    original = training.evaluate
    monkeypatch.setattr(training, "evaluate",
                        lambda *a, **k: calls.append(1) or original(*a, **k))
    training.train(cfg, ctx.instances, seed=3)
    monkeypatch.undo()

    traced = _run(workload, True, tmp_path)
    # the re-evaluation that checks train()'s result is not train()'s work
    assert traced["correct"], traced["log"]
    assert traced["metrics"]["training.evaluate.calls"] == len(calls) > 0


def test_problems_dropped_by_bench_are_failures(tmp_path, monkeypatch):
    monkeypatch.setattr(bench, "validate", lambda instance, solution: ["injected"])
    result = _run(TINY[0], False, tmp_path)
    assert result["failed"] == result["attempted"]
    assert harness.emit(result, [{"name": "ok_frac", "unit": "ratio"}]) == \
        {"ok_frac": {"value": 0.0, "unit": "ratio"}}


def test_schedule_makespan_matches_and_rejects_a_deadlock():
    from jobshopls import build_graph, builtin_instance
    from jobshopls.dispatch import DispatchRule, dispatch
    instance = builtin_instance("ta01")
    solution = dispatch(instance, DispatchRule.FDD_over_MWKR)
    assert harness.schedule_makespan(instance, solution) == \
        build_graph(instance, solution).makespan
    # job 0 runs on m0 then m1; some job j runs on m1 before m0. Putting
    # (0, 0) last on m0 and (0, 1) first on m1 closes a cycle through j.
    m0, m1 = int(instance.machine[0, 0]), int(instance.machine[0, 1])
    route = instance.machine.tolist()
    assert any(r.index(m1) < r.index(m0) for r in route[1:])
    first = solution.machine_seq[m0]
    first.append(first.pop(first.index((0, 0))))
    second = solution.machine_seq[m1]
    second.insert(0, second.pop(second.index((0, 1))))
    with pytest.raises(ValueError):
        harness.schedule_makespan(instance, solution)



def test_frozen_copy_is_unchanged():
    # nominal.json is in the copy's seconds: an edited copy changes the unit
    assert harness.tree_sha256(harness.FROZEN_DIR / harness.FROZEN) == \
        harness.FROZEN_SHA256


def test_times_are_pair_ratios_in_nominal_seconds(tmp_path):
    from statistics import median
    workload = TINY[0]
    requests = workload.requests()
    nominal = {"setup": 3.0, **{r.key: 2.0 + i for i, r in enumerate(requests)}}
    result = harness.run(workload, seed=3, seconds=0.0, trace=False, root=ROOT,
                         workdir=tmp_path, expected=None, nominal=nominal)
    pairs = result["pairs"]
    per_request = [median(t / f for t, f in (p[i] for p in pairs["requests"]))
                   * nominal[r.key] for i, r in enumerate(requests)]
    metrics = result["metrics"]
    assert metrics["setup_s"] == pytest.approx(
        3.0 * median(t / f for t, f in pairs["setup"]))
    assert metrics["steps_per_s"] == pytest.approx(
        len(requests) * workload.iterations / sum(per_request))
    assert metrics["solve_s_tail"] == pytest.approx(max(per_request))


def test_copy_set_up_does_not_load_the_package(tmp_path):
    import subprocess
    code = ("import sys, harness; from pathlib import Path; "
            f"harness.setup(harness.WORKLOADS['train-desk'], Path({str(tmp_path)!r}), "
            "harness.FROZEN); print(harness.PACKAGE in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], cwd=HERE, check=True,
                         capture_output=True, text=True, timeout=120)
    assert out.stdout.split() == ["False"]
