"""Alternated parent/change pairs of perfbench runs, summarised as JSON.

Run from anywhere, with two checkouts of the repository:

    python3 tools/bench_pairs.py --parent ../parent --change . \
        --workload train-desk --seeds 11 12 13 21 --out BENCH.json

For each seed it runs ``perfbench/run.py --workload W --seed S --seconds T
--trace 0`` once in each checkout, back to back, where T is ``run_seconds``
from the change's ``BENCHMARK.json``; the parent goes first on even pair
indices and the change on odd ones, so slow drift of a shared host falls on
both sides alike. It reads ``correct``, ``metrics`` and ``env`` from the
result file each run writes under ``.bench_build/perfbench``. A pair in which
either side reports ``correct: false`` is refused: it is listed, not counted.

The output file maps each workload run into it to, per end-to-end metric,
each side's values, median and quartiles, and the change's wins, losses and
ties over the pairs (by the metric's ``better`` direction in the change's
``BENCHMARK.json``), plus each side's env record. Other workloads already in
the file are kept, and the file is rewritten after every pair.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

SIDES = ("parent", "change")


def run_side(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced perfbench run's result record: correct, metrics, env."""
    record = (checkout / ".bench_build" / "perfbench"
              / f"result-{workload}-{seed}-0.json")
    record.unlink(missing_ok=True)
    subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", f"{seconds:g}", "--trace", "0"],
        cwd=checkout, stdout=subprocess.DEVNULL, check=True)
    return json.loads(record.read_text())


def stats(values: list) -> dict:
    q1, median, q3 = np.percentile(values, [25, 50, 75]).tolist()
    return {"values": values, "median": median, "q1": q1, "q3": q3}


def summarise(pairs: list, better: dict) -> dict:
    """Per metric: each side's values and quartiles, and the change's wins."""
    metrics = {}
    for name, direction in better.items():
        if not pairs or any(name not in p[s] for p in pairs for s in SIDES):
            continue
        sign = 1.0 if direction == "higher" else -1.0
        diffs = [sign * (p["change"][name] - p["parent"][name]) for p in pairs]
        entry = {side: stats([p[side][name] for p in pairs]) for side in SIDES}
        entry.update(
            better=direction,
            wins=sum(d > 0 for d in diffs), losses=sum(d < 0 for d in diffs),
            ties=sum(d == 0 for d in diffs),
            median_gain=sign * (entry["change"]["median"] - entry["parent"]["median"]),
            parent_iqr=entry["parent"]["q3"] - entry["parent"]["q1"])
        metrics[name] = entry
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    report = json.loads(args.out.read_text()) if args.out.exists() else {}
    pairs, refused, env = [], [], {}
    for k, seed in enumerate(args.seeds):
        order = SIDES if k % 2 == 0 else SIDES[::-1]
        runs = {side: run_side(checkouts[side], args.workload, seed, seconds)
                for side in order}
        wrong = [side for side in SIDES if not runs[side]["correct"]]
        if wrong:
            refused.append({"seed": seed, "incorrect": wrong})
        else:
            pairs.append({"seed": seed, "first": order[0], **{
                side: {name: m["value"] for name, m in runs[side]["metrics"].items()}
                for side in SIDES}})
            env = {side: runs[side]["env"] for side in SIDES}
        line = {side: runs[side]["metrics"].get("steps_per_s", {}).get("value")
                for side in SIDES}
        print(f"seed {seed} ({order[0]} first): steps_per_s {line}"
              + (f", refused: {wrong} incorrect" if wrong else ""), flush=True)
        report[args.workload] = {
            "command": f"python3 perfbench/run.py --workload {args.workload} "
                       f"--seed S --seconds {seconds:g} --trace 0",
            "metrics": summarise(pairs, better), "pairs": pairs,
            "refused": refused, "env": env}
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 1 if refused else 0


if __name__ == "__main__":
    sys.exit(main())
