"""Benchmark of the jobshopls package.

Run from the root of a checkout:

    python3 perfbench/run.py --workload search-small --seed 1 --seconds 30 --trace 0

Workloads (see ``harness.WORKLOADS`` and ``BENCHMARK.json``):

* search-small  five controllers, 100 iterations, each on two of ta01-ta10
* policy-large  greedy nls_anp rollout on ta51 with a full-scale network
* train-desk    desk-scale DQN training on random 6x6 instances

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones. Each metric is printed as ``name = value unit`` and the last line is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Set-up files, result records and span logs go to ``.bench_build/perfbench``.

Untraced times are measured against ``perfbench/frozen``, a copy of the
package as it was when the benchmark was defined: each call is paired with
the same call into the copy, and a time is reported as the pair's ratio
times the copy's nominal time from ``perfbench/nominal.json`` (see
``harness``).

``--record`` re-runs every workload's fingerprint pass and rewrites
``perfbench/fingerprints.json``; do that only for an intended change of
behaviour. ``--record-nominal`` re-measures the copy's times and rewrites
``perfbench/nominal.json``; that changes the unit of every reported time,
so it was done once, when the benchmark was defined.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
FINGERPRINTS = HERE / "fingerprints.json"
NOMINAL = HERE / "nominal.json"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="rewrite fingerprints.json and exit")
    parser.add_argument("--record-nominal", action="store_true",
                        help="rewrite nominal.json and exit")
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "jobshopls" / "__init__.py").is_file():
        print(f"error: {src / 'jobshopls'} not found; run from the root of a "
              "jobshopls checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(HERE)]
    import harness

    workdir = root / ".bench_build" / "perfbench"
    if args.record:
        return record(harness, root, workdir)
    if args.record_nominal:
        return record_nominal(harness, root, workdir)
    if args.workload not in harness.WORKLOADS:
        print(f"error: --workload must be one of {sorted(harness.WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = harness.WORKLOADS[args.workload]
    expected = json.loads(FINGERPRINTS.read_text())[workload.name]
    nominal = json.loads(NOMINAL.read_text())[workload.name]
    result = harness.run(workload, args.seed, args.seconds, bool(args.trace),
                         root, workdir, expected, nominal)

    spec = harness.spec(root)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = harness.emit(result, wanted)
    print(f"workload {workload.name} seed {args.seed} trace {args.trace}: "
          f"closed loop, 1 client, jobs=1, {result['passes']} timed passes")
    print("env " + json.dumps(result["env"], sort_keys=True))
    for line in result["log"]:
        print(line)
    for name, m in metrics.items():
        note = result["notes"].get(name)
        print(f"{name} = {m['value']} {m['unit']}" + (f"  ({note})" if note else ""))
    for name, note in result["notes"].items():
        if name not in metrics:
            print(f"{name} = {note}")

    out = {"correct": result["correct"], "attempted": result["attempted"],
           "failed": result["failed"], "metrics": metrics}
    record_file = workdir / f"result-{workload.name}-{args.seed}-{args.trace}.json"
    record_file.write_text(json.dumps(dict(out, env=result["env"],
                                           notes=result["notes"],
                                           pairs=result["pairs"]),
                                      indent=1))
    print(json.dumps(out))
    return 0


def record(harness, root: Path, workdir: Path) -> int:
    """Record the fingerprint pass of every workload at the benchmark seed."""
    prints = {}
    for name, workload in harness.WORKLOADS.items():
        result = harness.run(workload, harness.BENCH_SEED, 0.0, False, root,
                             workdir, None)
        if not result["correct"]:
            print("\n".join(result["log"]), file=sys.stderr)
            return 1
        prints[name] = result["fingerprints"]
        print(f"{name}: {prints[name]}")
    FINGERPRINTS.write_text(json.dumps(prints, indent=1, sort_keys=True) + "\n")
    return 0


def record_nominal(harness, root: Path, workdir: Path) -> int:
    """Record the frozen copy's median seconds per request and set-up."""
    nominal = {}
    for name, workload in harness.WORKLOADS.items():
        nominal[name] = harness.measure_nominal(workload, workdir, root / "src")
        print(f"{name}: {nominal[name]}")
    NOMINAL.write_text(json.dumps(nominal, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
