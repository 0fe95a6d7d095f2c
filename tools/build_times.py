"""Per-call times of a full build_graph against a move's derived build.

Run from the root of a checkout:

    python3 tools/build_times.py --out BENCH.json

On ta01, ta51 and a random 6x6, it takes the SPT schedule's graph and every
feasible move of the four operators on it. Each moved schedule is built both
ways: by ``build_graph`` on the moved machine orders (a full Kahn sort), and
by ``apply_move`` from the unmoved graph (which re-sorts only the window's
stretch of its topological order). Both include the order check. A time is
the minimum over SWEEPS sweeps over the moves, divided by the number of
moves, in microseconds. The results go under ``build_times`` in the
output file, together with the core count and the numpy and Python
versions; other keys already in the file are kept.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import timeit
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path.cwd() / "src"))

from jobshopls import build_graph, builtin_instance, generate_instance  # noqa: E402
from jobshopls.dispatch import DispatchRule, dispatch  # noqa: E402
from jobshopls.neighborhood import (Operator, WouldCreateCycle,  # noqa: E402
                                    apply_move, enumerate_moves)

SWEEPS = 50


def feasible_moves(graph) -> list:
    """(move, moved machine orders) of every feasible move on ``graph``."""
    out = []
    for op in Operator:
        for mv in enumerate_moves(graph, op):
            try:
                out.append((mv, apply_move(graph, mv).mach_order))
            except WouldCreateCycle:
                continue
    return out


def per_call_us(fn, calls: int) -> float:
    return min(timeit.repeat(fn, number=1, repeat=SWEEPS)) / calls * 1e6


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    times = {}
    for name, inst in (("ta01", builtin_instance("ta01")),
                       ("ta51", builtin_instance("ta51")),
                       ("6x6", generate_instance(6, 6, seed=0))):
        graph = build_graph(inst, dispatch(inst, DispatchRule.SPT))
        cases = feasible_moves(graph)
        full = per_call_us(lambda: [build_graph(inst, order) for _, order in cases],
                           len(cases))
        derived = per_call_us(lambda: [apply_move(graph, mv) for mv, _ in cases],
                              len(cases))
        times[name] = {"moves": len(cases), "full_us": round(full, 1),
                       "derived_us": round(derived, 1),
                       "full_over_derived": round(full / derived, 2)}
        print(name, times[name], flush=True)
    report = json.loads(args.out.read_text()) if args.out.exists() else {}
    report["build_times"] = {
        "command": f"python3 tools/build_times.py --out {args.out}",
        "sweeps": SWEEPS, "instances": times,
        "env": {"nproc": os.cpu_count(), "numpy": np.__version__,
                "python": platform.python_version()}}
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
