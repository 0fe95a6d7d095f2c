"""Per-call times of a full build_graph against a move's derived build, of
the critical-block walk, move enumeration, move estimates and one LS step
per operator, of dispatch, and of a bench solve's fixed costs.

Run from the root of a checkout:

    python3 tools/build_times.py --out BENCH.json

On ta01, ta51 and a random 6x6, it takes the SPT schedule's graph and every
feasible move of the four operators on it. Each moved schedule is built both
ways: by ``build_graph`` on the moved machine orders (a full Kahn sort), and
by ``apply_move`` from the unmoved graph (which re-sorts only the window's
stretch of its topological order). The full build checks every machine
order, the derived one only the moved row. On the SPT graph itself it also
times ``critical_blocks`` and, per operator, ``enumerate_moves``,
``estimate_move`` per candidate (``estimate_us``; an operator without
candidates is left out) and ``ls_step``. On the instance it times one
FDD/MWKR ``dispatch`` and one ``stochastic_dispatch`` at noise 1.0 (the
restart construction, seed 0). On ta01 and ta51 it also
times what every bench solve pays besides its search, under ``fixed_us``:
``resolve_instance`` cold (the bundled instance parsed afresh, with its
``flat_ops`` and ``routed`` tables) and warm (the parsed instance reused),
``build_graph`` and ``validate`` of the SPT ``Solution``, and
``SearchGraph.solution()`` on its graph. A time is the minimum over
SWEEPS sweeps (over the moves, or of one call), divided by the number of
calls, in microseconds. The results go under ``build_times`` in
the output file, together with the core count and the numpy and Python
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

from jobshopls import (build_graph, builtin_instance, critical_blocks,  # noqa: E402
                       generate_instance, validate)
from jobshopls.dispatch import (DispatchRule, dispatch,  # noqa: E402
                                stochastic_dispatch)
from jobshopls.neighborhood import (Operator, WouldCreateCycle,  # noqa: E402
                                    apply_move, enumerate_moves, estimate_move,
                                    ls_step)
from jobshopls.taillard import resolve_instance  # noqa: E402

SWEEPS = 50


def feasible_moves(graph) -> list:
    """(move, moved machine orders) of every feasible move on ``graph``."""
    out = []
    for op in Operator:
        for mv in enumerate_moves(graph, op):
            try:
                out.append((mv, apply_move(graph, mv).rows))
            except WouldCreateCycle:
                continue
    return out


def per_call_us(fn, calls: int) -> float:
    return min(timeit.repeat(fn, number=1, repeat=SWEEPS)) / calls * 1e6


def resolve_cold(name: str) -> tuple:
    """``resolve_instance`` of a bundled name not parsed before, and the
    tables a search reads from it."""
    builtin_instance.cache_clear()
    inst = resolve_instance(name)
    return inst.flat_ops, inst.routed


def fixed_us(name: str, solution, graph) -> dict:
    """Microseconds per call of a bench solve's fixed costs on bundled
    instance ``name``, whose ``solution`` has the graph ``graph``."""
    inst = graph.instance
    times = {"resolve_cold": per_call_us(lambda: resolve_cold(name), 1),
             "resolve_warm": per_call_us(lambda: resolve_instance(name), 1),
             "build_graph": per_call_us(lambda: build_graph(inst, solution), 1),
             "validate": per_call_us(lambda: validate(inst, solution), 1),
             "solution": per_call_us(graph.solution, 1)}
    return {key: round(t, 1) for key, t in times.items()}


def instance_times(name: str, inst) -> dict:
    """Every timing of this tool on one instance; ``fixed_us`` only for a
    bundled Taillard ``name``."""
    solution = dispatch(inst, DispatchRule.SPT)
    graph = build_graph(inst, solution)
    cases = feasible_moves(graph)
    full = per_call_us(lambda: [build_graph(inst, order) for _, order in cases],
                       len(cases))
    derived = per_call_us(lambda: [apply_move(graph, mv) for mv, _ in cases],
                          len(cases))
    candidates = {op: enumerate_moves(graph, op) for op in Operator}
    times = {"moves": len(cases), "full_us": round(full, 1),
             "derived_us": round(derived, 1),
             "full_over_derived": round(full / derived, 2),
             "critical_blocks_us": round(
                 per_call_us(lambda: critical_blocks(graph), 1), 1),
             "enumerate_us": {op.value: round(
                 per_call_us(lambda: enumerate_moves(graph, op), 1), 1)
                 for op in Operator},
             "estimate_us": {op.value: round(per_call_us(
                 lambda: [estimate_move(graph, mv) for mv in candidates[op]],
                 len(candidates[op])), 1) for op in Operator if candidates[op]},
             "ls_step_us": {op.value: round(
                 per_call_us(lambda: ls_step(graph, op), 1), 1)
                 for op in Operator},
             "dispatch_us": round(per_call_us(
                 lambda: dispatch(inst, DispatchRule.FDD_over_MWKR), 1), 1),
             "stochastic_dispatch_us": round(per_call_us(
                 lambda: stochastic_dispatch(inst, DispatchRule.FDD_over_MWKR,
                                             noise=1.0, seed=0), 1), 1)}
    if name.startswith("ta"):
        times["fixed_us"] = fixed_us(name, solution, graph)
    return times


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    times = {}
    for name, inst in (("ta01", builtin_instance("ta01")),
                       ("ta51", builtin_instance("ta51")),
                       ("6x6", generate_instance(6, 6, seed=0))):
        times[name] = instance_times(name, inst)
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
