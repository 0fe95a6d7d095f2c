"""Benchmark orchestration: run a method over an instance set, report gaps.

A method is a dispatching rule, a search controller, or a trained policy
checkpoint. Every reported cost is re-validated against its solution before
emission. Output is a CSV (machine format) plus an aligned text table with
per-size-group mean gaps.
"""
from __future__ import annotations

import re
import sys
import time
from dataclasses import dataclass, field
from multiprocessing import Pool
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .core import Instance, Solution, build_graph, validate
from .dispatch import DispatchRule, dispatch
# env_reset and env_step are not called here, but perfbench/tracing.py patches
# bench.env_reset and bench.env_step and fails on a name it cannot find
from .env import ActionSpace, reset as env_reset, step as env_step  # noqa: F401
from .metaheuristics import (ControllerKind, load_controller_config,
                             read_key_values, run)
from .taillard import best_known, generate_instance, resolve_instance

_POLICY_METHODS = {f"nls_{space.value}": space for space in ActionSpace}


@dataclass(frozen=True)
class BenchmarkConfig:
    """One benchmark run: a single method over a list of instance specs."""

    method: str
    instances: tuple[str, ...]
    iterations: int = 100
    seed: int = 0
    checkpoint: Optional[str] = None
    out: Optional[str] = None
    format: str = "csv"
    jobs: int = 1
    controller_file: Optional[str] = None

    def __post_init__(self):
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if self.format not in ("csv", "table"):
            raise ValueError("format must be csv or table")
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")
        # raises on an unknown method
        if (classify_method(self.method)[0] == "policy"
                and self.checkpoint is None):
            raise ValueError(f"method {self.method} needs a checkpoint")


@dataclass(frozen=True)
class ResultRow:
    instance: str
    group: str
    cost: int
    bks: Optional[int]
    gap: Optional[float]
    seconds: float
    solution: Optional[Solution] = field(default=None, compare=False, repr=False)


@dataclass
class BenchmarkResult:
    rows: list[ResultRow] = field(default_factory=list)

    def csv(self) -> str:
        lines = ["instance,method_cost,bks,gap,seconds"]
        for r in self.rows:
            bks = "" if r.bks is None else str(r.bks)
            gap = "" if r.gap is None else f"{r.gap:.6f}"
            lines.append(f"{r.instance},{r.cost},{bks},{gap},{r.seconds:.3f}")
        return "\n".join(lines) + "\n"

    def group_means(self) -> dict[str, float]:
        sums: dict[str, list[float]] = {}
        for r in self.rows:
            if r.gap is not None:
                sums.setdefault(r.group, []).append(r.gap)
        return {g: float(np.mean(v)) for g, v in sums.items()}

    def table(self) -> str:
        header = f"{'instance':<12} {'cost':>6} {'bks':>6} {'gap%':>7} {'sec':>8}"
        lines = [header, "-" * len(header)]
        for r in self.rows:
            bks = "-" if r.bks is None else str(r.bks)
            gap = "-" if r.gap is None else f"{100 * r.gap:.2f}"
            lines.append(f"{r.instance:<12} {r.cost:>6} {bks:>6} "
                         f"{gap:>7} {r.seconds:>8.2f}")
        for grp, mean in sorted(self.group_means().items()):
            count = sum(1 for r in self.rows if r.group == grp)
            lines.append(f"group {grp} ({count} instances): "
                         f"mean gap {100 * mean:.2f}%")
        return "\n".join(lines) + "\n"


def classify_method(method: str) -> tuple[str, object]:
    """Map a method name to (kind, parsed) where kind is pdr|controller|policy."""
    key = method.strip().lower()
    if key in _POLICY_METHODS:
        return "policy", _POLICY_METHODS[key]
    try:
        return "pdr", DispatchRule.parse(key)
    except ValueError:
        pass
    try:
        return "controller", ControllerKind.parse(key)
    except ValueError:
        pass
    raise ValueError(
        f"unknown method {method!r}: expected a dispatching rule "
        f"({', '.join(r.value for r in DispatchRule)}), a controller "
        f"({', '.join(k.value for k in ControllerKind)}), "
        f"or a policy ({', '.join(_POLICY_METHODS)})")


_RANGE = re.compile(r"^ta(\d+)-ta(\d+)$")
_GEN = re.compile(r"^gen:(\d+)x(\d+)x(\d+)x(\d+)$")


def expand_instance_specs(specs: Sequence[str]) -> list[tuple[str, str]]:
    """Expand ranges and generator specs into (label, resolvable-spec) pairs.

    Accepted forms: builtin names (ta01), file paths, inclusive ranges
    (ta01-ta10), and gen:JxMxCOUNTxSEED for generated sets.
    """
    out: list[tuple[str, str]] = []
    for spec in specs:
        spec = spec.strip()
        if not spec:
            continue
        m = _RANGE.match(spec)
        if m:
            lo, hi = int(m.group(1)), int(m.group(2))
            if hi < lo:
                raise ValueError(f"bad range {spec!r}")
            for i in range(lo, hi + 1):
                name = f"ta{i:02d}"
                out.append((name, name))
            continue
        m = _GEN.match(spec)
        if m:
            j, mm, count, seed = map(int, m.groups())
            for i in range(count):
                out.append((f"gen{j}x{mm}s{seed + i}",
                            f"gen:{j}x{mm}x1x{seed + i}"))
            continue
        out.append((Path(spec).stem if "/" in spec or spec.endswith(".txt")
                    else spec, spec))
    return out


def _load_instance(label: str, spec: str) -> Instance:
    m = _GEN.match(spec)
    if m:
        j, mm, _, seed = map(int, m.groups())
        return generate_instance(j, mm, seed=seed, name=label)
    return resolve_instance(spec)


def _run_one(config: BenchmarkConfig, label: str, spec: str, net) -> ResultRow:
    """Worker body: run the method on one instance and validate the result.
    ``net`` is a policy method's checkpoint, loaded by ``run_benchmark``."""
    instance = _load_instance(label, spec)
    kind, parsed = classify_method(config.method)
    t0 = time.perf_counter()
    if kind == "pdr":
        graph = build_graph(instance, dispatch(instance, parsed, seed=config.seed))
    elif kind == "controller":
        if config.controller_file:
            parsed = load_controller_config(config.controller_file)
        graph = run(parsed, instance, iterations=config.iterations,
                    seed=config.seed).best_graph
    else:
        from .training import run_policy
        [state] = run_policy(net, [instance], parsed, t_max=config.iterations,
                             seed=config.seed)
        graph = state.best_graph
    seconds = time.perf_counter() - t0
    cost = graph.makespan
    solution = graph.solution()

    problems = validate(instance, solution)
    if problems:
        raise ValueError(f"{label}: invalid solution: {'; '.join(problems)}")
    if build_graph(instance, solution).makespan != cost:
        raise AssertionError(f"{label}: reported cost does not match solution")
    bks = best_known().get(instance.name or label)
    gap = None if bks is None else (cost - bks) / bks
    return ResultRow(instance=label,
                     group=f"{instance.n_jobs}x{instance.n_machines}",
                     cost=int(cost), bks=bks, gap=gap, seconds=seconds,
                     solution=solution)


def run_benchmark(config: BenchmarkConfig) -> BenchmarkResult:
    pairs = expand_instance_specs(config.instances)
    if not pairs:
        print("warning: empty instance list", file=sys.stderr)
        return BenchmarkResult()
    kind, parsed = classify_method(config.method)
    net = None
    if kind == "policy":   # loaded and checked once per sweep
        from .nn import load_checkpoint
        net = load_checkpoint(config.checkpoint)
        if net.n_actions != parsed.n_actions:
            raise ValueError(
                f"checkpoint has {net.n_actions} actions but method "
                f"{config.method} needs {parsed.n_actions}")
    tasks = [(config, label, spec, net) for label, spec in pairs]
    if config.jobs > 1:
        with Pool(config.jobs) as pool:
            rows = pool.starmap(_run_one, tasks)
    else:
        rows = [_run_one(*task) for task in tasks]
    result = BenchmarkResult(list(rows))
    if config.out:
        text = result.csv() if config.format == "csv" else result.table()
        Path(config.out).write_text(text)
    return result


_CONFIG_FIELDS = {
    "method": str, "instances": lambda text: tuple(text.replace(",", " ").split()),
    "iterations": int, "seed": int, "checkpoint": str, "out": str,
    "format": str, "jobs": int, "controller_file": str,
}


def load_benchmark_config(path) -> BenchmarkConfig:
    """Parse a key=value benchmark description file."""
    values = read_key_values(path, _CONFIG_FIELDS)
    if "method" not in values or "instances" not in values:
        raise ValueError(f"{path}: method and instances are required")
    try:
        return BenchmarkConfig(**values)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
