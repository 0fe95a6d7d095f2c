"""Layer spans and counters recorded from outside the package.

A ``Tracer`` replaces each traced function at every name its callers look it
up under (``build_graph`` is imported by name into five modules, for
example), records one span per call and derives counters from arguments,
return values and raised exceptions only. Spans stay in memory until the
run writes them out. ``uninstall`` puts back exactly the objects that were
there before, so the package runs untouched between traced passes.
"""
from __future__ import annotations

import functools
import importlib
import json
from collections import defaultdict
from time import perf_counter

# span name -> every (module, attribute) a caller resolves it through;
# "Class.method" attributes are patched on the class
SPAN_SITES = {
    "core.build_graph": [("core", "build_graph"), ("neighborhood", "build_graph"),
                         ("metaheuristics", "build_graph"), ("env", "build_graph"),
                         ("bench", "build_graph")],
    "core.critical_blocks": [("core", "critical_blocks"),
                             ("neighborhood", "critical_blocks")],
    "core.validate": [("core", "validate"), ("bench", "validate")],
    "dispatch": [("dispatch", "dispatch"), ("dispatch", "stochastic_dispatch"),
                 ("metaheuristics", "dispatch"),
                 ("metaheuristics", "stochastic_dispatch"),
                 ("env", "dispatch"), ("bench", "dispatch")],
    "neighborhood.ls_step": [("neighborhood", "ls_step"),
                             ("metaheuristics", "ls_step"), ("env", "ls_step")],
    "neighborhood.enumerate_moves": [("neighborhood", "enumerate_moves")],
    "neighborhood.estimate_move": [("neighborhood", "estimate_move")],
    "neighborhood.apply_move": [("neighborhood", "apply_move")],
    "neighborhood.perturb": [("neighborhood", "perturb"),
                             ("metaheuristics", "perturb"), ("env", "perturb")],
    "metaheuristics.run": [("metaheuristics", "run"), ("bench", "run")],
    "env.reset": [("env", "reset"), ("bench", "env_reset"),
                  ("training", "env_reset")],
    "env.step": [("env", "step"), ("bench", "env_step"),
                 ("training", "env_step")],
    "env.observe": [("env", "observe")],
    "nn.q_values": [("nn.qnetwork", "q_values"), ("nn", "q_values"),
                    ("training", "q_values")],
    "nn.encode": [("nn.qnetwork", "encode"), ("nn", "encode")],
    "nn.backward": [("nn.autodiff", "Tensor.backward")],
    "nn.load_checkpoint": [("nn.qnetwork", "load_checkpoint"),
                           ("nn", "load_checkpoint")],
    "training.collect": [("training", "collect")],
    "training.td_loss": [("training", "td_loss")],
    "training.adam": [("training", "Adam.step")],
    "training.replay.sample": [("training", "ReplayBuffer.sample")],
    "training.evaluate": [("training", "evaluate")],
    "bench.run_one": [("bench", "_run_one")],
}

# metric suffixes of busy and self seconds; every other metric is a count or
# a ratio of counts and repeats exactly on the same input
TIMED_SUFFIXES = (".s", ".self_s")

# estimate slack histogram: (metric suffix, lowest slack in the bin)
SLACK_BINS = (("0", 0), ("1_9", 1), ("10_99", 10), ("100_up", 100))


def _resolve(module: str, attr: str):
    """Return (owner object, attribute name) for one patch site."""
    owner = importlib.import_module(f"jobshopls.{module}")
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


def patch_sites() -> list[tuple[object, str]]:
    """Every (owner, attribute) the tracer replaces, in install order."""
    return [_resolve(m, a) for sites in SPAN_SITES.values() for m, a in sites]


class Tracer:
    """Span recorder plus the per-layer counters of one traced pass."""

    def __init__(self):
        self.spans: list[tuple] = []     # (name, start, end, parent, request)
        self.stack: list[int] = []
        self.request = -1
        self.counts: dict[str, int] = defaultdict(int)
        self.slack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------
    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        from jobshopls.neighborhood import LocalOptimum, Proposal, WouldCreateCycle
        hooks = {
            "core.validate": self._on_validate,
            "neighborhood.estimate_move": self._on_estimate,
            "neighborhood.apply_move": self._on_apply,
            "neighborhood.ls_step": self._on_ls_step,
            "metaheuristics.run": self._on_run,
        }
        self._types = (LocalOptimum, Proposal, WouldCreateCycle)
        for name, sites in SPAN_SITES.items():
            for module, attr in sites:
                owner, key = _resolve(module, attr)
                current = getattr(owner, key)
                self._saved.append((owner, key, current))
                setattr(owner, key, self._wrap(name, current, hooks.get(name)))

    def uninstall(self) -> None:
        while self._saved:
            owner, key, original = self._saved.pop()
            setattr(owner, key, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _wrap(self, name: str, fn, hook):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append((name,))      # open span: name only
            stack.append(idx)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                if hook is not None:
                    hook(args, None, exc, parent)
                raise
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.request)
            if hook is not None:
                hook(args, out, None, parent)
            return out

        return traced

    # -- counters, from arguments, return values and exceptions only ---
    def _on_validate(self, args, out, exc, parent) -> None:
        if out:
            self.counts["bench.validate_problems"] += 1

    def _on_estimate(self, args, out, exc, parent) -> None:
        self.counts[f"neighborhood.estimate_move.calls.{args[1].kind.value}"] += 1

    def _on_apply(self, args, out, exc, parent) -> None:
        if parent >= 0 and self.spans[parent][0] == "neighborhood.ls_step":
            self.counts["neighborhood.apply_attempts"] += 1
        if isinstance(exc, self._types[2]):
            self.counts["neighborhood.cei_cycle_rejects"] += 1

    def _on_ls_step(self, args, out, exc, parent) -> None:
        local_optimum, proposal, _ = self._types
        if isinstance(out, local_optimum):
            self.counts["neighborhood.local_optima"] += 1
        elif isinstance(out, proposal):
            self.counts["neighborhood.proposals"] += 1
            self.slack.append(int(out.new_cost) - int(out.eval.estimate))

    def _on_run(self, args, out, exc, parent) -> None:
        if out is not None:
            self.counts["metaheuristics.iters"] += len(out.trace)

    # -- aggregation --------------------------------------------------
    def layer_metrics(self) -> dict[str, float]:
        """Per-layer calls, busy seconds and self seconds plus counters."""
        calls: dict[str, int] = defaultdict(int)
        busy: dict[str, float] = defaultdict(float)
        selfs: dict[str, float] = defaultdict(float)
        child = [0.0] * len(self.spans)
        # a child opens after its parent, so in reverse order every span's
        # children are summed before the span itself
        for i in range(len(self.spans) - 1, -1, -1):
            name, start, end, parent, _ = self.spans[i]
            calls[name] += 1
            busy[name] += end - start
            selfs[name] += end - start - child[i]
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = {"trace.spans": len(self.spans)}
        for name in SPAN_SITES:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.s"] = busy[name]
            out[f"{name}.self_s"] = selfs[name]
        for key in ("ct", "cet", "ecet", "cei"):
            key = f"neighborhood.estimate_move.calls.{key}"
            out[key] = self.counts[key]
        for key in ("neighborhood.cei_cycle_rejects", "neighborhood.local_optima",
                    "neighborhood.proposals", "neighborhood.apply_attempts",
                    "metaheuristics.iters", "bench.validate_problems"):
            out[key] = self.counts[key]
        attempts = self.counts["neighborhood.apply_attempts"]
        out["neighborhood.proposal_ratio"] = (
            self.counts["neighborhood.proposals"] / attempts if attempts else 0.0)
        n = len(self.slack)
        out["neighborhood.estimate_slack.mean"] = sum(self.slack) / n if n else 0.0
        out["neighborhood.estimate_slack.zero_frac"] = (
            sum(1 for s in self.slack if s == 0) / n if n else 0.0)
        edges = [lo for _, lo in SLACK_BINS] + [float("inf")]
        for (suffix, lo), hi in zip(SLACK_BINS, edges[1:]):
            out[f"neighborhood.estimate_slack.bin_{suffix}"] = sum(
                1 for s in self.slack if lo <= s < hi)
        return out

    def write(self, path) -> None:
        """Write the spans, one JSON array per line."""
        with open(path, "w") as fh:
            for name, start, end, parent, request in self.spans:
                fh.write(json.dumps([name, start, end, parent, request]) + "\n")
