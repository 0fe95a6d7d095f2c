"""Hand-coded single-solution controllers over the search transition.

SA, SA with restarts, ILS, ILS+SA and VNS are policies in the environment's
MDP: each looks at the pending proposal from the last ``ls_step``, decides
accept/revert, decides whether to perturb or restart, and picks the next
operator. ``run`` hands each decision to ``env.transition``, the step the
learned policies take through ``env.step``, so iteration budgets compare
one-to-one.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import NamedTuple, Optional, Union

import numpy as np

from .core import Instance, SearchGraph, build_graph, parse_choice
from .dispatch import DispatchRule, stochastic_dispatch
from .env import EnvState, start as env_start, transition
from .neighborhood import OPERATOR_ORDER, Operator, perturb
# not called here, but perfbench/tracing.py patches metaheuristics.dispatch
# and metaheuristics.ls_step and fails on a name it cannot find
from .dispatch import dispatch  # noqa: F401
from .neighborhood import ls_step  # noqa: F401


class ControllerKind(enum.Enum):
    SA = "sa"
    SA_RESTART = "sa_restart"
    ILS = "ils"
    ILS_SA = "ils_sa"
    VNS = "vns"

    @classmethod
    def parse(cls, text: str) -> "ControllerKind":
        return parse_choice(cls, text, "controller",
                            lambda key: key.replace("-", "_").replace("+", "_"))


@dataclass(frozen=True)
class ControllerConfig:
    """Per-controller knobs; the defaults are the tuned values of every kind
    that reads the field, but VNS's ``strength`` (see ``for_kind``)."""

    kind: ControllerKind
    t0: float = 0.05              # initial temperature as fraction of f(s_init)
    n_stall: int = 3              # non-improvements before perturb (ILS family)
    restart_after: int = 10       # non-improvements before restart (SA_RESTART)
    strength: int = 2             # random CT moves per perturbation
    restart_noise: float = 1.0    # top-3 sampling probability on restart
    operator_order: tuple = OPERATOR_ORDER   # VNS cycle

    def __post_init__(self):
        if self.n_stall < 1 or self.restart_after < 1:
            raise ValueError("stall thresholds must be >= 1")
        if self.strength < 1:
            raise ValueError("perturbation strength must be >= 1")
        if not 0.0 <= self.restart_noise <= 1.0:
            raise ValueError("restart_noise must be in [0, 1]")
        if sorted(o.value for o in self.operator_order) != \
                sorted(o.value for o in OPERATOR_ORDER):
            raise ValueError("operator_order must be a permutation of the operator set")

    @classmethod
    def for_kind(cls, kind: ControllerKind) -> "ControllerConfig":
        """The kind's tuned values, which the shipped config files spell out:
        the field defaults, and a stronger shake for VNS."""
        return cls(kind, strength=6) if kind is ControllerKind.VNS else cls(kind)


class Controller:
    """Decision rule + mutable annealing/cursor state over one search."""

    def __init__(self, config: ControllerConfig, state: EnvState):
        self.config = config
        self.rng = state.rng
        self.temperature = config.t0 * state.init_cost
        # geometric decay hitting 1% of T0 at the end of the budget
        self.alpha_t = 0.01 ** (1.0 / max(state.t_max - 1, 1))
        self.cursor = 0

    def _sa_accept(self, state: EnvState) -> bool:
        if state.pending is None:
            return True
        delta = state.pending.new_cost - state.graph.makespan
        if delta <= 0:
            return True
        if self.temperature <= 1e-12:
            return False
        return float(self.rng.random()) < math.exp(-delta / self.temperature)

    def decide(self, state: EnvState) -> tuple[bool, Operator, str]:
        """(accept the pending proposal, next operator, event), where the
        event is '', 'perturb' or 'restart' as in ``TraceRow``.

        ``state.pending`` is None when the last step hit a LocalOptimum."""
        cfg = self.config
        kind = cfg.kind
        if kind in (ControllerKind.SA, ControllerKind.SA_RESTART):
            accept = self._sa_accept(state)
            self.temperature *= self.alpha_t
            restart = (kind is ControllerKind.SA_RESTART
                       and state.stall >= cfg.restart_after)
            return accept, Operator.CET, "restart" if restart else ""

        pending = state.pending
        if kind in (ControllerKind.ILS, ControllerKind.ILS_SA):
            if kind is ControllerKind.ILS:
                accept = pending is not None and pending.new_cost < state.best_cost
            else:
                accept = self._sa_accept(state)
                self.temperature *= self.alpha_t
            return accept, Operator.CET, "perturb" if state.stall >= cfg.n_stall else ""

        # VNS: strict improvement, operator cycle, shake when exhausted
        improving = (pending is not None
                     and pending.new_cost < state.graph.makespan)
        event = ""
        if improving:
            self.cursor = 0
        else:
            self.cursor += 1
            if self.cursor >= len(cfg.operator_order):
                self.cursor, event = 0, "perturb"
        return improving, cfg.operator_order[self.cursor], event


class TraceRow(NamedTuple):
    step: int
    operator: str
    accepted: bool
    cost: int
    best: int
    event: str    # '', 'perturb' or 'restart'


@dataclass
class RunResult:
    best_graph: SearchGraph
    best_cost: int
    trace: list


def run(config: Union[ControllerConfig, ControllerKind], instance: Instance,
        iterations: int = 100, seed: Optional[int] = None) -> RunResult:
    """Construct, then iterate decide -> ``env.transition`` -> trace row.

    One iteration is one controller decision plus one LS step, the same
    budget unit the learned policies consume. Deterministic given the seed.
    """
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    if isinstance(config, ControllerKind):
        config = ControllerConfig.for_kind(config)
    rng = np.random.default_rng(seed)
    # construction once took its seed from this draw; FDD/MWKR ignores it,
    # but discarding it keeps every later draw (SA coin flips, perturbations,
    # restarts) where it was
    rng.integers(1 << 31)
    state = env_start(instance, seed=rng, t_max=iterations)
    ctrl = Controller(config, state)

    trace: list[TraceRow] = []
    while not state.done:
        accept, operator, event = ctrl.decide(state)
        jump = None
        if event == "restart":
            jump = lambda _: build_graph(instance, stochastic_dispatch(
                instance, DispatchRule.FDD_over_MWKR, config.restart_noise,
                seed=int(rng.integers(1 << 31))))
        elif event == "perturb":
            jump = lambda graph: perturb(graph, config.strength, rng)
        transition(state, accept, operator, jump)
        trace.append(TraceRow(state.t, operator.value, accept,
                              state.graph.makespan, state.best_cost, event))

    return RunResult(best_graph=state.best_graph, best_cost=state.best_cost,
                     trace=trace)


def read_key_values(path, fields: dict) -> dict:
    """Parse a ``key = value`` file, converting each value with ``fields[key]``.

    Blank lines and ``#`` comments are skipped, keys are case-insensitive and
    a repeated key keeps its last value. Every error names ``path:lineno``.
    """
    values = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key = value")
        key, text = (part.strip() for part in line.split("=", 1))
        key = key.lower()
        if key not in fields:
            raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            values[key] = fields[key](text)
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {key}: {exc}") from None
    return values


_CONTROLLER_FIELDS = {
    "kind": ControllerKind.parse, "t0": float, "n_stall": int,
    "restart_after": int, "strength": int, "restart_noise": float,
    "operator_order": lambda text: tuple(
        Operator.parse(tok) for tok in text.replace(",", " ").split()),
}


def load_controller_config(path) -> ControllerConfig:
    """Read a key=value config file into a ControllerConfig: the kind's
    tuned values (``for_kind``), with the keys the file sets replaced."""
    values = read_key_values(path, _CONTROLLER_FIELDS)
    if "kind" not in values:
        raise ValueError(f"{path}: missing required key 'kind'")
    try:
        return replace(ControllerConfig.for_kind(values["kind"]), **values)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
