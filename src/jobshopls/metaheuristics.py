"""Hand-coded single-solution controllers over the LS step.

SA, SA with restarts, ILS, ILS+SA and VNS all drive the same loop: look at
the pending proposal from the last ``ls_step``, decide accept/revert, decide
whether to perturb or restart, pick the next operator. That is exactly the
action interface the learned policies use, so iteration budgets compare
one-to-one.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple, Optional, Union

import numpy as np

from .core import Instance, Solution, build_graph
from .dispatch import DispatchRule, dispatch, stochastic_dispatch
from .neighborhood import (
    OPERATOR_ORDER,
    Operator,
    Perturbation,
    Proposal,
    ls_step,
    perturb,
)


class ControllerKind(enum.Enum):
    SA = "sa"
    SA_RESTART = "sa_restart"
    ILS = "ils"
    ILS_SA = "ils_sa"
    VNS = "vns"

    @classmethod
    def parse(cls, text: str) -> "ControllerKind":
        key = text.strip().lower().replace("-", "_").replace("+", "_")
        for kind in cls:
            if kind.value == key:
                return kind
        raise ValueError(
            f"unknown controller {text!r}; expected one of {[k.value for k in cls]}"
        )


@dataclass(frozen=True)
class ControllerConfig:
    """Per-controller knobs; defaults match the shipped config files."""

    kind: ControllerKind
    t0: float = 0.05              # initial temperature as fraction of f(s_init)
    alpha_t: Optional[float] = None   # geometric cooling; None = reach 1% of T0
    n_stall: int = 5              # non-improvements before perturb (ILS family)
    restart_after: int = 20       # non-improvements before restart (SA_RESTART)
    strength: int = 3             # random CT moves per perturbation
    restart_noise: float = 1.0    # top-3 sampling probability on restart
    operator_order: tuple = OPERATOR_ORDER   # VNS cycle

    def __post_init__(self):
        if self.alpha_t is not None and not 0.0 < self.alpha_t < 1.0:
            raise ValueError("alpha_t must be in (0, 1)")
        if self.n_stall < 1 or self.restart_after < 1:
            raise ValueError("stall thresholds must be >= 1")
        if self.strength < 1:
            raise ValueError("perturbation strength must be >= 1")
        if sorted(o.value for o in self.operator_order) != \
                sorted(o.value for o in OPERATOR_ORDER):
            raise ValueError("operator_order must be a permutation of the operator set")

    @classmethod
    def for_kind(cls, kind: ControllerKind) -> "ControllerConfig":
        """Tuned defaults, identical to the shipped config files."""
        if kind is ControllerKind.SA_RESTART:
            return cls(kind=kind, restart_after=10)
        if kind in (ControllerKind.ILS, ControllerKind.ILS_SA):
            return cls(kind=kind, n_stall=3, strength=2)
        if kind is ControllerKind.VNS:
            return cls(kind=kind, strength=6)
        return cls(kind=kind)


class RestartRequest(NamedTuple):
    rule: DispatchRule
    noise: float


@dataclass
class ControllerDecision:
    accept_last: bool
    next_operator: Operator
    perturb: Optional[Perturbation] = None
    restart: Optional[RestartRequest] = None

    def __post_init__(self):
        if self.perturb is not None and self.restart is not None:
            raise ValueError("perturb and restart are mutually exclusive")


@dataclass
class SearchView:
    """What a controller is allowed to see before deciding.

    ``pending_cost`` is None when the last step hit a LocalOptimum.
    """

    committed_cost: int
    pending_cost: Optional[int]
    best_cost: int
    stall: int

    @property
    def delta(self) -> Optional[int]:
        if self.pending_cost is None:
            return None
        return self.pending_cost - self.committed_cost


class Controller:
    """Decision rule + mutable annealing/cursor state."""

    def __init__(self, config: ControllerConfig, init_cost: int,
                 iterations: int, rng: np.random.Generator,
                 init_rule: DispatchRule = DispatchRule.FDD_over_MWKR):
        self.config = config
        self.rng = rng
        self.init_rule = init_rule
        self.temperature = config.t0 * init_cost
        if config.alpha_t is not None:
            self.alpha_t = config.alpha_t
        else:
            # geometric decay hitting 1% of T0 at the end of the budget
            self.alpha_t = 0.01 ** (1.0 / max(iterations - 1, 1))
        self.cursor = 0

    def _sa_accept(self, delta: Optional[int]) -> bool:
        if delta is None:
            return True
        if delta <= 0:
            return True
        if self.temperature <= 1e-12:
            return False
        return float(self.rng.random()) < math.exp(-delta / self.temperature)

    def decide(self, view: SearchView) -> ControllerDecision:
        cfg = self.config
        kind = cfg.kind
        if kind in (ControllerKind.SA, ControllerKind.SA_RESTART):
            accept = self._sa_accept(view.delta)
            self.temperature *= self.alpha_t
            restart = None
            if kind is ControllerKind.SA_RESTART and view.stall >= cfg.restart_after:
                restart = RestartRequest(self.init_rule, cfg.restart_noise)
            return ControllerDecision(accept, Operator.CET, restart=restart)

        if kind in (ControllerKind.ILS, ControllerKind.ILS_SA):
            if kind is ControllerKind.ILS:
                accept = (view.pending_cost is not None
                          and view.pending_cost < view.best_cost)
            else:
                accept = self._sa_accept(view.delta)
                self.temperature *= self.alpha_t
            pert = None
            if view.stall >= cfg.n_stall:
                pert = Perturbation(strength=cfg.strength)
            return ControllerDecision(accept, Operator.CET, perturb=pert)

        # VNS: strict improvement, operator cycle, shake when exhausted
        improving = (view.pending_cost is not None
                     and view.pending_cost < view.committed_cost)
        pert = None
        if improving:
            self.cursor = 0
        else:
            self.cursor += 1
            if self.cursor >= len(cfg.operator_order):
                self.cursor = 0
                pert = Perturbation(strength=cfg.strength)
        return ControllerDecision(improving, cfg.operator_order[self.cursor],
                                  perturb=pert)


class TraceRow(NamedTuple):
    step: int
    operator: str
    accepted: bool
    cost: int
    best: int
    event: str    # '', 'perturb' or 'restart'


@dataclass
class RunResult:
    best_solution: Solution
    best_cost: int
    trace: list


def run(config: Union[ControllerConfig, ControllerKind], instance: Instance,
        init_rule: DispatchRule = DispatchRule.FDD_over_MWKR,
        iterations: int = 100, seed: Optional[int] = None) -> RunResult:
    """Construct, then iterate decide -> accept/revert -> perturb? -> ls_step.

    One iteration is one controller decision plus one LS step, the same
    budget unit the learned policies consume. Deterministic given the seed.
    """
    if isinstance(config, ControllerKind):
        config = ControllerConfig.for_kind(config)
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    rng = np.random.default_rng(seed)

    graph = build_graph(instance, dispatch(instance, init_rule,
                                           seed=int(rng.integers(1 << 31))))
    init_cost = graph.makespan
    best_cost = init_cost
    best_graph = graph

    ctrl = Controller(config, init_cost, iterations, rng, init_rule)

    # first proposal, mirroring the environment's reset; ls_step is a pure
    # function of (graph, operator), so ``out`` is reused until either changes
    stepped = (graph, Operator.CT)
    out = ls_step(*stepped)
    pending = out if isinstance(out, Proposal) else None

    committed_cost = graph.makespan
    stall = 0
    trace: list[TraceRow] = []

    for t in range(1, iterations + 1):
        view = SearchView(
            committed_cost=committed_cost,
            pending_cost=None if pending is None else pending.new_cost,
            best_cost=best_cost,
            stall=stall,
        )
        decision = ctrl.decide(view)

        # rejecting keeps ``graph``: ls_step never changes it
        if pending is not None and decision.accept_last:
            graph = pending.graph
        committed_cost = graph.makespan

        if committed_cost < best_cost:
            best_cost, best_graph = committed_cost, graph
            stall = 0
        else:
            stall += 1

        event = ""
        if decision.restart is not None:
            graph = build_graph(instance, stochastic_dispatch(
                instance, decision.restart.rule, decision.restart.noise,
                seed=int(rng.integers(1 << 31))))
            committed_cost = graph.makespan
            stall = 0
            event = "restart"
        elif decision.perturb is not None:
            graph = perturb(graph, decision.perturb, rng)
            committed_cost = graph.makespan
            stall = 0
            event = "perturb"
        if committed_cost < best_cost:
            best_cost, best_graph = committed_cost, graph

        if stepped[0] is not graph or stepped[1] is not decision.next_operator:
            stepped = (graph, decision.next_operator)
            out = ls_step(*stepped)
            pending = out if isinstance(out, Proposal) else None

        trace.append(TraceRow(t, decision.next_operator.value,
                              decision.accept_last, committed_cost,
                              best_cost, event))

    return RunResult(best_solution=best_graph.solution(), best_cost=best_cost,
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
    "kind": ControllerKind.parse, "t0": float, "alpha_t": float,
    "n_stall": int, "restart_after": int, "strength": int,
    "restart_noise": float,
    "operator_order": lambda text: tuple(
        Operator.parse(tok) for tok in text.replace(",", " ").split()),
}


def load_controller_config(path) -> ControllerConfig:
    """Read a key=value config file into a ControllerConfig."""
    values = read_key_values(path, _CONTROLLER_FIELDS)
    if "kind" not in values:
        raise ValueError(f"{path}: missing required key 'kind'")
    try:
        return ControllerConfig(**values)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
