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
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple, Optional, Union

import numpy as np

from .core import Instance, Solution, build_graph
from .dispatch import DispatchRule, stochastic_dispatch
from .env import reset as env_reset, transition
from .neighborhood import OPERATOR_ORDER, Operator, Perturbation, perturb
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
        if not 0.0 <= self.restart_noise <= 1.0:
            raise ValueError("restart_noise must be in [0, 1]")
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


@dataclass
class ControllerDecision:
    accept_last: bool
    next_operator: Operator
    perturb: Optional[Perturbation] = None
    restart: Optional[float] = None    # FDD/MWKR top-3 sampling noise

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
                 iterations: int, rng: np.random.Generator):
        self.config = config
        self.rng = rng
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
                restart = cfg.restart_noise
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
        iterations: int = 100, seed: Optional[int] = None) -> RunResult:
    """Construct, then iterate decide -> ``env.transition`` -> trace row.

    One iteration is one controller decision plus one LS step, the same
    budget unit the learned policies consume. Deterministic given the seed.
    """
    if isinstance(config, ControllerKind):
        config = ControllerConfig.for_kind(config)
    rng = np.random.default_rng(seed)
    # construction once took its seed from this draw; FDD/MWKR ignores it,
    # but discarding it keeps every later draw (SA coin flips, perturbations,
    # restarts) where it was
    rng.integers(1 << 31)
    state, _ = env_reset(instance, seed=rng, t_max=iterations)
    ctrl = Controller(config, state.init_cost, iterations, rng)

    trace: list[TraceRow] = []
    while not state.done:
        pending = state.pending
        decision = ctrl.decide(SearchView(
            committed_cost=state.graph.makespan,
            pending_cost=None if pending is None else pending.new_cost,
            best_cost=state.best_cost,
            stall=state.stall,
        ))
        event, jump = "", None
        if decision.restart is not None:
            event = "restart"
            jump = lambda _: build_graph(instance, stochastic_dispatch(
                instance, DispatchRule.FDD_over_MWKR, decision.restart,
                seed=int(rng.integers(1 << 31))))
        elif decision.perturb is not None:
            event, jump = "perturb", lambda graph: perturb(graph, decision.perturb, rng)
        transition(state, decision.accept_last, decision.next_operator, jump)
        trace.append(TraceRow(state.t, decision.next_operator.value,
                              decision.accept_last, state.graph.makespan,
                              state.best_cost, event))

    return RunResult(best_solution=state.best_solution,
                     best_cost=state.best_cost, trace=trace)


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
