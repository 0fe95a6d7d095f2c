"""MDP wrapper around the LS engine: observations, actions, reward.

The agent steers the search per move: its accept bit settles the pending
proposal from the previous LS step, then its operator choice produces the
next proposal (or a perturbation instead, in the largest action space).
``transition`` is that step; the controllers in ``metaheuristics`` take it
too. Observations describe the working state, i.e. the schedule with the
pending proposal applied, since that is what the accept decision is about.
Rewards are improvements of the best committed cost, never negative, so
their episode sum telescopes to f(s_0) - f(s_best).
"""
from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Optional, Union

import numpy as np

from .core import Instance, SearchGraph, Solution, build_graph
from .dispatch import DispatchRule, dispatch
from .neighborhood import (
    OPERATOR_ORDER,
    Operator,
    Perturbation,
    Proposal,
    ls_step,
    perturb,
)

N_SCALAR_FEATURES = 7
N_NODE_FEATURES = 5


class InvalidAction(ValueError):
    """Action index outside the configured space."""


class ActionSpace(enum.Enum):
    """How much of the controller interface the agent owns.

    A    accept bit only (operator fixed to CET)          -> 2 actions
    AN   accept bit x operator                            -> 8 actions
    ANP  accept bit x (operator | perturbation)           -> 10 actions
    """

    A = "a"
    AN = "an"
    ANP = "anp"

    @classmethod
    def parse(cls, text: str) -> "ActionSpace":
        key = text.strip().lower()
        for space in cls:
            if space.value == key:
                return space
        raise ValueError(
            f"unknown action space {text!r}; expected one of {[s.value for s in cls]}"
        )

    @property
    def n_actions(self) -> int:
        return {ActionSpace.A: 2, ActionSpace.AN: 8, ActionSpace.ANP: 10}[self]

    def decode(self, action: int) -> tuple[bool, Optional[Operator], bool]:
        """Split an index into (accept, operator, wants_perturbation).

        The accept bit is the major axis: indices 0..k-1 reject, k..2k-1
        accept. Within a half, A always means CET, AN walks the operator
        order, ANP appends the perturbation as choice 4.
        """
        if not 0 <= action < self.n_actions:
            raise InvalidAction(
                f"action {action} out of range for space {self.name} "
                f"({self.n_actions} actions)")
        half = self.n_actions // 2
        accept = action >= half
        choice = action % half
        if self is ActionSpace.A:
            return accept, Operator.CET, False
        if self is ActionSpace.AN:
            return accept, OPERATOR_ORDER[choice], False
        if choice == len(OPERATOR_ORDER):
            return accept, None, True
        return accept, OPERATOR_ORDER[choice], False


@dataclass
class Observation:
    """Graph + scalar view of the working state.

    The two edge sets are neighbour tables: row i holds the previous and the
    next op of node i along its job route (nbr_stat) or its machine sequence
    (nbr_dyna), and the id N stands for "no neighbour".
    """

    scalars: np.ndarray       # (7,)
    node_feats: np.ndarray    # (N, 5)
    nbr_stat: np.ndarray      # (N, 2) job-route neighbours, N = none
    nbr_dyna: np.ndarray      # (N, 2) machine-sequence neighbours, N = none
    groups: np.ndarray        # (N,) machine of each op
    n_groups: int


@dataclass
class EnvState:
    instance: Instance
    action_space: ActionSpace
    graph: SearchGraph
    pending: Optional[Proposal]
    best_cost: int
    best_graph: SearchGraph
    init_cost: int
    t: int
    t_max: int
    stall: int
    n_perturbations: int      # jumps: perturbations (and a controller's restarts)
    last_accept: int
    last_operator: Operator
    perturbation: Perturbation
    rng: np.random.Generator
    nbr_stat: np.ndarray = field(repr=False, default=None)
    # the graph whose ls_step under last_operator gave ``pending``; None
    # after a perturbation
    pending_from: Optional[SearchGraph] = field(repr=False, default=None)

    @property
    def done(self) -> bool:
        return self.t >= self.t_max

    @property
    def best_solution(self) -> Solution:
        return self.best_graph.solution()


def _chain_neighbors(chains: np.ndarray, n: int) -> np.ndarray:
    """(n, 2) previous/next op of each node along its row of chains; n = none."""
    nbr = np.full((n, 2), n, dtype=np.int64)
    nbr[chains[:, 1:], 0] = chains[:, :-1]
    nbr[chains[:, :-1], 1] = chains[:, 1:]
    return nbr


def observe(state: EnvState) -> Observation:
    """Build the policy view of the working (pending-applied) state."""
    graph = state.pending.graph if state.pending is not None else state.graph
    inst = state.instance
    n = inst.n_ops
    cmax = max(graph.makespan, 1)
    p = inst.proc.reshape(-1).astype(np.float64)
    p_max = max(inst.max_proc, 1)

    x = np.empty((n, N_NODE_FEATURES), dtype=np.float64)
    x[:, 0] = p / p_max
    x[:, 1] = graph.head[:n] / cmax
    x[:, 2] = graph.tail[:n] / cmax
    x[:, 3] = graph.critical_mask.astype(np.float64)
    x[:, 4] = graph.pos_on_machine / max(inst.n_jobs, 1)

    f0 = max(state.init_cost, 1)
    scalars = np.array([
        graph.makespan / f0,
        state.best_cost / f0,
        float(state.last_accept),
        OPERATOR_ORDER.index(state.last_operator) / len(OPERATOR_ORDER),
        state.t / state.t_max,
        state.stall / state.t_max,
        state.n_perturbations / state.t_max,
    ], dtype=np.float64)

    return Observation(
        scalars=scalars,
        node_feats=x,
        nbr_stat=state.nbr_stat,
        nbr_dyna=_chain_neighbors(graph.mach_order, n),
        groups=inst.machine.reshape(-1).copy(),
        n_groups=inst.n_machines,
    )


def reset(instance: Instance, action_space: ActionSpace = ActionSpace.ANP,
          seed: Optional[Union[int, np.random.Generator]] = None,
          t_max: int = 100,
          perturbation_strength: int = 3) -> tuple[EnvState, Observation]:
    """Construct (FDD/MWKR), take one CT step to create the first proposal."""
    if t_max < 1:
        raise ValueError("t_max must be >= 1")
    rng = np.random.default_rng(seed)
    graph = build_graph(instance, dispatch(instance, DispatchRule.FDD_over_MWKR))
    init_cost = graph.makespan
    job_ids = np.arange(instance.n_ops).reshape(instance.n_jobs, instance.n_machines)
    state = EnvState(
        instance=instance,
        action_space=action_space,
        graph=graph,
        pending=None,
        best_cost=init_cost,
        best_graph=graph,
        init_cost=init_cost,
        t=0,
        t_max=t_max,
        stall=0,
        n_perturbations=0,
        last_accept=0,
        last_operator=Operator.CT,
        perturbation=Perturbation(strength=perturbation_strength),
        rng=rng,
        nbr_stat=_chain_neighbors(job_ids, instance.n_ops),
    )
    _propose(state, Operator.CT)
    return state, observe(state)


def _propose(state: EnvState, operator: Operator) -> None:
    """Set ``pending`` to the LS step with ``operator`` from the committed graph."""
    # ls_step is a pure function of (graph, operator): keep the pending
    # result while both are unchanged
    if state.pending_from is not state.graph or operator is not state.last_operator:
        out = ls_step(state.graph, operator)
        state.pending = out if isinstance(out, Proposal) else None
        state.pending_from = state.graph
    state.last_operator = operator


def transition(state: EnvState, accept: bool, operator: Optional[Operator],
               jump: Optional[Callable[[SearchGraph], SearchGraph]] = None
               ) -> EnvState:
    """One search step, shared by ``step`` and the controllers' ``run``.

    Settle the pending proposal, apply ``jump`` (a perturbation or a restart)
    to the settled graph, take the LS step with ``operator``, then credit the
    best cost and the stall count. With ``operator`` None, as in the ANP
    perturbation action, the jump replaces the LS step: it leaves nothing
    pending and only the jumped graph is credited. When an operator follows
    the jump, as in the controllers, the settled graph is credited first, and
    the jump restarts the stall count.
    """
    # rejecting keeps state.graph: ls_step never changes it
    if state.pending is not None and accept:
        state.graph = state.pending.graph
    state.last_accept = int(accept)

    settled = state.graph
    if jump is not None:
        state.graph = jump(settled)
        state.n_perturbations += 1
    if operator is None:
        state.pending = state.pending_from = None
    else:
        _propose(state, operator)

    followed = jump is not None and operator is not None
    best_before = state.best_cost
    for graph in (settled, state.graph) if followed else (state.graph,):
        if graph.makespan < state.best_cost:
            state.best_cost, state.best_graph = graph.makespan, graph
    state.stall = 0 if followed or state.best_cost < best_before else state.stall + 1
    state.t += 1
    return state


def step(state: EnvState, action: int
         ) -> tuple[EnvState, float, bool, Observation]:
    """Decode the action, run one ``transition``, observe.

    The reward is the improvement of the best committed cost; the new
    proposal stays pending and does not count until it is accepted.
    """
    if state.done:
        raise InvalidAction("episode is over; call reset")
    accept, operator, wants_pert = state.action_space.decode(action)
    jump = None
    if wants_pert:
        jump = lambda graph: perturb(graph, state.perturbation, state.rng)
    best_before = state.best_cost
    transition(state, accept, operator, jump)
    reward = float(best_before - state.best_cost)
    return state, reward, state.done, observe(state)


def rollout(instance: Instance, actions, action_space: ActionSpace,
            seed: Optional[int] = None, t_max: int = 100) -> list[dict]:
    """Replay a fixed action sequence; returns the trace records."""
    state, _ = reset(instance, action_space, seed=seed, t_max=t_max)
    rows = []
    for action in actions:
        if state.done:
            break
        state, reward, done, _ = step(state, int(action))
        rows.append({
            "step": state.t,
            "action": int(action),
            "accepted": bool(state.last_accept),
            "cost": int(state.graph.makespan),
            "best": int(state.best_cost),
            "reward": reward,
        })
    return rows
