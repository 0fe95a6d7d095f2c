"""What is left of the differences between ``metaheuristics.run`` and ``env.step``.

Both loops take every step through ``env.transition``. Of the five ways the
two used to differ, three remain, and all three are one branch in
``transition``: whether an LS step follows the jump. A controller's
perturbation or restart is followed by its next operator; the ANP
perturbation action has no operator, so the jump replaces the LS step.
The fourth difference stands as it was: only a controller restarts. The
fifth is gone: ``run`` constructs through ``env.reset``.
"""
import numpy as np
import pytest

from jobshopls import build_graph, env, generate_instance, metaheuristics
from jobshopls.dispatch import DispatchRule, dispatch
from jobshopls.env import ActionSpace, transition
from jobshopls.metaheuristics import (ControllerDecision, ControllerKind,
                                      Operator, Perturbation, run)
from jobshopls.neighborhood import perturb

# ANP actions: reject or accept the pending proposal, then CET or perturb
REJECT_CET, REJECT_PERTURB, ACCEPT_PERTURB = 1, 4, 9
REJECT = ControllerDecision(False, Operator.CET)
PERTURB = ControllerDecision(False, Operator.CET, perturb=Perturbation(3))
ACCEPT_AND_PERTURB = ControllerDecision(True, Operator.CET,
                                        perturb=Perturbation(3))


@pytest.fixture
def scripted(monkeypatch):
    """``scripted(decisions)`` makes ``run``'s controller return these
    decisions in order; the returned list collects the views it was shown."""
    def install(decisions) -> list:
        views, script = [], iter(decisions)

        def decide(self, view):
            views.append(view)
            return next(script)

        monkeypatch.setattr(metaheuristics.Controller, "decide", decide)
        return views

    return install


def _spy(monkeypatch, module, name: str, events: list) -> None:
    real = getattr(module, name)

    def spy(*args, **kwargs):
        out = real(*args, **kwargs)
        events.append((name, args, kwargs, out))
        return out

    monkeypatch.setattr(module, name, spy)


def _perturbation(state):
    """The jump ``env.step`` makes for the ANP perturbation action."""
    return lambda graph: perturb(graph, Perturbation(3), state.rng)


def test_run_and_step_take_every_step_through_transition(monkeypatch):
    inst = generate_instance(6, 6, seed=5)
    events: list = []
    _spy(monkeypatch, metaheuristics, "transition", events)
    run(ControllerKind.ILS, inst, iterations=7, seed=0)
    assert len(events) == 7

    events.clear()
    _spy(monkeypatch, env, "transition", events)
    state, _ = env.reset(inst, ActionSpace.ANP, seed=0, t_max=10)
    for action in range(10):
        state, *_ = env.step(state, action)
    assert len(events) == 10
    # the perturbation actions, 4 and 9, pass a jump and no operator
    assert [e[1][2] is None for e in events] == [a % 5 == 4 for a in range(10)]
    assert [e[1][3] is not None for e in events] == [a % 5 == 4 for a in range(10)]


def test_only_run_resets_stall_after_a_perturbation():
    inst = generate_instance(6, 6, seed=5)
    # a controller's CET follows its jump; the ANP action has no operator
    for operator, stall in ((Operator.CET, 0), (None, 3)):
        state, _ = env.reset(inst, seed=0, t_max=4)
        for _ in range(2):
            transition(state, False, Operator.CET)
        assert state.stall == 2
        transition(state, False, operator, _perturbation(state))
        assert state.graph.makespan >= state.best_cost   # no new best to reset it
        assert state.stall == stall, operator


def test_run_and_step_keep_their_stall_counts(scripted):
    inst = generate_instance(6, 6, seed=5)
    views = scripted([REJECT, REJECT, PERTURB, REJECT])
    run(ControllerKind.ILS, inst, iterations=4, seed=0)
    assert [v.stall for v in views] == [0, 1, 2, 0]

    state, _ = env.reset(inst, ActionSpace.ANP, seed=0, t_max=4)
    for action in (REJECT_CET, REJECT_CET, REJECT_PERTURB):
        state, *_ = env.step(state, action)
    assert state.stall == 3


def test_only_run_steps_the_perturbed_graph(record_ls_steps):
    inst = generate_instance(6, 6, seed=5)
    calls = record_ls_steps(env)
    state, _ = env.reset(inst, seed=0, t_max=2)
    calls.clear()
    transition(state, False, Operator.CET, _perturbation(state))
    assert calls == [(state.graph, Operator.CET)]
    assert state.pending_from is state.graph

    state, _ = env.reset(inst, seed=0, t_max=2)
    calls.clear()
    transition(state, False, None, _perturbation(state))
    assert calls == []
    assert state.pending is None and state.pending_from is None


def test_only_run_credits_the_accepted_graph_before_perturbing():
    inst = generate_instance(6, 6, seed=1)
    for operator in (Operator.CET, None):
        state, _ = env.reset(inst, seed=0, t_max=1)
        init_cost, accepted = state.best_cost, state.pending.new_cost
        assert accepted < init_cost

        transition(state, True, operator, _perturbation(state))
        assert state.graph.makespan > accepted     # the perturbation lost it
        if operator is None:
            assert state.best_cost == min(init_cost, state.graph.makespan) > accepted
        else:
            assert state.best_cost == accepted


def test_run_and_step_credit_an_accepted_proposal_as_before(scripted):
    inst = generate_instance(6, 6, seed=1)
    state, _ = env.reset(inst, ActionSpace.ANP, seed=0, t_max=1)
    init_cost, accepted = state.best_cost, state.pending.new_cost

    scripted([ACCEPT_AND_PERTURB])
    assert run(ControllerKind.ILS, inst, iterations=1, seed=0).best_cost == accepted

    state, *_ = env.step(state, ACCEPT_PERTURB)
    assert state.best_cost == min(init_cost, state.graph.makespan) > accepted


def test_only_run_restarts(monkeypatch):
    # run's SA-restart rebuilds the schedule (test_restart_controller_restarts);
    # no action of any space does: construction runs only in reset
    inst = generate_instance(6, 6, seed=29)
    events: list = []
    _spy(monkeypatch, env, "dispatch", events)
    _spy(monkeypatch, env, "build_graph", events)
    for space in ActionSpace:
        events.clear()
        state, _ = env.reset(inst, space, seed=0, t_max=3 * space.n_actions)
        for t in range(state.t_max):
            state, *_ = env.step(state, t % space.n_actions)
        assert [e[0] for e in events] == ["dispatch", "build_graph"], space


def test_run_and_reset_build_the_same_start_graph(monkeypatch):
    inst = generate_instance(6, 6, seed=5)
    events: list = []
    _spy(monkeypatch, env, "build_graph", events)
    run(ControllerKind.VNS, inst, iterations=1, seed=3)
    env.reset(inst, ActionSpace.ANP, seed=3, t_max=1)
    (_, _, _, run_start), (_, _, _, reset_start) = events
    # run used to construct with a seed drawn from its generator; FDD/MWKR
    # ignores it (test_dispatch::test_fdd_mwkr_ignores_its_seed)
    drawn = int(np.random.default_rng(3).integers(1 << 31))
    seeded = build_graph(inst, dispatch(inst, DispatchRule.FDD_over_MWKR,
                                        seed=drawn))
    for graph in (reset_start, seeded):
        assert np.array_equal(run_start.mach_order, graph.mach_order)
