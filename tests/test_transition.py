"""The five ways ``metaheuristics.run`` and ``env.step`` differ.

Both loops settle a pending proposal, may perturb, and produce the next
proposal, but they are written separately and differ in five details. Each
test pins one difference, so a change that unifies the two loops has to
choose which semantics to keep.
"""
import numpy as np
import pytest

from jobshopls import env, generate_instance, metaheuristics
from jobshopls.dispatch import DispatchRule
from jobshopls.env import ActionSpace
from jobshopls.metaheuristics import (ControllerDecision, ControllerKind,
                                      Operator, Perturbation, run)

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


def test_only_run_resets_stall_after_a_perturbation(scripted):
    inst = generate_instance(6, 6, seed=5)
    views = scripted([REJECT, REJECT, PERTURB, REJECT])
    run(ControllerKind.ILS, inst, iterations=4, seed=0)
    assert [v.stall for v in views] == [0, 1, 2, 0]

    state, _ = env.reset(inst, ActionSpace.ANP, seed=0, t_max=4)
    for _ in range(2):
        state, *_ = env.step(state, REJECT_CET)
    assert state.stall == 2
    state, *_ = env.step(state, REJECT_PERTURB)
    assert state.graph.makespan >= state.best_cost   # no new best to reset it
    assert state.stall == 3


def test_only_run_steps_the_perturbed_graph(monkeypatch, scripted):
    inst = generate_instance(6, 6, seed=5)
    scripted([PERTURB])
    events: list = []
    _spy(monkeypatch, metaheuristics, "perturb", events)
    _spy(monkeypatch, metaheuristics, "ls_step", events)
    run(ControllerKind.ILS, inst, iterations=1, seed=0)
    # the CT step of the start, the perturbation, then a CET step from its graph
    assert [e[0] for e in events] == ["ls_step", "perturb", "ls_step"]
    assert events[2][1] == (events[1][3], Operator.CET)

    events.clear()
    _spy(monkeypatch, env, "perturb", events)
    _spy(monkeypatch, env, "ls_step", events)
    state, _ = env.reset(inst, ActionSpace.ANP, seed=0, t_max=2)
    state, *_ = env.step(state, REJECT_PERTURB)
    assert [e[0] for e in events] == ["ls_step", "perturb"]
    assert state.pending is None and state.pending_from is None


def test_only_run_credits_the_accepted_graph_before_perturbing(scripted):
    inst = generate_instance(6, 6, seed=1)
    state, _ = env.reset(inst, ActionSpace.ANP, seed=0, t_max=1)
    init_cost, accepted = state.best_cost, state.pending.new_cost
    assert accepted < init_cost

    scripted([ACCEPT_AND_PERTURB])
    assert run(ControllerKind.ILS, inst, iterations=1, seed=0).best_cost == accepted

    state, *_ = env.step(state, ACCEPT_PERTURB)
    assert state.graph.makespan > accepted     # the perturbation lost it
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


def test_only_run_seeds_construction(monkeypatch):
    inst = generate_instance(6, 6, seed=5)
    events: list = []
    _spy(monkeypatch, metaheuristics, "dispatch", events)
    _spy(monkeypatch, env, "dispatch", events)
    run(ControllerKind.VNS, inst, iterations=1, seed=3)
    env.reset(inst, ActionSpace.ANP, seed=3, t_max=1)
    (_, run_args, run_kwargs, _), (_, env_args, env_kwargs, _) = events
    expected = int(np.random.default_rng(3).integers(1 << 31))
    assert run_args == (inst, DispatchRule.FDD_over_MWKR)
    assert run_kwargs == {"seed": expected}
    assert env_args == (inst, DispatchRule.FDD_over_MWKR) and env_kwargs == {}
