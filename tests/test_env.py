"""Search-environment contract: actions, rewards, observations, replay."""
import numpy as np
import pytest

from jobshopls import build_graph, builtin_instance, env, generate_instance
from jobshopls.dispatch import DispatchRule, dispatch
from jobshopls.env import (ActionSpace, InvalidAction, Operator, observe, reset,
                           rollout, step)


def test_action_space_sizes():
    assert ActionSpace.A.n_actions == 2
    assert ActionSpace.AN.n_actions == 8
    assert ActionSpace.ANP.n_actions == 10
    assert ActionSpace.parse("anp") is ActionSpace.ANP
    with pytest.raises(ValueError):
        ActionSpace.parse("b")


def test_decode_accept_major_layout():
    # the layout written out: the reject half, then the accept half, each
    # walking the same choices; A pins the block-end swap, and None is ANP's
    # perturbation
    ct, cet, ecet, cei = Operator.CT, Operator.CET, Operator.ECET, Operator.CEI
    layouts = {ActionSpace.A: [cet], ActionSpace.AN: [ct, cet, ecet, cei],
               ActionSpace.ANP: [ct, cet, ecet, cei, None]}
    for space, half in layouts.items():
        decoded = [space.decode(a) for a in range(space.n_actions)]
        assert decoded == [(False, op) for op in half] + [(True, op) for op in half]
        assert all(type(accept) is bool for accept, _ in decoded)
    for space, bad in ((ActionSpace.A, 2), (ActionSpace.AN, 8), (ActionSpace.ANP, 10)):
        with pytest.raises(InvalidAction):
            space.decode(bad)


def test_reset_starts_from_the_constructive_schedule():
    inst = generate_instance(6, 6, seed=41)
    state, obs = reset(inst, ActionSpace.A, seed=0, t_max=10)
    init = build_graph(inst, dispatch(inst, DispatchRule.FDD_over_MWKR)).makespan
    assert state.init_cost == init
    assert state.best_cost <= init
    assert state.pending is not None  # an initial step proposal is ready
    assert not state.done


def test_observation_shapes_and_ranges():
    inst = generate_instance(5, 4, seed=43)
    state, obs = reset(inst, ActionSpace.ANP, seed=1, t_max=8)
    n = inst.n_ops
    assert obs.scalars.shape == (7,)
    assert obs.node_feats.shape == (n, 5)
    assert obs.nbr_stat.shape == (n, 2) and obs.nbr_dyna.shape == (n, 2)
    # every chain link is listed once from each of its two ends
    assert np.count_nonzero(obs.nbr_stat < n) == 2 * inst.n_jobs * (inst.n_machines - 1)
    assert np.count_nonzero(obs.nbr_dyna < n) == 2 * inst.n_machines * (inst.n_jobs - 1)
    assert obs.groups.shape == (n,)
    # the instance's own read-only machine table, not a copy per observation
    assert np.shares_memory(obs.groups, inst.machine)
    assert not obs.groups.flags.writeable
    assert obs.n_groups == inst.n_machines
    assert np.all(obs.node_feats[:, 3] >= 0) and np.all(obs.node_feats[:, 3] <= 1)
    for nbr in (obs.nbr_stat, obs.nbr_dyna):
        # ids reference real nodes or the "no neighbour" id n
        assert nbr.min() >= 0 and nbr.max() <= n
        # symmetric: i lists j exactly when j lists i
        for i, j in zip(*np.nonzero(nbr < n)):
            assert i in nbr[nbr[i, j]]


def test_rewards_are_clamped_improvements():
    inst = generate_instance(6, 6, seed=47)
    state, _ = reset(inst, ActionSpace.A, seed=2, t_max=30)
    rng = np.random.default_rng(0)
    while not state.done:
        state, reward, done, _ = step(state, int(rng.integers(2)))
        assert reward >= 0.0
    assert done and state.done


def test_reward_sum_telescopes_to_total_improvement():
    for space in (ActionSpace.A, ActionSpace.AN, ActionSpace.ANP):
        inst = generate_instance(5, 5, seed=53)
        state, _ = reset(inst, space, seed=3, t_max=40)
        rng = np.random.default_rng(1)
        total = 0.0
        while not state.done:
            state, reward, _, _ = step(state, int(rng.integers(space.n_actions)))
            total += reward
        assert total == state.init_cost - state.best_cost, space


def test_best_cost_matches_best_solution():
    inst = generate_instance(6, 6, seed=59)
    state, _ = reset(inst, ActionSpace.ANP, seed=4, t_max=25)
    rng = np.random.default_rng(2)
    while not state.done:
        state, _, _, _ = step(state, int(rng.integers(10)))
    assert build_graph(inst, state.best_graph.solution()).makespan == state.best_cost


def test_negative_perturbation_strength_is_rejected_at_reset():
    inst = generate_instance(3, 3, seed=61)
    with pytest.raises(ValueError, match="perturbation strength must be >= 0"):
        reset(inst, ActionSpace.ANP, seed=0, perturbation_strength=-1)
    state, _ = reset(inst, ActionSpace.ANP, seed=0, perturbation_strength=0)
    graph = state.graph
    state, *_ = step(state, 4)       # reject + perturb by zero moves
    assert state.graph is graph


def test_step_after_done_raises():
    inst = generate_instance(3, 3, seed=61)
    state, _ = reset(inst, ActionSpace.A, seed=0, t_max=1)
    state, _, done, _ = step(state, 1)
    assert done
    with pytest.raises(InvalidAction):
        step(state, 0)


def test_reject_reverts_to_the_committed_solution():
    inst = generate_instance(6, 6, seed=67)
    state, _ = reset(inst, ActionSpace.A, seed=5, t_max=10)
    committed = state.graph.makespan
    state, _, _, obs = step(state, 0)  # reject
    assert state.graph.makespan == committed


def test_perturbation_action_counts_and_commits():
    inst = generate_instance(6, 6, seed=71)
    state, _ = reset(inst, ActionSpace.ANP, seed=6, t_max=6)
    before = state.n_perturbations
    state, _, _, _ = step(state, 9)  # accept + perturb
    assert state.n_perturbations == before + 1
    assert state.pending is None


def test_rollout_replay_is_bit_exact():
    inst = generate_instance(6, 6, seed=73)
    rng = np.random.default_rng(9)
    actions = [int(a) for a in rng.integers(0, 10, size=30)]
    a = rollout(inst, actions, ActionSpace.ANP, seed=11, t_max=30)
    b = rollout(inst, actions, ActionSpace.ANP, seed=11, t_max=30)
    assert a == b
    assert len(a) == 30


def test_observation_uses_pending_graph():
    inst = generate_instance(6, 6, seed=83)
    state, obs = reset(inst, ActionSpace.A, seed=7, t_max=10)
    pending_cost = state.pending.graph.makespan
    committed = state.graph.makespan
    # first scalar is current (pending) cost over the initial cost
    assert obs.scalars[0] == pytest.approx(pending_cost / state.init_cost)
    if pending_cost != committed:
        assert obs.scalars[0] != pytest.approx(committed / state.init_cost)


def test_repeated_rejects_reuse_the_pending_proposal(record_ls_steps):
    # rejecting keeps the graph and A always steps with CET, so three
    # rejects in a row need one ls_step, not three
    calls = record_ls_steps(env)
    rows = rollout(builtin_instance("ta01"), (0, 0, 0, 1) * 25, ActionSpace.A,
                   seed=0)
    assert len(rows) == 100
    assert calls
    assert not any(a[0] is b[0] and a[1] is b[1] for a, b in zip(calls, calls[1:]))
    assert len(calls) < 100 + 1
