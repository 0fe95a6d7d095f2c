"""Priority-rule construction: validity, determinism, published values."""
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from jobshopls import (Instance, build_graph, builtin_instance, generate_instance,
                       validate)
from jobshopls.dispatch import DispatchRule, dispatch, stochastic_dispatch
from oracles import reference_dispatch

DETERMINISTIC = [r for r in DispatchRule if r is not DispatchRule.RND]


@pytest.mark.parametrize("rule", DETERMINISTIC)
def test_rules_produce_valid_solutions(rule):
    inst = generate_instance(6, 6, seed=11)
    sol = dispatch(inst, rule)
    assert validate(inst, sol) == []
    assert build_graph(inst, sol).makespan > 0


def test_deterministic_rules_are_reproducible():
    inst = builtin_instance("ta03")
    a = dispatch(inst, DispatchRule.SPT)
    b = dispatch(inst, DispatchRule.SPT)
    assert a.machine_seq == b.machine_seq


def test_fdd_mwkr_ignores_its_seed():
    # metaheuristics.run constructs through env.start, which passes no seed
    for inst in (builtin_instance("ta01"), generate_instance(6, 6, seed=5),
                 generate_instance(8, 4, seed=2)):
        ref = dispatch(inst, DispatchRule.FDD_over_MWKR)
        for seed in (0, 1, 12345, (1 << 31) - 1):
            sol = dispatch(inst, DispatchRule.FDD_over_MWKR, seed=seed)
            assert sol.machine_seq == ref.machine_seq, (inst.name, seed)


def test_random_rule_is_seeded():
    inst = generate_instance(8, 8, seed=1)
    a = dispatch(inst, DispatchRule.RND, seed=5)
    b = dispatch(inst, DispatchRule.RND, seed=5)
    c = dispatch(inst, DispatchRule.RND, seed=6)
    assert a.machine_seq == b.machine_seq
    assert a.machine_seq != c.machine_seq


def test_published_reference_costs_on_ta01():
    inst = builtin_instance("ta01")
    expected = {DispatchRule.FIFO: 1486, DispatchRule.SPT: 1462,
                DispatchRule.MWKR: 1491, DispatchRule.MOPNR: 1438,
                DispatchRule.FDD: 1439, DispatchRule.FDD_over_MWKR: 1417}
    for rule, cost in expected.items():
        sol = dispatch(inst, rule)
        assert build_graph(inst, sol).makespan == cost, rule


def test_rule_parse_accepts_all_names():
    for rule in DispatchRule:
        assert DispatchRule.parse(rule.value) is rule
    assert DispatchRule.parse("FDD/MWKR") is DispatchRule.FDD_over_MWKR
    with pytest.raises(ValueError):
        DispatchRule.parse("nonsense")


@pytest.mark.parametrize("rule", DETERMINISTIC)
def test_schedules_are_non_delay(rule):
    # a machine never sits idle while one of its operations is ready
    inst = generate_instance(5, 5, seed=21)
    sol = dispatch(inst, rule)
    g = build_graph(inst, sol)
    n = inst.n_ops
    start = np.array(g.end[:n]) - inst.proc.reshape(-1)
    end = start + inst.proc.reshape(-1)

    def ready(v):
        # flat id v - 1 is the job predecessor of every op but a job's first
        return 0 if v % inst.n_machines == 0 else end[v - 1]

    for seq in map(list, g.rows):
        starts = start[seq]
        gaps = [(0, starts[0])] + [
            (end[a], starts[i + 1])
            for i, a in enumerate(seq[:-1])]
        for i, (g1, g2) in enumerate(gaps):
            if g1 >= g2:
                continue
            # every op scheduled after the idle window became ready after it
            for v in seq[i:]:
                assert ready(v) >= g2


def test_stochastic_dispatch_varies_and_stays_valid():
    inst = generate_instance(6, 6, seed=31)
    costs = set()
    for s in range(5):
        sol = stochastic_dispatch(inst, DispatchRule.FDD_over_MWKR, noise=1.0, seed=s)
        assert validate(inst, sol) == []
        costs.add(build_graph(inst, sol).makespan)
    assert len(costs) > 1


ALL_ZERO_SCRIPT = """
import numpy as np
from jobshopls import Instance, build_graph, validate
from jobshopls.dispatch import DispatchRule, dispatch, stochastic_dispatch
for j, m in ((2, 1), (3, 3)):
    machine = np.array([np.roll(np.arange(m), a) for a in range(j)])
    inst = Instance(j, m, np.zeros((j, m), dtype=np.int64), machine)
    for rule in DispatchRule:
        for sol in (dispatch(inst, rule, seed=0),
                    stochastic_dispatch(inst, rule, noise=1.0, seed=0)):
            assert validate(inst, sol) == [], (j, m, rule)
            assert build_graph(inst, sol).makespan == 0, (j, m, rule)
"""


def test_all_zero_durations_give_makespan_zero():
    # in a child process, so that a dispatcher that never finishes fails on
    # the timeout instead of hanging the suite
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-c", ALL_ZERO_SCRIPT], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("shape", [(0, 3), (3, 0)])
@pytest.mark.parametrize("rule", list(DispatchRule))
def test_instances_without_ops_dispatch_to_empty_orders(rule, shape):
    inst = Instance(*shape, np.zeros(shape), np.zeros(shape))
    for noise in (0.0, 1.0):
        sol = stochastic_dispatch(inst, rule, noise=noise, seed=0)
        assert validate(inst, sol) == []
        assert build_graph(inst, sol).makespan == 0


def assert_matches_reference(inst, seed, noises=(0.0, 0.5, 1.0)):
    for rule in DispatchRule:
        for noise in noises:
            rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            got = stochastic_dispatch(inst, rule, noise=noise, seed=rng)
            want = reference_dispatch(inst, rule, ref_rng, noise)
            assert got.machine_seq == want.machine_seq, (rule, noise)
            # the restart draw is integers(3) here and Generator.choice in
            # the reference: both leave the generator in the same state
            assert rng.bit_generator.state == ref_rng.bit_generator.state, (rule, noise)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), j=st.integers(1, 8), m=st.integers(1, 8),
       seed=st.integers(0, 2**32 - 1), noise=st.floats(0.0, 1.0))
def test_event_heap_matches_the_countdown_dispatcher(data, j, m, seed, noise):
    # durations 0..9 give many zero-length ops, ties and simultaneous ends;
    # all-zero jobs score nan under FDD/MWKR
    proc = np.array(data.draw(st.lists(st.integers(0, 9), min_size=j * m,
                                       max_size=j * m))).reshape(j, m)
    proc[data.draw(st.lists(st.integers(0, j - 1), max_size=j))] = 0
    machine = np.array([data.draw(st.permutations(range(m))) for _ in range(j)])
    assert_matches_reference(Instance(j, m, proc, machine), seed, (0.0, noise, 1.0))


@pytest.mark.parametrize("seed", range(6))
def test_event_heap_matches_the_countdown_dispatcher_on_wide_durations(seed):
    # log-uniform durations on 1..1e9, beyond the bound under which the
    # dispatch docstring proves the clocks exact; these cases still agree
    rng = np.random.default_rng(seed)
    proc = np.rint(np.exp(rng.uniform(0.0, np.log(1e9), size=(8, 8))))
    machine = np.array([rng.permutation(8) for _ in range(8)])
    assert_matches_reference(Instance(8, 8, proc.astype(np.int64), machine), seed)
