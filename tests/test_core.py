"""Disjunctive-graph construction, heads/tails, critical structure."""
import numpy as np
import pytest

from jobshopls import build_graph, critical_blocks, critical_path, generate_instance, validate
from jobshopls.core import (CyclicSolutionError, Instance, MalformedSolutionError,
                            OpId, Solution)
from jobshopls.dispatch import DispatchRule, dispatch

from oracles import simulate_makespan


def tiny_instance():
    # 2 jobs x 2 machines, worked out by hand below
    return Instance(n_jobs=2, n_machines=2,
                    proc=np.array([[3, 2], [2, 4]]),
                    machine=np.array([[0, 1], [1, 0]]))


def test_hand_checked_makespan():
    inst = tiny_instance()
    # job0 on m0 [0,3), job1 on m1 [0,2); job0 on m1 [3,5), job1 on m0 [3,7)
    sol = Solution([[OpId(0, 0), OpId(1, 1)], [OpId(1, 0), OpId(0, 1)]])
    g = build_graph(inst, sol)
    assert g.makespan == 7
    assert simulate_makespan(inst, sol) == 7


def test_heads_are_start_times_and_tails_complete_paths():
    inst = generate_instance(4, 3, seed=5)
    sol = dispatch(inst, DispatchRule.SPT)
    g = build_graph(inst, sol)
    n = inst.n_ops
    # start times from the independent simulator:
    # rebuild them with the same machine orders
    J, M = inst.n_jobs, inst.n_machines
    start = np.zeros(n)
    job_free = np.zeros(J)
    mach_free = np.zeros(M)
    done = 0
    job_next = [0] * J
    mach_next = [0] * M
    while done < n:
        for k in range(M):
            while mach_next[k] < len(sol.machine_seq[k]):
                op = sol.machine_seq[k][mach_next[k]]
                if op.pos != job_next[op.job]:
                    break
                s = max(job_free[op.job], mach_free[k])
                start[op.job * M + op.pos] = s
                e = s + inst.proc[op.job, op.pos]
                job_free[op.job] = e
                mach_free[k] = e
                job_next[op.job] += 1
                mach_next[k] += 1
                done += 1
    assert np.array_equal(g.head[:n], start)
    # h + p + q <= C_max everywhere, equality exactly on critical ops
    slack = g.head[:n] + inst.proc.reshape(-1) + g.tail[:n]
    assert np.all(slack <= g.makespan)
    assert np.array_equal(slack == g.makespan, g.critical_mask)


def test_critical_path_is_connected_chain():
    inst = generate_instance(6, 6, seed=2)
    sol = dispatch(inst, DispatchRule.MWKR)
    g = build_graph(inst, sol)
    p, machine = inst.proc.reshape(-1), inst.machine.reshape(-1)
    path = critical_path(g)
    assert sum(p[v] for v in path) == g.makespan
    # consecutive ops share a job or a machine and are time-adjacent
    for a, b in zip(path, path[1:]):
        assert g.head[a] + p[a] == g.head[b]
        assert (a // inst.n_machines == b // inst.n_machines) or (machine[a] == machine[b])


def test_critical_blocks_are_maximal_same_machine_runs():
    inst = generate_instance(8, 5, seed=3)
    sol = dispatch(inst, DispatchRule.FIFO)
    g = build_graph(inst, sol)
    crit = set(np.flatnonzero(g.critical_mask).tolist())
    for block in critical_blocks(g):
        seq = [op.job * inst.n_machines + op.pos for op in sol.machine_seq[block.machine]]
        lo = block.start
        hi = lo + len(block.ops)
        assert list(block.ops) == seq[lo:hi]
        assert all(op in crit for op in block.ops)
        # maximality: the neighbours on the machine are not critical
        if lo > 0:
            assert seq[lo - 1] not in crit
        if hi < len(seq):
            assert seq[hi] not in crit


def test_every_critical_op_is_in_exactly_one_block():
    inst = generate_instance(6, 4, seed=9)
    sol = dispatch(inst, DispatchRule.FDD)
    g = build_graph(inst, sol)
    seen = [op for b in critical_blocks(g) for op in b.ops]
    assert len(seen) == len(set(seen)) == int(g.critical_mask.sum())


def test_cyclic_solution_raises():
    inst = tiny_instance()
    # both machines order the jobs against each other's routes
    sol = Solution([[OpId(1, 1), OpId(0, 0)], [OpId(0, 1), OpId(1, 0)]])
    assert simulate_makespan(inst, sol) is None
    with pytest.raises(CyclicSolutionError):
        build_graph(inst, sol)


def test_validate_reports_malformed_solutions():
    inst = tiny_instance()
    good = dispatch(inst, DispatchRule.SPT)
    assert validate(inst, good) == []
    assert validate(inst, build_graph(inst, good).mach_order) == []

    def sol(*rows):
        return Solution([[OpId(*op) for op in row] for row in rows])

    def named(*machines):
        return [f"machine {k}: not a permutation of the 2 ops routed to it"
                for k in machines]

    # flat ids: 0 = (0, 0) and 3 = (1, 1) run on machine 0, 2 = (1, 0) and
    # 1 = (0, 1) on machine 1
    cases = [  # (fault, malformed input, what validate reports)
        ("missing machine", sol([(0, 0), (1, 1)]),
         ["expected 2 machine sequences, got 1"]),
        ("missing machine", np.array([[0, 3]]),
         ["expected an order of shape (2, 2), got (1, 2)"]),
        ("wrong op count", sol([(0, 0)], [(1, 0), (0, 1)]), named(0)),
        ("wrong op count", np.array([[0], [2]]),
         ["expected an order of shape (2, 2), got (2, 1)"]),
        ("op out of range", sol([(0, 0), (1, 1)], [(1, 0), (0, 5)]), named(1)),
        ("op out of range", np.array([[0, 3], [2, 4]]), named(1)),
        # (1, -1) would alias flat id 1, the op that belongs in that slot
        ("op out of range", sol([(0, 0), (1, 1)], [(1, 0), (1, -1)]), named(1)),
        ("op out of range", np.array([[0, 3], [2, -1]]), named(1)),
        ("misrouted op", sol([(0, 0), (1, 0)], [(1, 1), (0, 1)]), named(0, 1)),
        ("misrouted op", np.array([[0, 2], [3, 1]]), named(0, 1)),
        ("duplicate", sol([(0, 0), (0, 0)], [(1, 0), (0, 1)]), named(0)),
        ("duplicate", np.array([[0, 0], [2, 1]]), named(0)),
    ]
    for fault, bad, want in cases:
        assert validate(inst, bad) == want, fault
        with pytest.raises(MalformedSolutionError):
            build_graph(inst, bad)

    cyclic = sol([(1, 1), (0, 0)], [(0, 1), (1, 0)])
    for bad in (cyclic, np.array([[3, 0], [1, 2]])):
        assert validate(inst, bad) == ["precedence graph is cyclic"]


def test_instance_rejects_bad_routes():
    with pytest.raises(ValueError):
        Instance(n_jobs=2, n_machines=2,
                 proc=np.array([[1, 1], [1, 1]]),
                 machine=np.array([[0, 0], [1, 0]]))


def test_graph_matches_simulation_on_rectangular_shapes():
    for i, (j, m) in enumerate([(1, 1), (1, 4), (5, 1), (2, 5), (5, 3)]):
        inst = generate_instance(j, m, seed=40 + i)
        sol = dispatch(inst, DispatchRule.RND, seed=i)
        assert build_graph(inst, sol).makespan == simulate_makespan(inst, sol)
