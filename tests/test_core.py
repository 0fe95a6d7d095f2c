"""Disjunctive-graph construction, heads/tails, critical structure."""
import ast
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from jobshopls import (build_graph, core, critical_blocks, critical_path, generate_instance,
                       validate)
from jobshopls.core import (CyclicSolutionError, Instance, MalformedSolutionError,
                            OpId, SearchGraph, Solution, move_graph)
from jobshopls.dispatch import DispatchRule, dispatch
from jobshopls.env import ActionSpace
from jobshopls.metaheuristics import ControllerKind
from jobshopls.neighborhood import Operator

from oracles import (heads_tails, reference_checked_rows, simulate_heads_tails,
                     simulate_makespan)


PARSE_TABLE = [
    (ActionSpace, "b", "unknown action space 'b'; expected one of "
     "['a', 'an', 'anp']"),
    (Operator, "swap", "unknown operator 'swap'; expected one of "
     "['ct', 'cet', 'ecet', 'cei']"),
    (ControllerKind, "tabu", "unknown controller 'tabu'; expected one of "
     "['sa', 'sa_restart', 'ils', 'ils_sa', 'vns']"),
    (DispatchRule, "nonsense", "unknown dispatch rule 'nonsense'; expected one "
     "of ['rnd', 'fifo', 'spt', 'mwkr', 'mopnr', 'fdd', 'fdd/mwkr']"),
]


@pytest.mark.parametrize("cls, unknown, message", PARSE_TABLE,
                         ids=[row[0].__name__ for row in PARSE_TABLE])
def test_every_enum_parses_through_parse_choice(cls, unknown, message):
    for member in cls:
        for text in (member.value, member.name.upper(), f"  {member.value}\t"):
            assert cls.parse(text) is member, text
    with pytest.raises(ValueError) as err:
        cls.parse(unknown)
    assert str(err.value) == message


def critical_ops(g):
    """Boolean mask over flat op ids: h + p + q == makespan."""
    n = g.instance.n_ops
    h, q = heads_tails(g)
    return h[:n] + g.instance.proc.reshape(-1) + q[:n] == g.makespan


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
    # start times and tails from the independent simulator
    start, tail = simulate_heads_tails(inst, sol)
    h, q = heads_tails(g)
    assert np.array_equal(h[:n], start)
    assert np.array_equal(q[:n], tail)
    # h + p + q <= C_max everywhere
    assert np.all(h[:n] + inst.proc.reshape(-1) + q[:n] <= g.makespan)


def test_critical_path_is_connected_chain():
    inst = generate_instance(6, 6, seed=2)
    sol = dispatch(inst, DispatchRule.MWKR)
    g = build_graph(inst, sol)
    p, machine = inst.proc.reshape(-1), inst.machine.reshape(-1)
    path = critical_path(g)
    assert sum(p[v] for v in path) == g.makespan
    # consecutive ops share a job or a machine and are time-adjacent
    h = heads_tails(g)[0]
    for a, b in zip(path, path[1:]):
        assert h[a] + p[a] == h[b]
        assert (a // inst.n_machines == b // inst.n_machines) or (machine[a] == machine[b])


def test_critical_blocks_are_maximal_same_machine_runs():
    inst = generate_instance(8, 5, seed=3)
    sol = dispatch(inst, DispatchRule.FIFO)
    g = build_graph(inst, sol)
    crit = set(np.flatnonzero(critical_ops(g)).tolist())
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
    assert len(seen) == len(set(seen)) == int(critical_ops(g).sum())


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
    assert validate(inst, np.array(build_graph(inst, good).rows)) == []

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


@settings(max_examples=300, deadline=None)
@given(data=st.data(), j=st.integers(1, 5), m=st.integers(1, 5),
       faults=st.lists(st.sampled_from(["machine count", "row length", "job range",
                                        "pos range", "duplicate", "wrong machine"]),
                       max_size=3))
def test_malformed_solutions_keep_their_messages(data, j, m, faults):
    # the Python-int conversion must raise what the (M, J, 2) array one did
    inst = generate_instance(j, m, seed=data.draw(st.integers(0, 99)))
    seqs = [list(seq) for seq in dispatch(inst, DispatchRule.SPT).machine_seq]
    out_of_range = st.one_of(st.integers(-3, -1), st.integers(max(j, m), j + m + 2))
    for fault in faults:
        filled = [seq for seq in seqs if seq]
        if not filled:
            break
        row = data.draw(st.sampled_from(filled))
        i = data.draw(st.integers(0, len(row) - 1))
        job, pos = row[i]
        if fault == "machine count":
            seqs.remove(row) if data.draw(st.booleans()) else seqs.append(list(row))
        elif fault == "row length":
            row.pop(i) if data.draw(st.booleans()) else row.append(row[i])
        elif fault == "job range":
            row[i] = OpId(data.draw(out_of_range), pos)
        elif fault == "pos range":
            row[i] = (job, data.draw(out_of_range))
        elif fault == "duplicate":
            row[i] = row[data.draw(st.integers(0, len(row) - 1))]
        else:
            other = data.draw(st.sampled_from(filled))
            a = data.draw(st.integers(0, len(other) - 1))
            row[i], other[a] = other[a], row[i]

    def outcome(check):
        try:
            return check(inst, Solution(seqs))
        except MalformedSolutionError as exc:
            return str(exc)

    assert outcome(core._checked_rows) == outcome(reference_checked_rows)


def test_move_graph_checks_the_window_and_derives_rows():
    inst = generate_instance(5, 4, seed=6)
    g = build_graph(inst, dispatch(inst, DispatchRule.SPT))
    rows = g.rows
    row, other = list(g.rows[2]), list(g.rows[3])
    bad = {  # each window replaces the slots from lo on, as many as it has
        "duplicate op": (1, [row[1], row[1]]),
        "op of another machine": (1, [row[2], other[0]]),
        "longer than the slots left": (4, [row[4], row[3]]),
        "empty": (0, []),
    }
    for lo, window in bad.values():
        with pytest.raises(MalformedSolutionError, match="machine 2"):
            move_graph(g, 2, lo, window)
    for lo in range(len(row) - 1):
        try:
            child = move_graph(g, 2, lo, [row[lo + 1], row[lo]])
        except CyclicSolutionError:
            continue
        want = row[:lo] + [row[lo + 1], row[lo]] + row[lo + 2:]
        assert child.rows[2] == tuple(want)
        # the unmoved rows are shared
        assert all(child.rows[k] is rows[k] for k in (0, 1, 3))
        assert child.makespan == build_graph(inst, np.array(child.rows)).makespan
    # the parent keeps its rows
    assert g.rows is rows and g.rows[2] == tuple(row)


def test_instance_rejects_bad_routes():
    with pytest.raises(ValueError):
        Instance(n_jobs=2, n_machines=2,
                 proc=np.array([[1, 1], [1, 1]]),
                 machine=np.array([[0, 0], [1, 0]]))


@pytest.mark.parametrize("proc, machine, message", [
    ([[1.5, 2.9]], [[0, 1]], "proc must hold integers, got 1.5"),
    ([[1, 2]], [[0.7, 1.2]], "machine must hold integers, got 0.7"),
    ([[1, np.nan]], [[0, 1]], "proc must hold integers, got nan"),
    ([[1, 2]], [[0, np.inf]], "machine must hold integers, got inf"),
])
def test_instance_rejects_non_integer_data(proc, machine, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        Instance(1, 2, proc, machine)


def test_instance_keeps_read_only_copies_of_its_arrays():
    proc = np.array([[3, 2], [2, 4]], dtype=np.int64)
    machine = np.array([[0, 1], [1, 0]], dtype=np.int64)
    inst = Instance(2, 2, proc, machine)
    ops = inst.flat_ops
    proc[0, 0], machine[0] = 50, [1, 0]
    assert inst.proc.tolist() == [[3, 2], [2, 4]]
    assert inst.machine.tolist() == [[0, 1], [1, 0]]
    assert inst.flat_ops is ops and ops[0][0] == 3
    for array in (inst.proc, inst.machine):
        with pytest.raises(ValueError, match="read-only"):
            array[0, 0] = 1


def test_instance_accepts_integral_floats():
    inst = Instance(1, 2, [[1.0, 2.0]], np.array([[1.0, 0.0]]))
    assert inst.proc.dtype == inst.machine.dtype == np.int64
    assert inst.proc.tolist() == [[1, 2]] and inst.machine.tolist() == [[1, 0]]


def test_routing_table_is_computed_once_and_read_only():
    inst = generate_instance(4, 3, seed=5)
    routed = inst.routed
    assert routed is inst.routed and not routed.flags.writeable
    assert routed.shape == (3, 4)
    for k, ops in enumerate(routed.tolist()):
        assert ops == sorted(ops)
        assert all(inst.machine.reshape(-1)[v] == k for v in ops)
    sol = dispatch(inst, DispatchRule.SPT)
    build_graph(inst, sol)
    assert inst.routed is routed


def test_graph_matches_simulation_on_rectangular_shapes():
    for i, (j, m) in enumerate([(1, 1), (1, 4), (5, 1), (2, 5), (5, 3)]):
        inst = generate_instance(j, m, seed=40 + i)
        sol = dispatch(inst, DispatchRule.RND, seed=i)
        assert build_graph(inst, sol).makespan == simulate_makespan(inst, sol)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), j=st.integers(1, 6), m=st.integers(1, 6))
def test_heads_and_tails_match_the_simulator(data, j, m):
    # random machine orders are often cyclic; build_graph must raise exactly
    # when the simulator deadlocks and agree with it everywhere else
    proc = np.array(data.draw(st.lists(st.integers(0, 9), min_size=j * m,
                                       max_size=j * m))).reshape(j, m)
    machine = np.array([data.draw(st.permutations(range(m))) for _ in range(j)])
    inst = Instance(j, m, proc, machine)
    routed = [[OpId(a, k) for a in range(j) for k in range(m)
               if machine[a, k] == i] for i in range(m)]
    sol = Solution([data.draw(st.permutations(ops)) for ops in routed])
    want = simulate_heads_tails(inst, sol)
    if want is None:
        with pytest.raises(CyclicSolutionError):
            build_graph(inst, sol)
        return
    g = build_graph(inst, sol)
    n = inst.n_ops
    h, q = heads_tails(g)
    assert np.array_equal(h[:n], want[0])
    assert np.array_equal(q[:n], want[1])
    assert g.makespan == simulate_makespan(inst, sol)


def test_every_search_graph_field_is_read_in_the_package():
    # a field nobody reads is an alias or a cache that only costs its build
    read = set()
    for path in Path(core.__file__).resolve().parent.rglob("*.py"):
        read |= {node.attr for node in ast.walk(ast.parse(path.read_text()))
                 if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    assert {f.name for f in fields(SearchGraph)} - read == set()


def test_solution_reads_the_instance_op_ids():
    for j, m, seed in [(1, 1, 0), (1, 4, 1), (5, 1, 2), (4, 3, 3), (15, 15, 4)]:
        inst = generate_instance(j, m, seed=seed)
        graph = build_graph(inst, dispatch(inst, DispatchRule.RND, seed=seed))
        seqs = graph.solution().machine_seq
        # the per-op conversion the cached table replaces
        assert seqs == [[OpId(*divmod(v, m)) for v in row] for row in graph.rows]
        assert all(type(op) is OpId for row in seqs for op in row)
        assert inst.op_ids is inst.op_ids and len(inst.op_ids) == j * m
        assert build_graph(inst, graph.solution()).rows == graph.rows
