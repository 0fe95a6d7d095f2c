"""Critical-block move operators: enumeration, estimates, application."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from jobshopls import (CyclicSolutionError, Instance, build_graph, critical_blocks,
                       critical_path, generate_instance, validate)
from jobshopls.dispatch import DispatchRule, dispatch, stochastic_dispatch
from jobshopls.core import CriticalBlock
from jobshopls.neighborhood import (LocalOptimum, Move, Operator, Proposal,
                                    WouldCreateCycle, apply_move, enumerate_moves,
                                    estimate_move, ls_step, perturb)

from oracles import (apply_move_to_sequences, exact_move_cost, heads_tails,
                     reference_critical_blocks, reference_critical_path,
                     reference_estimate, reference_ls_step, simulate_makespan)


def graph_for(seed, j=6, m=6, rule=DispatchRule.SPT):
    inst = generate_instance(j, m, seed=seed)
    sol = dispatch(inst, rule)
    return inst, sol, build_graph(inst, sol)


def expected_counts(blocks):
    ct = sum(len(b.ops) - 1 for b in blocks)
    cet = sum((2 if len(b.ops) >= 3 else 1) for b in blocks if len(b.ops) >= 2)
    ecet = sum(1 for b in blocks if len(b.ops) >= 4)
    cei = sum((len(b.ops) - 1) * (len(b.ops) - 2) for b in blocks if len(b.ops) >= 3)
    return {Operator.CT: ct, Operator.CET: cet, Operator.ECET: ecet, Operator.CEI: cei}


def test_move_counts_follow_block_sizes():
    for seed in range(8):
        inst, sol, g = graph_for(seed)
        want = expected_counts(critical_blocks(g))
        for op in Operator:
            assert len(enumerate_moves(g, op)) == want[op], (seed, op)


def test_block_of_five_yields_twelve_insertions():
    # synthetic check of the ordered-pair count on the largest block seen
    for seed in range(40):
        inst, sol, g = graph_for(seed, j=8, m=4)
        sizes = [len(b.ops) for b in critical_blocks(g)]
        if 5 in sizes:
            per_block = {}
            for mv in enumerate_moves(g, Operator.CEI):
                per_block.setdefault(mv.machine, 0)
            break
    blocks = [b for b in critical_blocks(g) if len(b.ops) == 5]
    count = sum(1 for mv in enumerate_moves(g, Operator.CEI)
                if any(b.machine == mv.machine and
                       b.start <= mv.pos_a < b.start + 5 for b in blocks))
    assert count >= 12


def constructed_moves(blocks, op) -> list:
    """The operator's moves on ``blocks`` by the Move constructor, in
    enumeration order, straight from the operator definitions."""
    moves = []
    for m, s, ops in blocks:
        e = s + len(ops) - 1    # the block's last slot
        if op is Operator.CT:
            moves += [Move(op, m, i, i + 1) for i in range(s, e)]
        elif op is Operator.CET:
            moves += [Move(op, m, i, i + 1) for i in sorted({s, e - 1}) if s < e]
        elif op is Operator.ECET and e - s >= 3:
            moves.append(Move(op, m, s, e - 1))
        elif op is Operator.CEI:
            moves += [Move(op, m, f, t) for f in range(s, e + 1)
                      for t in range(s, e + 1) if abs(f - t) >= 2]
    return moves


@settings(max_examples=60, deadline=None)
@given(data=st.data(), j=st.integers(1, 7), m=st.integers(1, 6),
       seed=st.integers(0, 10_000))
def test_candidates_are_constructor_equal_named_tuples(data, j, m, seed):
    proc = np.array(data.draw(st.lists(st.integers(0, 6), min_size=j * m,
                                       max_size=j * m))).reshape(j, m)
    machine = np.array([data.draw(st.permutations(range(m))) for _ in range(j)])
    inst = Instance(j, m, proc, machine)
    g = build_graph(inst, dispatch(inst, DispatchRule.RND, seed=seed))
    blocks = critical_blocks(g)
    assert all(type(b) is CriticalBlock for b in blocks)
    assert blocks == [CriticalBlock(b.machine, b.start, b.ops) for b in blocks]
    assert critical_path(g) == [v for b in blocks for v in b.ops]
    for op in Operator:
        moves = enumerate_moves(g, op)
        assert all(type(mv) is Move for mv in moves)
        assert moves == constructed_moves(blocks, op)
        assert [mv._asdict() for mv in moves] == [
            mv._asdict() for mv in constructed_moves(blocks, op)]


def test_single_op_blocks_are_kept_but_never_moved():
    singles = 0
    for seed in range(10):
        inst, sol, g = graph_for(seed)
        h, q = heads_tails(g)
        p = inst.proc.reshape(-1)
        path = critical_path(g)
        for b in critical_blocks(g):
            if len(b.ops) != 1:
                continue
            singles += 1
            v = b.ops[0]
            assert v in path and h[v] + p[v] + q[v] == g.makespan
            assert g.rows[b.machine][b.start] == v
            for op in Operator:
                assert not any(mv.machine == b.machine
                               and b.start in (mv.pos_a, mv.pos_b)
                               for mv in enumerate_moves(g, op)), (seed, op)
    assert singles > 0


def test_adjacent_swap_estimates_are_sharp_lower_bounds():
    # the pair formula gives the longest path through the swapped pair; paths
    # avoiding the pair are unchanged and bounded by the old makespan, so the
    # estimate is a lower bound, exact whenever it reaches the old makespan
    for seed in range(10):
        inst, sol, g = graph_for(seed)
        for op in (Operator.CT, Operator.CET):
            for mv in enumerate_moves(g, op):
                got = estimate_move(g, mv).estimate
                exact = exact_move_cost(inst, sol, mv)
                assert got <= exact, (seed, mv)
                if got >= g.makespan:
                    assert got == exact, (seed, mv)


def test_compound_move_estimates_never_exceed_exact():
    checked = 0
    for seed in range(20):
        inst, sol, g = graph_for(seed, rule=DispatchRule.MWKR)
        for op in (Operator.ECET, Operator.CEI):
            for mv in enumerate_moves(g, op):
                exact = exact_move_cost(inst, sol, mv)
                if exact is None:
                    continue  # insertion breaks feasibility
                assert estimate_move(g, mv).estimate <= exact, (seed, mv)
                checked += 1
    assert checked > 50


def test_apply_move_updates_graph_consistently():
    inst, sol, g = graph_for(3)
    mv = enumerate_moves(g, Operator.CT)[0]
    g2 = apply_move(g, mv)
    sol2 = g2.solution()
    assert validate(inst, sol2) == []
    assert g2.makespan == simulate_makespan(inst, sol2)
    assert sol2 == apply_move_to_sequences(sol, mv) != sol
    assert g.solution() == sol  # the old graph is untouched


def test_infeasible_insertion_leaves_solution_untouched():
    tried = 0
    for seed in range(60):
        inst, sol, g = graph_for(seed, j=8, m=4)
        for mv in enumerate_moves(g, Operator.CEI):
            if exact_move_cost(inst, sol, mv) is None:
                with pytest.raises(WouldCreateCycle):
                    apply_move(g, mv)
                assert g.solution() == sol
                tried += 1
        if tried:
            break
    assert tried > 0


def test_ls_step_picks_minimum_estimate_first_tie():
    for seed in range(6):
        inst, sol, g = graph_for(seed)
        moves = enumerate_moves(g, Operator.CT)
        result = ls_step(g, Operator.CT)
        if isinstance(result, LocalOptimum):
            assert not moves
            continue
        assert isinstance(result, Proposal)
        ests = [estimate_move(g, m).estimate for m in moves]
        best = min(ests)
        assert result.eval.estimate == best
        assert result.move == moves[ests.index(best)]  # first tie wins
        assert result.new_cost == result.graph.makespan


def test_ls_step_cost_matches_full_rebuild():
    inst, sol, g = graph_for(4)
    result = ls_step(g, Operator.CET)
    assert isinstance(result, Proposal)
    assert result.new_cost == simulate_makespan(
        inst, apply_move_to_sequences(sol, result.move))


def test_perturbation_is_seeded_and_valid():
    inst1, sol1, g1 = graph_for(9)
    inst2, sol2, g2 = graph_for(9)
    pa = perturb(g1, 4, seed=2)
    pb = perturb(g2, 4, seed=2)
    assert pa.rows == pb.rows
    assert pa.makespan == pb.makespan
    assert validate(inst1, pa.solution()) == []
    assert pa.makespan == simulate_makespan(inst1, pa.solution())


def test_perturbation_strength_zero_is_identity():
    inst, sol, g = graph_for(5)
    g2 = perturb(g, 0, seed=0)
    assert g2.solution() == sol
    assert g2.makespan == g.makespan


def test_perturb_rejects_a_negative_strength():
    inst, sol, g = graph_for(5)
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="^perturbation strength must be >= 0$"):
        perturb(g, -1, seed=rng)
    # refused before any draw
    assert rng.integers(1 << 31) == np.random.default_rng(0).integers(1 << 31)


def assert_topological(g):
    # the stored order holds every op once, and every job and machine arc
    # points forward in it
    n = g.instance.n_ops
    job_pred = g.instance.flat_ops[1]
    assert sorted(g.topo) == list(range(n))
    at = {v: i for i, v in enumerate(g.topo)}
    for v in range(n):
        for u in (job_pred[v], g.mach_pred[v]):
            assert u >= n or at[u] < at[v], (u, v)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), j=st.integers(1, 7), m=st.integers(1, 5),
       seed=st.integers(0, 10_000),
       steps=st.lists(st.tuples(st.sampled_from([*Operator, Operator.CEI,
                                                 Operator.CEI, "perturb"]),
                                st.integers(0, 10_000)), min_size=1, max_size=12))
def test_moves_and_perturbations_return_fresh_graphs(data, j, m, seed, steps):
    # each step builds a new graph, derived from its parent's topological
    # order, equal to a full rebuild of the moved orders, and leaves the old
    # graph as it was; processing times of 0..6 make zero-duration ops and
    # equal heads common
    proc = np.array(data.draw(st.lists(st.integers(0, 6), min_size=j * m,
                                       max_size=j * m))).reshape(j, m)
    machine = np.array([data.draw(st.permutations(range(m))) for _ in range(j)])
    inst = Instance(j, m, proc, machine)
    g = build_graph(inst, dispatch(inst, DispatchRule.RND, seed=seed))
    assert_topological(g)
    for kind, pick in steps:
        old_sol = g.solution()
        old = (g.rows, g.makespan, *map(list, (g.mach_pred, g.mach_succ, g.topo,
                                                g.end, g.out)))
        if kind == "perturb":
            new = perturb(g, 2, seed=pick)
        else:
            moves = enumerate_moves(g, kind)
            if not moves:
                continue
            mv = moves[pick % len(moves)]
            want = apply_move_to_sequences(old_sol, mv)
            try:
                new = apply_move(g, mv)
            except WouldCreateCycle:
                assert simulate_makespan(inst, want) is None
                with pytest.raises(CyclicSolutionError):
                    build_graph(inst, want)
                continue
            assert new.solution() == want
        ref = build_graph(inst, new.solution())
        assert (new.end, new.out, new.mach_pred, new.mach_succ) == (
            ref.end, ref.out, ref.mach_pred, ref.mach_succ)
        assert new.makespan == ref.makespan == simulate_makespan(inst, new.solution())
        assert_topological(new)
        assert (g.rows, g.makespan, g.mach_pred, g.mach_succ, g.topo,
                g.end, g.out) == old
        g = new


@settings(max_examples=80, deadline=None)
@given(data=st.data(), j=st.integers(1, 6), m=st.integers(1, 6),
       rule=st.sampled_from(list(DispatchRule)),
       noise=st.sampled_from([0.0, 0.5, 1.0]), seed=st.integers(0, 10_000),
       picks=st.lists(st.tuples(st.sampled_from(list(Operator)),
                                st.integers(0, 10_000)), max_size=8))
def test_walkers_match_the_numpy_references(data, j, m, rule, noise, seed, picks):
    # small processing times make equal heads, and so the tie-breaks, common
    proc = np.array(data.draw(st.lists(st.integers(0, 6), min_size=j * m,
                                       max_size=j * m))).reshape(j, m)
    machine = np.array([data.draw(st.permutations(range(m))) for _ in range(j)])
    inst = Instance(j, m, proc, machine)
    g = build_graph(inst, stochastic_dispatch(inst, rule, noise=noise, seed=seed))
    for kind, pick in [(None, 0), *picks]:
        if kind is not None:
            moves = enumerate_moves(g, kind)
            if not moves:
                continue
            try:
                g = apply_move(g, moves[pick % len(moves)])
            except WouldCreateCycle:
                continue
        assert critical_path(g) == reference_critical_path(g)
        assert ([(b.machine, b.start, b.ops) for b in critical_blocks(g)]
                == reference_critical_blocks(g))
        for op in Operator:
            for mv in enumerate_moves(g, op):
                assert estimate_move(g, mv).estimate == reference_estimate(g, mv), mv


def assert_ls_step_matches_reference(g, op) -> int:
    """ls_step(g, op) against the reference fall-through; returns how many
    CEI cycles the reference rejected before its proposal."""
    result, want = ls_step(g, op), reference_ls_step(g, op)
    if want is None:
        assert isinstance(result, LocalOptimum)
        return 0
    move, est, moved, rejects = want
    assert isinstance(result, Proposal)
    assert (result.move, result.eval.move, result.eval.estimate) == (move, move, est)
    assert result.new_cost == result.graph.makespan == moved.makespan
    assert result.graph.rows == moved.rows
    return rejects


@settings(max_examples=150, deadline=None)
@given(data=st.data(), j=st.integers(1, 7), m=st.integers(1, 6),
       seed=st.integers(0, 10_000),
       walk=st.lists(st.tuples(st.sampled_from(list(Operator)),
                               st.integers(0, 10_000)), max_size=8))
def test_ls_step_matches_the_reference_fall_through(data, j, m, seed, walk):
    # processing times of 0..6 make equal estimates, and so the tie-break by
    # enumeration order, common
    proc = np.array(data.draw(st.lists(st.integers(0, 6), min_size=j * m,
                                       max_size=j * m))).reshape(j, m)
    machine = np.array([data.draw(st.permutations(range(m))) for _ in range(j)])
    inst = Instance(j, m, proc, machine)
    g = build_graph(inst, dispatch(inst, DispatchRule.RND, seed=seed))
    for kind, pick in [(None, 0), *walk]:
        if kind is not None:
            moves = enumerate_moves(g, kind)
            if not moves:
                continue
            try:
                g = apply_move(g, moves[pick % len(moves)])
            except WouldCreateCycle:
                continue
        for op in Operator:
            assert_ls_step_matches_reference(g, op)


def test_ls_step_falls_through_cei_cycles_like_the_reference():
    # schedules whose best-ranked insertions break a job route: ls_step must
    # skip them in the reference's order
    fell_through = 0
    for seed in range(60):
        inst, sol, g = graph_for(seed, j=8, m=4, rule=DispatchRule.RND)
        fell_through += assert_ls_step_matches_reference(g, Operator.CEI) > 0
    assert fell_through >= 3
