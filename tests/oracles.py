"""Independent reference implementations used to cross-check the package.

Everything here is written against the problem definition only: no graph, no
heads/tails, no incremental updates. Slow and simple on purpose.
"""
from __future__ import annotations

from itertools import permutations, product

import numpy as np

from jobshopls.core import Instance, OpId, Solution


def simulate_starts(instance: Instance, solution: Solution):
    """Start times by direct schedule construction, as a (J, M) array.

    Repeatedly starts any operation whose job predecessor is finished and
    which is next in its machine's processing order; its start time is the
    max of the two release times. Returns None when no operation can start
    (the machine orders conflict with the job routes).
    """
    J, M = instance.n_jobs, instance.n_machines
    start = np.zeros((J, M), dtype=np.int64)
    job_next = [0] * J
    mach_next = [0] * M
    job_free = [0] * J
    mach_free = [0] * M
    remaining = J * M
    while remaining:
        progressed = False
        for k in range(M):
            while mach_next[k] < len(solution.machine_seq[k]):
                op = solution.machine_seq[k][mach_next[k]]
                if op.pos != job_next[op.job]:
                    break
                start[op.job, op.pos] = max(job_free[op.job], mach_free[k])
                end = int(start[op.job, op.pos] + instance.proc[op.job, op.pos])
                job_free[op.job] = end
                mach_free[k] = end
                job_next[op.job] += 1
                mach_next[k] += 1
                remaining -= 1
                progressed = True
        if not progressed:
            return None
    return start


def simulate_makespan(instance: Instance, solution: Solution):
    """Makespan by direct schedule construction, or None on deadlock."""
    start = simulate_starts(instance, solution)
    if start is None:
        return None
    return int((start + instance.proc).max(initial=0))


def simulate_heads_tails(instance: Instance, solution: Solution):
    """Heads and tails as flat-id arrays of length J * M, or None on deadlock.

    Heads are the simulated start times. Tails are the start times in the
    mirrored problem, where every job route and every machine order runs
    backwards: the longest path from an op to the end, excluding the op.
    """
    J, M = instance.n_jobs, instance.n_machines
    mirror = Instance(J, M, instance.proc[:, ::-1], instance.machine[:, ::-1])
    mirrored = Solution([[OpId(op.job, M - 1 - op.pos) for op in reversed(seq)]
                         for seq in solution.machine_seq])
    head = simulate_starts(instance, solution)
    tail = simulate_starts(mirror, mirrored)
    if head is None or tail is None:
        return None
    return head.reshape(-1), tail[:, ::-1].reshape(-1)


def brute_force_optimum(instance: Instance):
    """Minimum makespan over every combination of machine permutations.

    Only viable for tiny instances: a 3x3 has 6**3 = 216 combinations.
    Cyclic combinations are skipped.
    """
    J, M = instance.n_jobs, instance.n_machines
    on_machine = [[] for _ in range(M)]
    for j in range(J):
        for k in range(M):
            on_machine[int(instance.machine[j, k])].append(OpId(j, k))
    best = None
    for combo in product(*(permutations(ops) for ops in on_machine)):
        cost = simulate_makespan(instance, Solution([list(s) for s in combo]))
        if cost is not None and (best is None or cost < best):
            best = cost
    return best


def apply_move_to_sequences(solution: Solution, move) -> Solution:
    """Re-derive a move's effect from its published definition alone."""
    from jobshopls.neighborhood import Operator

    seqs = [list(s) for s in solution.machine_seq]
    seq = seqs[move.machine]
    if move.kind in (Operator.CT, Operator.CET):
        seq[move.pos_a], seq[move.pos_b] = seq[move.pos_b], seq[move.pos_a]
    elif move.kind is Operator.ECET:
        seq[move.pos_a], seq[move.pos_a + 1] = seq[move.pos_a + 1], seq[move.pos_a]
        seq[move.pos_b], seq[move.pos_b + 1] = seq[move.pos_b + 1], seq[move.pos_b]
    else:
        op = seq.pop(move.pos_a)
        seq.insert(move.pos_b, op)
    return Solution(seqs)


def exact_move_cost(instance: Instance, solution: Solution, move):
    """Post-move makespan by full reconstruction, or None if infeasible."""
    return simulate_makespan(instance, apply_move_to_sequences(solution, move))


def dense_chain_adjacency(chains, n: int):
    """n x n 0/1 matrix linking consecutive entries of each chain, both ways.

    The reference for the Q-network's message sum over one edge set: node i
    receives row i of ``A @ h``. Built one link at a time from plain lists.
    """
    a = np.zeros((n, n))
    for chain in chains:
        chain = [int(v) for v in chain]
        for u, v in zip(chain[:-1], chain[1:]):
            a[u, v] = a[v, u] = 1.0
    return a
