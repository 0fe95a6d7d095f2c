"""Job-shop problem data model and the disjunctive-graph machinery.

An instance is J jobs times M machines where every job visits every machine
exactly once in a fixed technological order.  A solution fixes a processing
order on each machine.  Heads, tails and the makespan are obtained from the
longest-path structure of the directed graph whose arcs are job precedences
plus the chosen machine sequences; a virtual source and sink with zero
processing time keep the recurrences uniform.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np


class OpId(NamedTuple):
    """Operation identity: position ``pos`` of ``job`` in its route."""

    job: int
    pos: int


class MalformedSolutionError(ValueError):
    """A machine sequence has the wrong shape, wrong ops or duplicates."""


class CyclicSolutionError(ValueError):
    """The combined precedence graph contains a cycle (no feasible schedule)."""


@dataclass(frozen=True, eq=False)
class Instance:
    """Immutable problem data.

    proc[j, k]    processing time of the k-th operation of job j
    machine[j, k] machine visited by the k-th operation of job j

    Equality compares the problem data and ignores the name.
    """

    n_jobs: int
    n_machines: int
    proc: np.ndarray
    machine: np.ndarray
    name: str = ""

    def __post_init__(self):
        proc = np.asarray(self.proc, dtype=np.int64)
        machine = np.asarray(self.machine, dtype=np.int64)
        object.__setattr__(self, "proc", proc)
        object.__setattr__(self, "machine", machine)
        shape = (self.n_jobs, self.n_machines)
        if proc.shape != shape or machine.shape != shape:
            raise ValueError(f"expected arrays of shape {shape}, "
                             f"got proc {proc.shape} and machine {machine.shape}")
        if np.any(proc < 0):
            raise ValueError("processing times must be non-negative")
        want = np.arange(self.n_machines)
        for j in range(self.n_jobs):
            if not np.array_equal(np.sort(machine[j]), want):
                raise ValueError(f"job {j} route is not a permutation of all machines")

    @property
    def n_ops(self) -> int:
        return self.n_jobs * self.n_machines

    @property
    def max_proc(self) -> int:
        return int(self.proc.max()) if self.proc.size else 0

    def __eq__(self, other) -> bool:
        if not isinstance(other, Instance):
            return NotImplemented
        return (self.n_jobs == other.n_jobs
                and self.n_machines == other.n_machines
                and np.array_equal(self.proc, other.proc)
                and np.array_equal(self.machine, other.machine))

    def op_index(self, op: OpId) -> int:
        """Flat node id of an operation (job-major)."""
        return op.job * self.n_machines + op.pos

    def op_of_index(self, idx: int) -> OpId:
        return OpId(idx // self.n_machines, idx % self.n_machines)

    def proc_of(self, op: OpId) -> int:
        return int(self.proc[op.job, op.pos])

    def machine_of(self, op: OpId) -> int:
        return int(self.machine[op.job, op.pos])


@dataclass
class Solution:
    """One processing order per machine.  machine_seq[k] lists ops front to back."""

    machine_seq: list[list[OpId]]

    def copy(self) -> "Solution":
        return Solution([list(seq) for seq in self.machine_seq])


def validate(instance: Instance, solution: Solution) -> list[str]:
    """Return a list of problems; empty means the solution is feasible."""
    problems: list[str] = []
    J, M = instance.n_jobs, instance.n_machines
    if len(solution.machine_seq) != M:
        return [f"expected {M} machine sequences, got {len(solution.machine_seq)}"]
    for k, seq in enumerate(solution.machine_seq):
        if len(seq) != J:
            problems.append(f"machine {k}: expected {J} ops, got {len(seq)}")
            continue
        seen = set()
        for op in seq:
            if not (0 <= op.job < J and 0 <= op.pos < M):
                problems.append(f"machine {k}: op {op} out of range")
            elif instance.machine_of(op) != k:
                problems.append(f"machine {k}: op {op} is routed to "
                                f"machine {instance.machine_of(op)}")
            elif op in seen:
                problems.append(f"machine {k}: op {op} appears more than once")
            seen.add(op)
    if problems:
        return problems
    try:
        build_graph(instance, solution)
    except CyclicSolutionError:
        problems.append("precedence graph is cyclic")
    return problems


@dataclass(frozen=True)
class CriticalBlock:
    """Maximal run of consecutive critical ops on one machine.

    ``start`` is the index of the first op within that machine's sequence.
    """

    machine: int
    start: int
    ops: tuple[OpId, ...]

    def __len__(self) -> int:
        return len(self.ops)


@dataclass
class SearchGraph:
    """Longest-path quantities for one (instance, solution) pair.

    Treated as immutable once built; applying a move builds a fresh graph.
    Arrays are indexed by flat op id, with two extra virtual slots for the
    source (id n_ops) and sink (id n_ops + 1).
    """

    instance: Instance
    head: np.ndarray          # earliest start times
    tail: np.ndarray          # longest path to the sink, excluding own proc
    makespan: int
    mach_pred: np.ndarray
    mach_succ: np.ndarray
    job_pred: np.ndarray
    job_succ: np.ndarray
    pos_on_machine: np.ndarray
    mach_order: np.ndarray    # (M, J) flat op ids in machine-sequence order
    _critical: np.ndarray = field(default=None, repr=False)
    _p_ext: np.ndarray = field(default=None, repr=False)

    @property
    def source(self) -> int:
        return self.instance.n_ops

    @property
    def sink(self) -> int:
        return self.instance.n_ops + 1

    def proc_ext(self) -> np.ndarray:
        """Processing times indexed by flat id, zero for the virtual slots."""
        if self._p_ext is None:
            p = np.zeros(self.instance.n_ops + 2, dtype=np.int64)
            p[: self.instance.n_ops] = self.instance.proc.reshape(-1)
            self._p_ext = p
        return self._p_ext

    @property
    def critical_mask(self) -> np.ndarray:
        """Boolean mask over flat op ids: h + p + q == makespan."""
        if self._critical is None:
            p = self.instance.proc.reshape(-1)
            n = self.instance.n_ops
            self._critical = self.head[:n] + p + self.tail[:n] == self.makespan
        return self._critical


def _flat_sequences(instance: Instance, solution: Solution) -> np.ndarray:
    """machine_seq as an (M, J) array of flat op ids; raises on malformed input."""
    J, M = instance.n_jobs, instance.n_machines
    if len(solution.machine_seq) != M:
        raise MalformedSolutionError(
            f"expected {M} machine sequences, got {len(solution.machine_seq)}")
    seqs = np.empty((M, J), dtype=np.int64)
    for k, seq in enumerate(solution.machine_seq):
        if len(seq) != J:
            raise MalformedSolutionError(f"machine {k}: expected {J} ops, got {len(seq)}")
        for i, op in enumerate(seq):
            if not (0 <= op.job < J and 0 <= op.pos < M) or instance.machine_of(op) != k:
                raise MalformedSolutionError(f"machine {k}: bad op {op}")
            seqs[k, i] = instance.op_index(op)
        if len({int(v) for v in seqs[k]}) != J:
            raise MalformedSolutionError(f"machine {k}: duplicate ops")
    return seqs


def build_graph(instance: Instance, solution: Solution) -> SearchGraph:
    """Compute heads, tails and the makespan; raises if the solution is infeasible."""
    J, M = instance.n_jobs, instance.n_machines
    n = instance.n_ops
    source, sink = n, n + 1
    seqs = _flat_sequences(instance, solution)
    p = np.zeros(n + 2, dtype=np.int64)
    p[:n] = instance.proc.reshape(-1)

    job_pred = np.full(n + 2, source, dtype=np.int64)
    job_succ = np.full(n + 2, sink, dtype=np.int64)
    ids = np.arange(n).reshape(J, M)
    job_pred[ids[:, 1:].reshape(-1)] = ids[:, :-1].reshape(-1)
    job_succ[ids[:, :-1].reshape(-1)] = ids[:, 1:].reshape(-1)

    mach_pred = np.full(n + 2, source, dtype=np.int64)
    mach_succ = np.full(n + 2, sink, dtype=np.int64)
    mach_pred[seqs[:, 1:].reshape(-1)] = seqs[:, :-1].reshape(-1)
    mach_succ[seqs[:, :-1].reshape(-1)] = seqs[:, 1:].reshape(-1)

    pos_on_machine = np.zeros(n, dtype=np.int64)
    pos_on_machine[seqs.reshape(-1)] = np.tile(np.arange(J), M)

    # Kahn's algorithm over the real ops; failure to drain means a cycle.
    indeg = (job_pred[:n] != source).astype(np.int64) + (mach_pred[:n] != source)
    order = np.empty(n, dtype=np.int64)
    queue = list(np.flatnonzero(indeg == 0))
    head = np.zeros(n + 2, dtype=np.int64)
    count = 0
    while queue:
        v = int(queue.pop())
        order[count] = v
        count += 1
        jp, mp = int(job_pred[v]), int(mach_pred[v])
        head[v] = max(head[jp] + p[jp], head[mp] + p[mp])
        for u in (int(job_succ[v]), int(mach_succ[v])):
            if u < n:
                indeg[u] -= 1
                if indeg[u] == 0:
                    queue.append(u)
    if count != n:
        raise CyclicSolutionError("machine sequences conflict with job routes")

    tail = np.zeros(n + 2, dtype=np.int64)
    for v in order[::-1]:
        js, ms = int(job_succ[v]), int(mach_succ[v])
        tail[v] = max(tail[js] + p[js], tail[ms] + p[ms])
    makespan = int((head[:n] + p[:n]).max()) if n else 0

    return SearchGraph(
        instance=instance,
        head=head,
        tail=tail,
        makespan=makespan,
        mach_pred=mach_pred,
        mach_succ=mach_succ,
        job_pred=job_pred,
        job_succ=job_succ,
        pos_on_machine=pos_on_machine,
        mach_order=seqs,
    )


def critical_path(graph: SearchGraph) -> list[OpId]:
    """One deterministic critical path, source side first.

    Walking backward from the sink we follow the predecessor with the larger
    head, breaking ties by machine predecessor over job predecessor and then
    by lower op id.  This pins a unique path even when several exist.
    """
    inst = graph.instance
    n = inst.n_ops
    if n == 0:
        return []
    p = inst.proc.reshape(-1)
    finish = graph.head[:n] + p
    ends = np.flatnonzero(finish == graph.makespan)
    # all path ends have zero tail; pick by larger head, then lower op id
    v = int(min(ends, key=lambda i: (-int(graph.head[i]), int(i))))
    path = [v]
    while graph.head[v] > 0:
        best = None
        for u, is_mach in ((int(graph.mach_pred[v]), True), (int(graph.job_pred[v]), False)):
            if u >= n:
                continue
            if graph.head[u] + p[u] != graph.head[v]:
                continue
            key = (-int(graph.head[u]), 0 if is_mach else 1, u)
            if best is None or key < best[0]:
                best = (key, u)
        v = best[1]
        path.append(v)
    return [inst.op_of_index(i) for i in reversed(path)]


def critical_blocks(graph: SearchGraph) -> list[CriticalBlock]:
    """Split the deterministic critical path into maximal same-machine runs.

    Consecutive path ops belong to one block only when they are adjacent in
    that machine's processing order; blocks of length one are kept.
    """
    inst = graph.instance
    path = critical_path(graph)
    blocks: list[CriticalBlock] = []
    run: list[OpId] = []
    for op in path:
        if run and inst.op_index(run[-1]) == int(graph.mach_pred[inst.op_index(op)]):
            run.append(op)
        else:
            if run:
                blocks.append(_finish_block(graph, run))
            run = [op]
    if run:
        blocks.append(_finish_block(graph, run))
    return blocks


def _finish_block(graph: SearchGraph, run: list[OpId]) -> CriticalBlock:
    inst = graph.instance
    first = inst.op_index(run[0])
    return CriticalBlock(
        machine=inst.machine_of(run[0]),
        start=int(graph.pos_on_machine[first]),
        ops=tuple(run),
    )
