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
    """A machine order has the wrong shape, wrong ops or duplicates.

    The message has one line per bad machine, or one line for a bad shape.
    """


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


@dataclass
class Solution:
    """One processing order per machine.  machine_seq[k] lists ops front to back.

    This is the input and output format; the search carries a SearchGraph,
    whose ``mach_order`` holds the same orders as flat op ids.
    """

    machine_seq: list[list[OpId]]


def validate(instance: Instance, solution) -> list[str]:
    """Return a list of problems; empty means the solution is feasible.

    ``solution`` is a Solution or an (M, J) array of flat op ids. There is one
    problem per malformed machine order, or else at most the cycle problem.
    """
    try:
        build_graph(instance, solution)
    except MalformedSolutionError as exc:
        return str(exc).splitlines()
    except CyclicSolutionError:
        return ["precedence graph is cyclic"]
    return []


@dataclass(frozen=True)
class CriticalBlock:
    """Maximal run of consecutive critical ops on one machine.

    ``start`` is the index of the first op within that machine's sequence;
    ``ops`` are flat op ids.
    """

    machine: int
    start: int
    ops: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.ops)


@dataclass
class SearchGraph:
    """Longest-path quantities for one (instance, solution) pair.

    The search state: treated as immutable once built, and applying a move
    builds a fresh graph. ``mach_order`` is the solution itself and is
    read-only. Arrays are indexed by flat op id (job * n_machines + pos),
    with two extra virtual slots for the source (id n_ops) and sink
    (id n_ops + 1).
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

    def solution(self) -> Solution:
        """The machine orders as OpId lists."""
        M = self.instance.n_machines
        return Solution([[OpId(*divmod(v, M)) for v in row]
                         for row in self.mach_order.tolist()])

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


def _checked_order(instance: Instance, solution) -> np.ndarray:
    """A Solution or an (M, J) order as a read-only (M, J) array of flat op ids.

    Raises MalformedSolutionError unless row k is a permutation of the ops
    routed to machine k.
    """
    J, M = instance.n_jobs, instance.n_machines
    if isinstance(solution, Solution):
        seqs = solution.machine_seq
        if len(seqs) != M:
            raise MalformedSolutionError(
                f"expected {M} machine sequences, got {len(seqs)}")
        # a row of the wrong length becomes a row of invalid ids
        ops = np.array([seq if len(seq) == J else [(-1, -1)] * J for seq in seqs],
                       dtype=np.int64).reshape(M, J, 2)
        job, pos = ops[..., 0], ops[..., 1]
        order = np.where((0 <= job) & (job < J) & (0 <= pos) & (pos < M),
                         job * M + pos, -1)
    else:
        order = np.array(solution, dtype=np.int64)
        if order.shape != (M, J):
            raise MalformedSolutionError(
                f"expected an order of shape {(M, J)}, got {order.shape}")
    routed = np.argsort(instance.machine.reshape(-1), kind="stable").reshape(M, J)
    bad = np.flatnonzero((np.sort(order, axis=1) != routed).any(axis=1))
    if bad.size:
        raise MalformedSolutionError("\n".join(
            f"machine {k}: not a permutation of the {J} ops routed to it"
            for k in bad))
    order.setflags(write=False)
    return order


def build_graph(instance: Instance, solution) -> SearchGraph:
    """Compute heads, tails and the makespan; raises if the solution is infeasible.

    ``solution`` is a Solution or an (M, J) array of flat op ids.
    """
    J, M = instance.n_jobs, instance.n_machines
    n = instance.n_ops
    source, sink = n, n + 1
    seqs = _checked_order(instance, solution)
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

    # Both longest-path passes run on Python ints: indexing lists is several
    # times faster than indexing numpy arrays one scalar at a time.
    # end[v] = head[v] + p[v] and out[v] = tail[v] + p[v]; the virtual slots
    # stay 0.
    pl, jp, mp, js, ms = (a.tolist() for a in
                          (p, job_pred, mach_pred, job_succ, mach_succ))
    # Kahn's algorithm over the real ops: an op is queued once both of its
    # predecessors are done; failure to drain means a cycle.
    done = [False] * (n + 2)
    done[source] = True
    queue = [v for v in range(n) if jp[v] == source and mp[v] == source]
    order = []
    end = [0] * (n + 2)
    while queue:
        v = queue.pop()
        order.append(v)
        done[v] = True
        a, b = end[jp[v]], end[mp[v]]
        end[v] = (a if a > b else b) + pl[v]
        u = js[v]
        if u < n and done[mp[u]]:
            queue.append(u)
        u = ms[v]
        if u < n and done[jp[u]]:
            queue.append(u)
    if len(order) != n:
        raise CyclicSolutionError("machine sequences conflict with job routes")

    out = [0] * (n + 2)
    for v in reversed(order):
        a, b = out[js[v]], out[ms[v]]
        out[v] = (a if a > b else b) + pl[v]

    return SearchGraph(
        instance=instance,
        head=np.array(end, dtype=np.int64) - p,
        tail=np.array(out, dtype=np.int64) - p,
        makespan=max(end[:n], default=0),
        mach_pred=mach_pred,
        mach_succ=mach_succ,
        job_pred=job_pred,
        job_succ=job_succ,
        pos_on_machine=pos_on_machine,
        mach_order=seqs,
    )


def critical_path(graph: SearchGraph) -> list[int]:
    """One deterministic critical path of flat op ids, source side first.

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
    return path[::-1]


def critical_blocks(graph: SearchGraph) -> list[CriticalBlock]:
    """Split the deterministic critical path into maximal same-machine runs.

    Consecutive path ops belong to one block only when they are adjacent in
    that machine's processing order; blocks of length one are kept.
    """
    blocks: list[CriticalBlock] = []
    run: list[int] = []
    for v in critical_path(graph):
        if run and run[-1] == int(graph.mach_pred[v]):
            run.append(v)
        else:
            if run:
                blocks.append(_finish_block(graph, run))
            run = [v]
    if run:
        blocks.append(_finish_block(graph, run))
    return blocks


def _finish_block(graph: SearchGraph, run: list[int]) -> CriticalBlock:
    return CriticalBlock(
        machine=int(graph.instance.machine.flat[run[0]]),
        start=int(graph.pos_on_machine[run[0]]),
        ops=tuple(run),
    )
