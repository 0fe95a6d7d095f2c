"""Job-shop problem data model and the disjunctive-graph machinery.

An instance is J jobs times M machines where every job visits every machine
exactly once in a fixed technological order.  A solution fixes a processing
order on each machine.  Heads, tails and the makespan are obtained from the
longest-path structure of the directed graph whose arcs are job precedences
plus the chosen machine sequences; a virtual source and sink with zero
processing time keep the recurrences uniform.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Optional

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

    @cached_property
    def flat_ops(self) -> tuple[tuple[int, ...], ...]:
        """Processing time, job predecessor, job successor and machine of each
        flat op id (job * n_machines + pos) as Python ints. The first three
        also cover the graph's virtual source (id n_ops) and sink (n_ops + 1).
        """
        M, n = self.n_machines, self.n_ops
        source, sink = n, n + 1
        return (tuple(self.proc.reshape(-1).tolist()) + (0, 0),
                tuple(v - 1 if v % M else source for v in range(n)) + (source, source),
                tuple(v + 1 if (v + 1) % M else sink for v in range(n)) + (sink, sink),
                tuple(self.machine.reshape(-1).tolist()))

    @cached_property
    def routed(self) -> np.ndarray:
        """Read-only (M, J) flat op ids routed to each machine, in job order."""
        routed = np.argsort(self.machine.reshape(-1), kind="stable")
        routed.setflags(write=False)
        return routed.reshape(self.n_machines, self.n_jobs)

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
    read-only. The per-op lists are indexed by flat op id
    (job * n_machines + pos), with two extra virtual slots for the source
    (id n_ops) and sink (id n_ops + 1); the scalar walkers read them as
    Python ints, and the numpy views are derived on first use.
    """

    instance: Instance
    makespan: int
    mach_order: np.ndarray    # (M, J) flat op ids in machine-sequence order
    h: list                   # heads: earliest start times
    q: list                   # tails: longest path to the sink, excluding own proc
    p: tuple                  # processing times, zero for the virtual slots
    job_pred: tuple
    job_succ: tuple
    mach_pred: list
    mach_succ: list
    topo: list                # real ops in the topological order of the build
    end: list                 # h + p
    out: list                 # q + p

    def solution(self) -> Solution:
        """The machine orders as OpId lists."""
        M = self.instance.n_machines
        return Solution([[OpId(*divmod(v, M)) for v in row] for row in self.rows])

    @cached_property
    def rows(self) -> list[list[int]]:
        """``mach_order`` as Python lists."""
        return self.mach_order.tolist()

    @cached_property
    def head(self) -> np.ndarray:
        return np.array(self.h, dtype=np.int64)

    @cached_property
    def tail(self) -> np.ndarray:
        return np.array(self.q, dtype=np.int64)

    @cached_property
    def pos_on_machine(self) -> np.ndarray:
        """Index of each op within its machine's sequence."""
        J, M = self.instance.n_jobs, self.instance.n_machines
        pos = np.empty(self.instance.n_ops, dtype=np.int64)
        pos[self.mach_order.reshape(-1)] = np.tile(np.arange(J), M)
        return pos

    @cached_property
    def critical_mask(self) -> np.ndarray:
        """Boolean mask over flat op ids: h + p + q == makespan."""
        n = self.instance.n_ops
        p = self.instance.proc.reshape(-1)
        return self.head[:n] + p + self.tail[:n] == self.makespan


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
    bad = np.flatnonzero((np.sort(order, axis=1) != instance.routed).any(axis=1))
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
    n = instance.n_ops
    seqs = _checked_order(instance, solution)
    mach_pred = np.full(n + 2, n, dtype=np.int64)      # the virtual source
    mach_succ = np.full(n + 2, n + 1, dtype=np.int64)  # the virtual sink
    mach_pred[seqs[:, 1:].reshape(-1)] = seqs[:, :-1].reshape(-1)
    mach_succ[seqs[:, :-1].reshape(-1)] = seqs[:, 1:].reshape(-1)
    return _longest_paths(instance, seqs, mach_pred.tolist(), mach_succ.tolist(),
                          None, 0, n)


def move_graph(graph: SearchGraph, machine: int, lo: int,
               window: list) -> SearchGraph:
    """Build the graph with ``machine``'s slots from ``lo`` on reordered to
    ``window``; raises CyclicSolutionError if that schedule is infeasible.

    Every arc that changes touches an old window op, and those ops lie in
    order in ``graph.topo``, so only the stretch between them is re-sorted.
    """
    n = graph.instance.n_ops
    first, last = graph.rows[machine][lo], graph.rows[machine][lo + len(window) - 1]
    order = graph.mach_order.copy()
    order[machine, lo:lo + len(window)] = window
    seqs = _checked_order(graph.instance, order)
    mp, ms = graph.mach_pred[:], graph.mach_succ[:]
    chain = [mp[first], *window, ms[last]]
    for u, v in zip(chain, chain[1:]):
        ms[u], mp[v] = v, u
    ms[n], mp[n + 1] = n + 1, n    # the virtual source and sink keep theirs
    a = graph.topo.index(first)
    return _longest_paths(graph.instance, seqs, mp, ms, graph, a,
                          graph.topo.index(last, a) + 1)


def _longest_paths(instance: Instance, seqs: np.ndarray, mp: list, ms: list,
                   parent: Optional[SearchGraph], a: int, b: int) -> SearchGraph:
    """The SearchGraph of machine orders ``seqs`` and machine neighbours mp/ms.

    Only positions a..b-1 of ``parent.topo`` are re-sorted, and a cycle can
    only lie among them; the parent's heads before them and tails after them
    are kept. Without a parent every op is sorted and nothing is kept.
    """
    n = instance.n_ops
    pl, jp, js, _ = instance.flat_ops
    topo = list(range(n)) if parent is None else parent.topo

    # Kahn's algorithm over the slice: an op is queued once both of its
    # predecessors are done (all outside the slice are); a cycle stops it.
    part = topo[a:b]
    done = [True] * (n + 2)
    for v in part:
        done[v] = False
    queue = [v for v in part if done[jp[v]] and done[mp[v]]]
    resorted = []
    while queue:
        v = queue.pop()
        resorted.append(v)
        done[v] = True
        u = js[v]
        if not done[u] and done[mp[u]]:
            queue.append(u)
        u = ms[v]
        if not done[u] and done[jp[u]]:
            queue.append(u)
    if len(resorted) != b - a:
        raise CyclicSolutionError("machine sequences conflict with job routes")
    topo = topo[:a] + resorted + topo[b:]
    if parent is None:
        head, end, tail, out = ([0] * (n + 2) for _ in range(4))
    else:
        head, end, tail, out = parent.h[:], parent.end[:], parent.q[:], parent.out[:]

    # Both longest-path passes run on Python ints: indexing lists is several
    # times faster than indexing numpy arrays one scalar at a time. The
    # virtual slots stay 0.
    for v in topo[a:]:
        x, y = end[jp[v]], end[mp[v]]
        x = x if x > y else y
        head[v] = x
        end[v] = x + pl[v]
    for v in reversed(topo[:b]):
        x, y = out[js[v]], out[ms[v]]
        x = x if x > y else y
        tail[v] = x
        out[v] = x + pl[v]

    return SearchGraph(instance=instance, makespan=max(end[:n], default=0),
                       mach_order=seqs, h=head, q=tail, p=pl, job_pred=jp,
                       job_succ=js, mach_pred=mp, mach_succ=ms, topo=topo,
                       end=end, out=out)


def critical_path(graph: SearchGraph) -> list[int]:
    """One deterministic critical path of flat op ids, source side first.

    Walking backward from the sink we follow the predecessor with the larger
    head, breaking ties by machine predecessor over job predecessor and then
    by lower op id.  This pins a unique path even when several exist.
    """
    n = graph.instance.n_ops
    h, q, p, cmax = graph.h, graph.q, graph.p, graph.makespan
    mp, jp = graph.mach_pred, graph.job_pred
    # path ends have zero tail; max() keeps the first, i.e. lowest, id among
    # the larger heads
    ends = [v for v in range(n) if q[v] == 0 and h[v] + p[v] == cmax]
    if not ends:
        return []
    v = max(ends, key=h.__getitem__)
    path = [v]
    while h[v] > 0:
        # a virtual predecessor (the source) never continues the path
        u, w = mp[v], jp[v]
        mach = u < n and h[u] + p[u] == h[v]
        job = w < n and h[w] + p[w] == h[v]
        v = u if mach and not (job and h[w] > h[u]) else w
        path.append(v)
    return path[::-1]


def critical_blocks(graph: SearchGraph) -> list[CriticalBlock]:
    """Split the deterministic critical path into maximal same-machine runs.

    Consecutive path ops belong to one block only when they are adjacent in
    that machine's processing order; blocks of length one are kept.
    """
    mp, rows = graph.mach_pred, graph.rows
    *_, machine = graph.instance.flat_ops
    runs: list[list[int]] = []
    for v in critical_path(graph):
        if runs and runs[-1][-1] == mp[v]:
            runs[-1].append(v)
        else:
            runs.append([v])
    return [CriticalBlock(machine[r[0]], rows[machine[r[0]]].index(r[0]), tuple(r))
            for r in runs]
