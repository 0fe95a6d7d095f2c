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
from typing import Callable, NamedTuple, Optional

import numpy as np


def parse_choice(cls, text: str, what: str,
                 key: Callable[[str], str] = lambda key: key):
    """The member of enum ``cls`` whose value is ``key`` of the stripped,
    lower-cased ``text``; an unknown one raises ValueError naming ``what``."""
    try:
        return cls(key(text.strip().lower()))
    except ValueError:
        raise ValueError(f"unknown {what} {text!r}; expected one of "
                         f"{[member.value for member in cls]}") from None


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


def _int64_array(values, name: str) -> np.ndarray:
    """``values`` as a read-only int64 copy; a value the cast would change (a
    fraction, nan or inf) is refused with a message naming ``name``."""
    given = np.asarray(values)
    with np.errstate(invalid="ignore"):   # nan and inf cast to garbage
        cast = given.astype(np.int64, order="C")
    changed = cast != given
    if np.any(changed):
        raise ValueError(f"{name} must hold integers, got {given[changed][0].item()!r}")
    cast.setflags(write=False)
    return cast


@dataclass(frozen=True, eq=False)
class Instance:
    """Immutable problem data.

    proc[j, k]    processing time of the k-th operation of job j
    machine[j, k] machine visited by the k-th operation of job j

    Both are read-only int64 copies of the arrays given, so the derived
    ``flat_ops``, ``op_ids`` and ``routed`` never go stale and one instance can be
    shared. Equality compares the problem data and ignores the name.
    """

    n_jobs: int
    n_machines: int
    proc: np.ndarray
    machine: np.ndarray
    name: str = ""

    def __post_init__(self):
        proc = _int64_array(self.proc, "proc")
        machine = _int64_array(self.machine, "machine")
        object.__setattr__(self, "proc", proc)
        object.__setattr__(self, "machine", machine)
        shape = (self.n_jobs, self.n_machines)
        if proc.shape != shape or machine.shape != shape:
            raise ValueError(f"expected arrays of shape {shape}, "
                             f"got proc {proc.shape} and machine {machine.shape}")
        if np.any(proc < 0):
            raise ValueError("processing times must be non-negative")
        bad = (np.sort(machine, axis=1) != np.arange(self.n_machines)).any(axis=1)
        if bad.any():
            raise ValueError(f"job {bad.argmax()} route is not a permutation "
                             "of all machines")

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
    def op_ids(self) -> tuple[OpId, ...]:
        """The OpId of each flat op id."""
        return tuple(OpId(*divmod(v, self.n_machines)) for v in range(self.n_ops))

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
    whose ``rows`` hold the same orders as flat op ids.
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


class CriticalBlock(NamedTuple):
    """Maximal run of consecutive critical ops on one machine.

    ``start`` is the index of the first op within that machine's sequence;
    ``ops`` are flat op ids.
    """

    machine: int
    start: int
    ops: tuple[int, ...]


@dataclass
class SearchGraph:
    """Longest-path quantities for one (instance, solution) pair.

    The search state: treated as immutable once built, and applying a move
    builds a fresh graph. ``rows`` is the solution itself, one tuple of flat
    op ids per machine; a moved graph shares its parent's unmoved rows. The
    per-op lists are indexed by flat op id (job * n_machines + pos), with
    two extra virtual slots for the source (id n_ops) and sink (id n_ops +
    1), and hold Python ints for the scalar walkers. Processing times and
    job neighbours are the instance's ``flat_ops``; an op's head (earliest
    start) is ``end[v] - p[v]`` and its tail ``out[v] - p[v]``.
    """

    instance: Instance
    makespan: int
    rows: tuple               # M tuples of flat op ids in machine-sequence order
    mach_pred: list
    mach_succ: list
    topo: list                # real ops in the topological order of the build
    end: list                 # head + p: earliest end times
    out: list                 # tail + p: longest path to the sink, own proc included

    def solution(self) -> Solution:
        """The machine orders as OpId lists."""
        ids = self.instance.op_ids
        return Solution([[ids[v] for v in row] for row in self.rows])


def _checked_rows(instance: Instance, solution) -> tuple:
    """A Solution or an (M, J) order as M tuples of flat op ids.

    Raises MalformedSolutionError unless row k is a permutation of the ops
    routed to machine k.
    """
    J, M = instance.n_jobs, instance.n_machines
    if isinstance(solution, Solution):
        seqs = solution.machine_seq
        if len(seqs) != M:
            raise MalformedSolutionError(
                f"expected {M} machine sequences, got {len(seqs)}")
        # flat ids as Python ints: an op out of range, and every op of a row
        # of the wrong length, becomes the invalid id -1
        order = np.array([[j * M + k if 0 <= j < J and 0 <= k < M else -1
                           for j, k in seq] if len(seq) == J else [-1] * J
                          for seq in seqs], dtype=np.int64).reshape(M, J)
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
    return tuple(map(tuple, order.tolist()))


def build_graph(instance: Instance, solution) -> SearchGraph:
    """Compute heads, tails and the makespan; raises if the solution is infeasible.

    ``solution`` is a Solution or an (M, J) array of flat op ids.
    """
    n = instance.n_ops
    rows = _checked_rows(instance, solution)
    mp, ms = [n] * (n + 2), [n + 1] * (n + 2)    # the virtual source and sink
    for row in rows:
        for u, v in zip(row, row[1:]):
            ms[u], mp[v] = v, u
    return _longest_paths(instance, rows, mp, ms, None, 0, n)


def move_graph(graph: SearchGraph, machine: int, lo: int,
               window: list) -> SearchGraph:
    """Build the graph with ``machine``'s slots from ``lo`` on reordered to
    ``window``; raises CyclicSolutionError if that schedule is infeasible.

    Only the moved row is checked: ``window`` must be a permutation of the
    slots it replaces, which keeps every row a permutation of its routed
    ops. Every arc that changes touches an old window op, and those ops lie
    in order in ``graph.topo``, so only the stretch between them is re-sorted.
    """
    n, row = graph.instance.n_ops, graph.rows[machine]
    hi = lo + len(window)
    if not window or lo < 0 or sorted(window) != sorted(row[lo:hi]):
        raise MalformedSolutionError(f"machine {machine}: the window is not a "
                                     f"permutation of slots {lo} to {hi - 1}")
    rows = (*graph.rows[:machine], (*row[:lo], *window, *row[hi:]),
            *graph.rows[machine + 1:])
    first, last = row[lo], row[hi - 1]
    mp, ms = graph.mach_pred[:], graph.mach_succ[:]
    chain = [mp[first], *window, ms[last]]
    for u, v in zip(chain, chain[1:]):
        ms[u], mp[v] = v, u
    ms[n], mp[n + 1] = n + 1, n    # the virtual source and sink keep theirs
    a = graph.topo.index(first)
    return _longest_paths(graph.instance, rows, mp, ms, graph, a,
                          graph.topo.index(last, a) + 1)


def _longest_paths(instance: Instance, rows: tuple, mp: list, ms: list,
                   parent: Optional[SearchGraph], a: int, b: int) -> SearchGraph:
    """The SearchGraph of machine orders ``rows`` and machine neighbours mp/ms.

    Only positions a..b-1 of ``parent.topo`` are re-sorted, and a cycle can
    only lie among them; the parent's end times before them and out times
    after them are kept. Without a parent every op is sorted and nothing is kept.
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
        end, out = [0] * (n + 2), [0] * (n + 2)
    else:
        end, out = parent.end[:], parent.out[:]

    # Both longest-path passes run on Python ints: indexing lists is several
    # times faster than indexing numpy arrays one scalar at a time. The
    # virtual slots stay 0.
    for v in topo[a:]:
        x, y = end[jp[v]], end[mp[v]]
        end[v] = (x if x > y else y) + pl[v]
    for v in reversed(topo[:b]):
        x, y = out[js[v]], out[ms[v]]
        out[v] = (x if x > y else y) + pl[v]

    # a job's last op ends last in its job, so the makespan is their max
    M = instance.n_machines
    return SearchGraph(instance=instance,
                       makespan=max(end[M - 1:n:M] if M else [], default=0),
                       rows=rows, mach_pred=mp, mach_succ=ms, topo=topo,
                       end=end, out=out)


def critical_path(graph: SearchGraph) -> list[int]:
    """One deterministic critical path of flat op ids, source side first:
    the ops of ``critical_blocks`` in order."""
    return [v for block in critical_blocks(graph) for v in block.ops]


def critical_blocks(graph: SearchGraph) -> list[CriticalBlock]:
    """Walk one deterministic critical path and split it into maximal
    same-machine runs.

    Walking backward from the sink we follow the predecessor with the larger
    head, breaking ties by machine predecessor over job predecessor and then
    by lower op id.  This pins a unique path even when several exist. A
    block closes at each job arc; blocks of length one are kept.
    """
    n = graph.instance.n_ops
    end, cmax = graph.end, graph.makespan
    mp, rows = graph.mach_pred, graph.rows
    p, jp, _, machine = graph.instance.flat_ops
    if not n:
        return []
    # path ends end at the makespan, so their tails are zero; max() keeps the
    # first, i.e. lowest, id among the larger heads
    v = end.index(cmax)
    if end.count(cmax) > 1:
        v = max((u for u in range(v, n) if end[u] == cmax),
                key=lambda u: end[u] - p[u])
    runs, run = [], [v]
    h = end[v] - p[v]
    while h > 0:
        # a virtual predecessor (the source) never continues the path; when
        # both predecessors end at h, the job one has the larger head iff it
        # has the shorter processing time
        u, w = mp[v], jp[v]
        if u < n and end[u] == h and not (w < n and end[w] == h and p[w] < p[u]):
            run.append(u)
        else:
            runs.append(run)
            run = [w]
        v = run[-1]
        h = end[v] - p[v]
    runs.append(run)
    new = tuple.__new__    # a NamedTuple's own constructor costs a Python call
    return [new(CriticalBlock, (machine[r[-1]], rows[machine[r[-1]]].index(r[-1]),
                                tuple(reversed(r)))) for r in reversed(runs)]
