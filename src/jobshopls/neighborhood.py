"""Critical-block neighborhood operators and the controllable LS step.

Four operators generate candidate moves from the critical blocks of the
current schedule:

* CT   - swap every adjacent pair inside a block,
* CET  - swap only the first pair and the last pair of a block,
* ECET - swap the first and the last pair simultaneously (blocks of 4+),
* CEI  - move one op to another slot of its block (at least 2 apart,
         adjacent slots are already covered by CT).

Each move gets an O(m) makespan estimate from provisional heads and tails;
``ls_step`` builds the graph of the best-estimate move and reports its exact
cost, while accept/revert stays with the caller, which keeps either that
graph or its own.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import NamedTuple, Optional, Union

import numpy as np

from .core import (CyclicSolutionError, SearchGraph, critical_blocks, move_graph,
                   parse_choice)
# not called here, but perfbench/tracing.py patches neighborhood.build_graph
# and fails on a name it cannot find
from .core import build_graph  # noqa: F401


class InvalidMove(ValueError):
    """The move does not fit the current schedule."""


class WouldCreateCycle(RuntimeError):
    """Applying the move would make the schedule infeasible (CEI only)."""


class Operator(enum.Enum):
    """The operator set the controllers and policies pick from."""

    CT = "ct"
    CET = "cet"
    ECET = "ecet"
    CEI = "cei"

    @classmethod
    def parse(cls, text: str) -> "Operator":
        return parse_choice(cls, text, "operator")


# canonical order, also the decode order for action spaces
OPERATOR_ORDER = tuple(Operator)


class Move(NamedTuple):
    """One candidate modification of a single machine sequence.

    Position semantics depend on ``kind``:
    CT/CET swap the ops at (pos_a, pos_a + 1); ``pos_b`` is pos_a + 1.
    ECET swaps the pairs starting at pos_a and at pos_b simultaneously.
    CEI removes the op at pos_a and reinserts it at pos_b.
    """

    kind: Operator
    machine: int
    pos_a: int
    pos_b: int


class MoveEval(NamedTuple):
    move: Move
    estimate: int


@dataclass
class Proposal:
    """Result of one ls_step: the applied move and its exact outcome."""

    move: Move
    eval: MoveEval
    new_cost: int
    graph: SearchGraph


class LocalOptimum:
    """Marker: the operator's neighborhood is empty, nothing was changed."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "LocalOptimum()"


def enumerate_moves(graph: SearchGraph, op: Operator) -> list[Move]:
    """All candidate moves of one operator on the current critical blocks."""
    moves: list[Move] = []
    new = tuple.__new__    # a NamedTuple's own constructor costs a Python call
    for m, s, ops in critical_blocks(graph):
        size = len(ops)
        if size < 2:       # no operator moves a single op
            continue
        if op is Operator.CT:
            moves += [new(Move, (op, m, i, i + 1)) for i in range(s, s + size - 1)]
        elif op is Operator.CET:
            moves.append(new(Move, (op, m, s, s + 1)))
            if size >= 3:
                moves.append(new(Move, (op, m, s + size - 2, s + size - 1)))
        elif op is Operator.ECET and size >= 4:
            moves.append(new(Move, (op, m, s, s + size - 2)))
        elif op is Operator.CEI:
            slots = range(s, s + size)
            moves += [new(Move, (op, m, f, t)) for f in slots for t in slots
                      if abs(f - t) >= 2]
    return moves


def _check_positions(graph: SearchGraph, move: Move):
    J = graph.instance.n_jobs
    m, a, b = move.machine, move.pos_a, move.pos_b
    if not 0 <= m < graph.instance.n_machines:
        raise InvalidMove(f"machine {m} out of range")
    if move.kind in (Operator.CT, Operator.CET):
        if not (0 <= a < J - 1 and b == a + 1):
            raise InvalidMove(f"bad adjacent pair ({a}, {b})")
    elif move.kind is Operator.ECET:
        if not (0 <= a and a + 2 <= b and b + 1 < J):
            raise InvalidMove(f"bad pair-of-pairs ({a}, {b})")
    else:
        if not (0 <= a < J and 0 <= b < J and abs(a - b) >= 2):
            raise InvalidMove(f"bad insertion ({a}, {b})")


def _pair_estimate(graph: SearchGraph, m: int, i: int) -> int:
    """Post-swap longest path through the adjacent pair at (i, i+1).

    Exact for a single swap: heads upstream and tails downstream of the
    pair cannot change, so this is the classical O(1) evaluation.
    """
    u, v = graph.rows[m][i: i + 2]
    end, out = graph.end, graph.out
    p, job_pred, job_succ, _ = graph.instance.flat_ops
    # v now runs first: its new end, then u's; u's new tail, then v's
    x, y = end[job_pred[v]], end[graph.mach_pred[u]]
    e_v = (x if x > y else y) + p[v]
    x = end[job_pred[u]]
    e_u = (x if x > e_v else e_v) + p[u]
    x, y = out[job_succ[u]], out[graph.mach_succ[v]]
    q_u = x if x > y else y
    x, y = out[job_succ[v]], q_u + p[u]
    x, y = e_v + (x if x > y else y), e_u + q_u
    return x if x > y else y


def _window_estimate(graph: SearchGraph, m: int, lo: int, hi: int,
                     window: list) -> int:
    """Lower bound after reordering machine m's slots lo..hi into ``window``.

    Walks the new order once forward for provisional end times and once
    backward for provisional out times. The machine-boundary values are
    exact (nothing upstream of the window head or downstream of its tail can
    change). A job predecessor's end is trusted only when its head is
    strictly below the head of the old first window op: any path through a
    window op would push it to at least that head, so such values cannot be
    stale. Untrusted contributions drop to zero, which only loosens the
    bound downward. Tails mirror the same guard.
    """
    row = graph.rows[m]
    end, out = graph.end, graph.out
    p, job_pred, job_succ, _ = graph.instance.flat_ops
    first, last = row[lo], row[hi]
    h_min = end[first] - p[first]
    q_min = out[last] - p[last]

    ready = end[graph.mach_pred[first]]
    ends = []
    for w in window:
        u = job_pred[w]
        x = end[u]
        if x > ready and x - p[u] < h_min:
            ready = x
        ready += p[w]
        ends.append(ready)

    tail = out[graph.mach_succ[last]]
    est = 0
    for w, e in zip(reversed(window), reversed(ends)):
        u = job_succ[w]
        x = out[u]
        if x > tail and x - p[u] < q_min:
            tail = x
        x = e + tail
        if x > est:
            est = x
        tail += p[w]
    return est


def _window(graph: SearchGraph, move: Move) -> tuple[int, int, list]:
    """The machine slots lo..hi that ``move`` reorders, and their new order."""
    row = graph.rows[move.machine]
    a, b = move.pos_a, move.pos_b
    if move.kind in (Operator.CT, Operator.CET):
        return a, a + 1, [row[a + 1], row[a]]
    if move.kind is Operator.ECET:
        return a, b + 1, [row[a + 1], row[a], *row[a + 2: b], row[b + 1], row[b]]
    lo, hi = (a, b) if a < b else (b, a)
    window = list(row[lo: hi + 1])
    window.insert(b - lo, window.pop(a - lo))
    return lo, hi, window


def _estimate(graph: SearchGraph, move: Move) -> int:
    """A move's estimate as a plain int, unchecked."""
    if move.kind in (Operator.CT, Operator.CET):
        return _pair_estimate(graph, move.machine, move.pos_a)
    # ECET: neither swapped pair may trust the other's old heads/tails
    return _window_estimate(graph, move.machine, *_window(graph, move))


def estimate_move(graph: SearchGraph, move: Move) -> MoveEval:
    """Lower-bound makespan estimate of a move in O(m), checked to fit the
    graph and to lie on a critical block (``ls_step`` scores its own)."""
    _check_positions(graph, move)
    row = graph.rows[move.machine]
    end, out, p = graph.end, graph.out, graph.instance.flat_ops[0]
    for v in (row[move.pos_a], row[move.pos_b]):
        if end[v] + out[v] - p[v] != graph.makespan:
            raise InvalidMove("move no longer lies on a critical block")
    return MoveEval(move=move, estimate=_estimate(graph, move))


def apply_move(graph: SearchGraph, move: Move) -> SearchGraph:
    """Build the graph of the schedule with ``move`` applied.

    CEI insertions can break feasibility; those raise WouldCreateCycle.
    Adjacent swaps of critical pairs cannot create cycles, so any cycle
    there propagates as a hard error.
    """
    _check_positions(graph, move)
    lo, _, window = _window(graph, move)
    try:
        return move_graph(graph, move.machine, lo, window)
    except CyclicSolutionError:
        if move.kind is not Operator.CEI:
            raise
        raise WouldCreateCycle(
            f"insertion {move.pos_a}->{move.pos_b} on machine {move.machine} "
            "breaks a job route") from None


def ls_step(graph: SearchGraph, op: Operator) -> Union[Proposal, LocalOptimum]:
    """Propose the best-estimate move of one operator.

    Ties go to enumeration order. Infeasible CEI insertions fall through to
    the next-best candidate. Returns LocalOptimum when no move exists (or
    every candidate is infeasible). ``graph`` itself is never changed, so
    the caller accepts by taking the proposal's graph and rejects by
    keeping its own.
    """
    moves = enumerate_moves(graph, op)
    # the moves lie on critical blocks by construction: score them unchecked
    if op is Operator.CT or op is Operator.CET:
        ests = [_pair_estimate(graph, mv[1], mv[2]) for mv in moves]
    else:
        ests = [_estimate(graph, mv) for mv in moves]
    # a stable sort: ties go to enumeration order
    for k in sorted(range(len(ests)), key=ests.__getitem__):
        try:
            new_graph = apply_move(graph, moves[k])
        except WouldCreateCycle:
            continue
        return Proposal(move=moves[k], eval=MoveEval(moves[k], ests[k]),
                        new_cost=new_graph.makespan, graph=new_graph)
    return LocalOptimum()


def perturb(graph: SearchGraph, strength: int,
            seed: Optional[Union[int, np.random.Generator]] = None
            ) -> SearchGraph:
    """Apply ``strength`` random CT moves, re-deriving blocks each time.

    Stops early if some intermediate schedule has no CT move. Deterministic
    given the seed (or caller-owned generator).
    """
    if strength < 0:
        raise ValueError("perturbation strength must be >= 0")
    rng = np.random.default_rng(seed)
    for _ in range(strength):
        moves = enumerate_moves(graph, Operator.CT)
        if not moves:
            break
        graph = apply_move(graph, moves[int(rng.integers(len(moves)))])
    return graph
