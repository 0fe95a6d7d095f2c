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
from typing import Optional, Union

import numpy as np

from .core import CyclicSolutionError, SearchGraph, critical_blocks, move_graph
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
        key = text.strip().lower()
        for op in cls:
            if op.value == key:
                return op
        raise ValueError(
            f"unknown operator {text!r}; expected one of {[o.value for o in cls]}"
        )


# canonical order, also the decode order for action spaces
OPERATOR_ORDER = (Operator.CT, Operator.CET, Operator.ECET, Operator.CEI)


@dataclass(frozen=True)
class Move:
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


@dataclass(frozen=True)
class Perturbation:
    """A diversification request: ``strength`` random CT moves in a row."""

    strength: int = 3

    def __post_init__(self):
        if self.strength < 0:
            raise ValueError("perturbation strength must be >= 0")


@dataclass(frozen=True)
class MoveEval:
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
    for block in critical_blocks(graph):
        m, s, size = block.machine, block.start, len(block)
        if op is Operator.CT:
            for i in range(size - 1):
                moves.append(Move(op, m, s + i, s + i + 1))
        elif op is Operator.CET:
            if size >= 2:
                moves.append(Move(op, m, s, s + 1))
            if size >= 3:
                moves.append(Move(op, m, s + size - 2, s + size - 1))
        elif op is Operator.ECET:
            if size >= 4:
                moves.append(Move(op, m, s, s + size - 2))
        elif op is Operator.CEI:
            for f in range(size):
                for t in range(size):
                    if abs(f - t) >= 2:
                        moves.append(Move(op, m, s + f, s + t))
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
    h, q, p = graph.h, graph.q, graph.p
    jp_u, jp_v = graph.job_pred[u], graph.job_pred[v]
    js_u, js_v = graph.job_succ[u], graph.job_succ[v]
    mp_u, ms_v = graph.mach_pred[u], graph.mach_succ[v]

    h_v = max(h[jp_v] + p[jp_v], h[mp_u] + p[mp_u])
    h_u = max(h[jp_u] + p[jp_u], h_v + p[v])
    q_u = max(q[js_u] + p[js_u], q[ms_v] + p[ms_v])
    q_v = max(q[js_v] + p[js_v], q_u + p[u])
    return max(h_v + p[v] + q_v, h_u + p[u] + q_u)


def _window_estimate(graph: SearchGraph, m: int, lo: int, hi: int,
                     window: list) -> int:
    """Lower bound after reordering machine m's slots lo..hi into ``window``.

    Walks the new order once forward for provisional heads and once backward
    for provisional tails. The machine-boundary values are exact (nothing
    upstream of the window head or downstream of its tail can change). A job
    predecessor's head is trusted only when it is strictly below the head of
    the old first window op: any path through a window op would push it to
    at least that head, so such values cannot be stale. Untrusted
    contributions drop to zero, which only loosens the bound downward.
    Tails mirror the same guard.
    """
    row = graph.rows[m]
    h, q, p = graph.h, graph.q, graph.p
    job_pred, job_succ = graph.job_pred, graph.job_succ
    before = graph.mach_pred[row[lo]]
    after = graph.mach_succ[row[hi]]
    h_min = h[row[lo]]
    q_min = q[row[hi]]

    ready = h[before] + p[before]
    heads = []
    for w in window:
        jp = job_pred[w]
        job_part = h[jp] + p[jp] if h[jp] < h_min else 0
        hw = max(job_part, ready)
        heads.append(hw)
        ready = hw + p[w]

    tail_ready = q[after] + p[after]
    est = 0
    for w, hw in zip(reversed(window), reversed(heads)):
        js = job_succ[w]
        job_part = q[js] + p[js] if q[js] < q_min else 0
        qw = max(job_part, tail_ready)
        est = max(est, hw + p[w] + qw)
        tail_ready = qw + p[w]
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
    window = row[lo: hi + 1]
    window.insert(b - lo, window.pop(a - lo))
    return lo, hi, window


def estimate_move(graph: SearchGraph, move: Move) -> MoveEval:
    """Lower-bound makespan estimate of a move in O(m)."""
    _check_positions(graph, move)
    row = graph.rows[move.machine]
    h, q, p = graph.h, graph.q, graph.p
    for v in (row[move.pos_a], row[move.pos_b]):
        if h[v] + p[v] + q[v] != graph.makespan:
            raise InvalidMove("move no longer lies on a critical block")
    if move.kind in (Operator.CT, Operator.CET):
        est = _pair_estimate(graph, move.machine, move.pos_a)
    else:
        # ECET: neither swapped pair may trust the other's old heads/tails
        est = _window_estimate(graph, move.machine, *_window(graph, move))
    return MoveEval(move=move, estimate=est)


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
    if not moves:
        return LocalOptimum()
    evals = [estimate_move(graph, mv) for mv in moves]
    for k in sorted(range(len(evals)), key=lambda k: (evals[k].estimate, k)):
        try:
            new_graph = apply_move(graph, moves[k])
        except WouldCreateCycle:
            continue
        return Proposal(move=moves[k], eval=evals[k],
                        new_cost=new_graph.makespan, graph=new_graph)
    return LocalOptimum()


def perturb(graph: SearchGraph, pert: Perturbation,
            seed: Optional[Union[int, np.random.Generator]] = None
            ) -> SearchGraph:
    """Apply ``pert.strength`` random CT moves, re-deriving blocks each time.

    Stops early if some intermediate schedule has no CT move. Deterministic
    given the seed (or caller-owned generator).
    """
    rng = np.random.default_rng(seed)
    for _ in range(pert.strength):
        moves = enumerate_moves(graph, Operator.CT)
        if not moves:
            break
        graph = apply_move(graph, moves[int(rng.integers(len(moves)))])
    return graph
