"""Priority-dispatching-rule construction of initial solutions.

Schedules are built non-delay: simulating the shop in event time, whenever
a machine is free and a job waits in its queue, the lowest-index such
machine at once pulls the waiting job with the best (lowest) score. Scores
use processing times scaled by the largest (by 1 when all are zero) in
single precision, which pins a reproducible order for equal raw scores;
remaining ties go to the lower job index.

Event times are absolute float64 clocks. Each scaled duration is a float32
in [0, 1], so each clock and FIFO score is a multiple of one power of two no
larger than the sum of all durations. Float64 thus holds them exactly, and
resolves simultaneous completions reproducibly, while n_ops * P / p_min <=
2**29 for the largest and smallest nonzero processing times P and p_min
(Taillard's 1..99 on 2,000 ops: about 2**17.6).
"""
from __future__ import annotations

import bisect
import enum
import heapq
from typing import Optional, Union

import numpy as np

from .core import Instance, OpId, Solution, parse_choice


class DispatchRule(enum.Enum):
    """The seven dispatching rules of the benchmark table."""

    RND = "rnd"
    FIFO = "fifo"
    SPT = "spt"
    MWKR = "mwkr"
    MOPNR = "mopnr"
    FDD = "fdd"
    FDD_over_MWKR = "fdd/mwkr"

    @classmethod
    def parse(cls, text: str) -> "DispatchRule":
        # the key also maps each member name to its value: fdd_over_mwkr
        return parse_choice(cls, text, "dispatch rule",
                            lambda key: key.replace("-", "/").replace("_over_", "/"))


def dispatch(instance: Instance, rule: DispatchRule,
             seed: Optional[int] = None) -> Solution:
    """Build a complete solution with one dispatching rule.

    Deterministic for every rule except RND, where ``seed`` fixes the
    random scores.
    """
    return _run(instance, rule, np.random.default_rng(seed), noise=0.0)


def stochastic_dispatch(instance: Instance, rule: DispatchRule,
                        noise: float = 1.0,
                        seed: Optional[Union[int, np.random.Generator]] = None
                        ) -> Solution:
    """Randomized variant used for restarts.

    At each dispatch step with at least three candidates waiting, with
    probability ``noise`` the job is drawn uniformly from the three
    best-scored ones; otherwise the best is taken. Deterministic given
    ``seed``; a Generator is drawn from, not copied.
    """
    if not 0.0 <= noise <= 1.0:
        raise ValueError(f"noise must be in [0, 1], got {noise}")
    return _run(instance, rule, np.random.default_rng(seed), noise=noise)


def _run(instance: Instance, rule: DispatchRule,
         rng: np.random.Generator, noise: float) -> Solution:
    J, M = instance.n_jobs, instance.n_machines
    if J == 0 or M == 0:   # no ops, and no duration to scale by
        return Solution([[] for _ in range(M)])
    mach = instance.machine.tolist()

    # single-precision scaled durations drive scoring and event order; an
    # instance whose durations are all zero is scaled by 1
    dur32 = instance.proc.astype(np.single)
    dur_n = dur32 / float(dur32.max() or 1.0)
    cum_n = dur_n.cumsum(-1)
    rem_n = np.fliplr(np.fliplr(dur_n).cumsum(-1))
    # score of each job's k-th op while it waits, lower is dispatched first;
    # a job whose durations are all zero scores 0/0 = nan under FDD/MWKR
    with np.errstate(divide="ignore", invalid="ignore"):
        table = {
            DispatchRule.SPT: dur_n,
            DispatchRule.MWKR: -rem_n,
            DispatchRule.MOPNR: np.broadcast_to(
                -(M - np.arange(M)).astype(np.single), (J, M)),
            DispatchRule.FDD: cum_n,
            DispatchRule.FDD_over_MWKR: cum_n / rem_n,
        }.get(rule)
    nan_first = table is not None and bool(np.isnan(table).any())
    table = None if table is None else table.tolist()
    dtype = None if table is None else np.single
    dur = dur_n.tolist()

    # busy: heap of (end clock, machine) of the running ops; run_job[i]: the
    # job on machine i, -1 if idle; since[j]: the clock job j joined its
    # queue at. Queues list jobs, ready the idle machines with one, ascending.
    queue = [[] for _ in range(M)]
    for j in range(J):
        queue[mach[j][0]].append(j)
    ready = [i for i in range(M) if queue[i]]
    busy, now = [], 0.0
    run_job, since, next_pos = [-1] * M, [0.0] * J, [0] * J
    partial = [[] for _ in range(M)]
    for _ in range(J * M):
        while not ready:
            # an op of length 0 ends at now but frees its job at the next end
            done = []
            while busy and busy[0][0] <= now:
                done.append(heapq.heappop(busy)[1])
            if busy:
                now = busy[0][0]
            while busy and busy[0][0] <= now:
                done.append(heapq.heappop(busy)[1])
            for i in done:   # queues and ready stay sorted: any order will do
                j, run_job[i] = run_job[i], -1
                if queue[i]:
                    bisect.insort(ready, i)
                next_pos[j] += 1
                if next_pos[j] < M:
                    m = mach[j][next_pos[j]]
                    if not queue[m] and run_job[m] < 0:
                        bisect.insort(ready, m)
                    bisect.insort(queue[m], j)
                    since[j] = now
        i = ready.pop(0)
        cand = queue[i]
        if rule is DispatchRule.FIFO:
            scores = [since[j] - now for j in cand]
        elif rule is DispatchRule.RND:
            scores = rng.random(len(cand)).tolist()
        else:
            scores = [table[j][next_pos[j]] for j in cand]
        if noise > 0.0 and len(cand) >= 3 and rng.random() < noise:
            # the draw picks from argpartition's order of the three best:
            # keep the scores' dtype. integers(3) is the draw that
            # Generator.choice over three makes, at about a quarter of the cost
            order = np.argpartition(np.array(scores, dtype), 2)
            j = cand[order[rng.integers(3)]]
        else:
            # argmin's rule: the first nan (FDD/MWKR, all-zero job), else first min
            nan = [j for j, s in zip(cand, scores) if s != s] if nan_first else []
            j = nan[0] if nan else cand[scores.index(min(scores))]
        cand.remove(j)
        k = next_pos[j]
        partial[i].append(OpId(j, k))
        run_job[i] = j
        heapq.heappush(busy, (now + dur[j][k], i))
    return Solution(partial)
