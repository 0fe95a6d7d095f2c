"""Priority-dispatching-rule construction of initial solutions.

Schedules are built non-delay: the dispatcher simulates the shop in event
time and whenever a machine is free and at least one job is waiting in its
queue, the lowest-index such machine immediately pulls the waiting job with
the best (lowest) priority score. Score and event arithmetic runs on
processing times scaled by the largest duration (by 1 when all are zero) in
single precision; this pins a reproducible resolution order for equal raw
scores and simultaneous completions. Ties that survive scoring go to the
lower job index.
"""
from __future__ import annotations

import bisect
import enum
from typing import Optional

import numpy as np

from .core import Instance, OpId, Solution


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
        key = text.strip().lower().replace("-", "/").replace("_over_", "/")
        for rule in cls:
            if rule.value == key or rule.name.lower() == key:
                return rule
        raise ValueError(
            f"unknown dispatch rule {text!r}; expected one of "
            f"{[r.value for r in cls]}"
        )


def dispatch(instance: Instance, rule: DispatchRule,
             seed: Optional[int] = None) -> Solution:
    """Build a complete solution with one dispatching rule.

    Deterministic for every rule except RND, where ``seed`` fixes the
    random scores.
    """
    return _run(instance, rule, np.random.default_rng(seed), noise=0.0)


def stochastic_dispatch(instance: Instance, rule: DispatchRule,
                        noise: float = 1.0,
                        seed: Optional[int] = None) -> Solution:
    """Randomized variant used for restarts.

    At each dispatch step, with probability ``noise`` the job is drawn
    uniformly from the three best-scored candidates (all of them if fewer
    than three are waiting); otherwise the best is taken. Deterministic
    given ``seed``.
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
    table = None if table is None else table.tolist()
    dur = dur_n.tolist()

    # Event times are float64 countdowns, updated entry by entry so that
    # simultaneous completions resolve reproducibly. run_left[i] is the
    # remaining run time of run_job[i] on machine i (-1 when idle, and then
    # run_left[i] <= 0); wait[j] counts down from 0 while job j waits in a
    # queue (more negative = queued earlier; FIFO's score) and is not read
    # otherwise. Queues list jobs in ascending order.
    queue = [[] for _ in range(M)]
    for j in range(J):
        queue[mach[j][0]].append(j)
    wait = [0.0] * J
    next_pos = [0] * J
    run_job = [-1] * M
    run_left = [0.0] * M
    partial = [[] for _ in range(M)]
    machines = range(M)

    def select(cand: list) -> int:
        if rule is DispatchRule.FIFO:
            scores = np.array([wait[j] for j in cand])
        elif rule is DispatchRule.RND:
            scores = rng.random(len(cand))
        else:
            scores = np.array([table[j][next_pos[j]] for j in cand],
                              dtype=np.single)
        if noise > 0.0 and len(cand) >= 3 and rng.random() < noise:
            top3 = np.argpartition(scores, 2)[:3]
            return cand[rng.choice(top3)]
        # argmin, unlike min(), returns the first nan
        return cand[scores.argmin()]

    for _ in range(J * M):
        # the lowest-index idle machine with a job waiting
        i = next((i for i in machines if run_job[i] < 0 and queue[i]), -1)
        while i < 0:
            # advance to the next completion, then release the finished
            # jobs in machine order
            step = min([t for t in run_left if t > 0], default=0.0)
            run_left = [t - step for t in run_left]
            wait = [t - step for t in wait]
            for m in machines:
                j = run_job[m]
                if j >= 0 and run_left[m] <= 0:
                    run_job[m] = -1
                    next_pos[j] += 1
                    if next_pos[j] < M:
                        bisect.insort(queue[mach[j][next_pos[j]]], j)
                        wait[j] = 0.0
            i = next((i for i in machines if run_job[i] < 0 and queue[i]), -1)
        j = select(queue[i])
        queue[i].remove(j)
        k = next_pos[j]
        partial[i].append(OpId(j, k))
        run_job[i] = j
        run_left[i] = dur[j][k]
    return Solution(partial)
