"""Priority-dispatching-rule construction of initial solutions.

Schedules are built non-delay: the dispatcher simulates the shop in event
time and whenever a machine is free and at least one job is waiting in its
queue, the lowest-index such machine immediately pulls the waiting job with
the best (lowest) priority score. Score and event arithmetic runs on
processing times scaled by the largest duration in single precision; this
pins a reproducible resolution order for equal raw scores and simultaneous
completions. Ties that survive scoring go to the lower job index.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .core import Instance, OpId, Solution

# sentinel for "not in queue" in the countdown table; finite so integer
# arrays holding it stay exact
_FAR = 1e7


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


@dataclass
class DispatchState:
    """Mutable bookkeeping of a partially dispatched schedule.

    Times are in raw (unscaled) units. ``partial`` holds the machine
    sequences built so far.
    """

    job_ready_time: np.ndarray
    machine_ready_time: np.ndarray
    next_pos: np.ndarray
    partial: list
    rng: Optional[np.random.Generator] = field(default=None, repr=False)


def priority(rule: DispatchRule, candidate: OpId, state: DispatchState,
             instance: Instance) -> float:
    """Score of a candidate operation; lower is dispatched first.

    FIFO ranks by the time the candidate entered its machine queue (the
    completion time of the job's previous operation). MWKR and MOPNR negate
    their quantity so that "most" maps to "lowest score".
    """
    j, k = candidate.job, candidate.pos
    row = instance.proc[j]
    if rule is DispatchRule.FIFO:
        return float(state.job_ready_time[j])
    if rule is DispatchRule.SPT:
        return float(row[k])
    if rule is DispatchRule.MWKR:
        return -float(row[k:].sum())
    if rule is DispatchRule.MOPNR:
        return -float(instance.n_machines - k)
    if rule is DispatchRule.FDD:
        return float(row[: k + 1].sum())
    if rule is DispatchRule.FDD_over_MWKR:
        return float(row[: k + 1].sum()) / float(row[k:].sum())
    if rule is DispatchRule.RND:
        rng = state.rng if state.rng is not None else np.random.default_rng()
        return float(rng.random())
    raise ValueError(f"unhandled rule {rule}")


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
    mach = instance.machine
    jrange = np.arange(J)
    mrange = np.arange(M)

    # single-precision scaled durations drive scoring and event order
    dur32 = instance.proc.astype(np.single)
    dur_n = dur32 / float(dur32.max())
    cum_n = dur_n.cumsum(-1)
    rem_n = np.fliplr(np.fliplr(dur_n).cumsum(-1))

    # countdown[i, j]: remaining run time of j on i if running, <= 0 once
    # waiting in i's queue (more negative = queued earlier), _FAR otherwise
    countdown = np.ones((M, J), dtype=int) * _FAR
    countdown[mach[:, 0], jrange] = 0
    running_job = -np.ones(M, dtype=int)
    n_sched = np.zeros(M, dtype=int)
    mch_open = np.ones(M, dtype=bool)

    state = DispatchState(
        job_ready_time=np.zeros(J, dtype=np.int64),
        machine_ready_time=np.zeros(M, dtype=np.int64),
        next_pos=np.zeros(J, dtype=np.int64),
        partial=[[] for _ in range(M)],
        rng=rng,
    )

    def select(i: int) -> int:
        if rule is DispatchRule.FIFO:
            # queued entries are the only finite ones on a free machine;
            # the most negative countdown entered the queue first
            cand = np.flatnonzero(countdown[i] < _FAR)
            scores = countdown[i][cand]
        else:
            pos = np.minimum(state.next_pos, M - 1)
            cand = np.flatnonzero(
                (state.next_pos < M) & (mach[jrange, pos] == i)
            )
            p = state.next_pos[cand]
            if rule is DispatchRule.SPT:
                scores = dur_n[cand, p]
            elif rule is DispatchRule.MWKR:
                scores = -rem_n[cand, p]
            elif rule is DispatchRule.MOPNR:
                scores = -(M - p).astype(np.single)
            elif rule is DispatchRule.FDD:
                scores = cum_n[cand, p]
            elif rule is DispatchRule.FDD_over_MWKR:
                scores = cum_n[cand, p] / rem_n[cand, p]
            else:
                scores = rng.random(len(cand))
        if noise > 0.0 and len(cand) >= 3 and rng.random() < noise:
            top3 = np.argpartition(scores, 2)[:3]
            return int(cand[rng.choice(top3)])
        return int(cand[int(np.argmin(scores))])

    total = J * M
    done = 0
    while done < total:
        ready = mch_open & (countdown < _FAR).any(axis=1)
        i = int(np.flatnonzero(ready)[0])
        j = select(i)
        k = int(state.next_pos[j])
        start = max(int(state.job_ready_time[j]),
                    int(state.machine_ready_time[i]))
        finish = start + int(instance.proc[j, k])
        state.partial[i].append(OpId(j, k))
        state.machine_ready_time[i] = finish
        running_job[i] = j
        mch_open[i] = False
        n_sched[i] += 1
        countdown[i, j] = dur_n[j, k]
        done += 1
        if done == total:
            break
        while True:
            ready = mch_open & (countdown < _FAR).any(axis=1)
            if ready.any():
                break
            active = countdown[(0 < countdown) & (countdown < _FAR)]
            step = active.min() if active.size else 0.0
            mask = countdown < _FAR
            countdown[mask] = countdown[mask] - step
            fin = (running_job >= 0) & (countdown[mrange, running_job] <= 0)
            for i2 in np.flatnonzero(fin):
                j2 = int(running_job[i2])
                running_job[i2] = -1
                countdown[i2, j2] = _FAR
                state.job_ready_time[j2] = state.machine_ready_time[i2]
                state.next_pos[j2] += 1
                if state.next_pos[j2] < M:
                    countdown[mach[j2, state.next_pos[j2]], j2] = 0
            mch_open = (running_job < 0) & (n_sched < J)

    # flush: bump next_pos past the very last operation for state sanity
    last = np.flatnonzero(state.next_pos < M)
    state.next_pos[last] = M
    return Solution([list(seq) for seq in state.partial])
