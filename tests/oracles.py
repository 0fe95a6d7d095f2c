"""Independent reference implementations used to cross-check the package.

The simulators and the brute force are written against the problem
definition only: no graph, no heads/tails, no incremental updates. The
walker references (critical path, blocks, move estimates) read a graph only
through numpy arrays they build from its heads ``end - p``, tails
``out - p`` and machine orders ``rows``, and index them one numpy scalar at
a time, a second implementation next to the package's Python-int walkers,
which work on end and out times. The dispatch
reference is the earlier countdown event loop, kept as it was, with its
``Generator.choice`` draw among the three best. The solution check is the
earlier conversion through an (M, J, 2) array of OpIds. The collector
reference is the earlier round-robin collector over a list of envs, with
its separate episode-tail flush, kept as it was. Slow and simple on
purpose.
"""
from __future__ import annotations

import bisect
from itertools import permutations, product
from typing import Optional, Sequence

import numpy as np

from jobshopls.core import Instance, MalformedSolutionError, OpId, Solution
from jobshopls.dispatch import DispatchRule
from jobshopls.env import Observation, step as env_step
from jobshopls.nn import QNetwork, q_values
from jobshopls.nn import autodiff as ad
from jobshopls.training import EnvHandle, Transition


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


def heads_tails(graph):
    """The graph's heads ``end - p`` and tails ``out - p`` over its n + 2
    slots, as int64 arrays."""
    p = np.array(graph.instance.flat_ops[0], dtype=np.int64)
    return (np.array(graph.end, dtype=np.int64) - p,
            np.array(graph.out, dtype=np.int64) - p)


def _arrays(graph):
    """The graph's (M, J) machine orders and its heads and tails over the
    n + 2 slots, as int64 arrays."""
    inst = graph.instance
    order = np.array(graph.rows, dtype=np.int64).reshape(inst.n_machines,
                                                         inst.n_jobs)
    return (order, *heads_tails(graph))


def _neighbour_arrays(graph):
    """Job and machine predecessors and successors as numpy arrays over the
    graph's n + 2 slots (source n, sink n + 1), derived from its orders."""
    inst = graph.instance
    J, M, n = inst.n_jobs, inst.n_machines, inst.n_ops
    seqs = _arrays(graph)[0]
    job_pred = np.full(n + 2, n, dtype=np.int64)
    job_succ = np.full(n + 2, n + 1, dtype=np.int64)
    ids = np.arange(n).reshape(J, M)
    job_pred[ids[:, 1:].reshape(-1)] = ids[:, :-1].reshape(-1)
    job_succ[ids[:, :-1].reshape(-1)] = ids[:, 1:].reshape(-1)
    mach_pred = np.full(n + 2, n, dtype=np.int64)
    mach_succ = np.full(n + 2, n + 1, dtype=np.int64)
    mach_pred[seqs[:, 1:].reshape(-1)] = seqs[:, :-1].reshape(-1)
    mach_succ[seqs[:, :-1].reshape(-1)] = seqs[:, 1:].reshape(-1)
    return job_pred, job_succ, mach_pred, mach_succ


def reference_critical_path(graph) -> list:
    """The critical path by numpy scalar indexing of the graph's head array.

    Backward from the sink, the predecessor with the larger head is
    followed; ties go to the machine predecessor, then to the lower op id.
    """
    inst = graph.instance
    n = inst.n_ops
    if n == 0:
        return []
    job_pred, _, mach_pred, _ = _neighbour_arrays(graph)
    head = _arrays(graph)[1]
    p = inst.proc.reshape(-1)
    ends = np.flatnonzero(head[:n] + p == graph.makespan)
    v = int(min(ends, key=lambda i: (-int(head[i]), int(i))))
    path = [v]
    while head[v] > 0:
        best = None
        for u, is_mach in ((int(mach_pred[v]), True), (int(job_pred[v]), False)):
            if u >= n or head[u] + p[u] != head[v]:
                continue
            key = (-int(head[u]), 0 if is_mach else 1, u)
            if best is None or key < best[0]:
                best = (key, u)
        v = best[1]
        path.append(v)
    return path[::-1]


def reference_critical_blocks(graph) -> list:
    """(machine, start, ops) of each maximal same-machine run of the
    reference critical path."""
    _, _, mach_pred, _ = _neighbour_arrays(graph)
    machine = graph.instance.machine.reshape(-1)
    runs = []
    for v in reference_critical_path(graph):
        if runs and runs[-1][-1] == mach_pred[v]:
            runs[-1].append(v)
        else:
            runs.append([v])
    order = _arrays(graph)[0]
    return [(int(machine[r[0]]), int(np.flatnonzero(order[machine[r[0]]] == r[0])[0]),
             tuple(r)) for r in runs]


def _reference_pair(graph, nbrs, p, m, i):
    job_pred, job_succ, mach_pred, mach_succ = nbrs
    order, h, q = _arrays(graph)
    ids = order[m]
    u, v = int(ids[i]), int(ids[i + 1])
    jp_u, jp_v = int(job_pred[u]), int(job_pred[v])
    js_u, js_v = int(job_succ[u]), int(job_succ[v])
    mp_u, ms_v = int(mach_pred[u]), int(mach_succ[v])
    h_v = max(h[jp_v] + p[jp_v], h[mp_u] + p[mp_u])
    h_u = max(h[jp_u] + p[jp_u], h_v + p[v])
    q_u = max(q[js_u] + p[js_u], q[ms_v] + p[ms_v])
    q_v = max(q[js_v] + p[js_v], q_u + p[u])
    return int(max(h_v + p[v] + q_v, h_u + p[u] + q_u))


def _reference_window(graph, nbrs, p, m, lo, hi, window):
    job_pred, job_succ, mach_pred, mach_succ = nbrs
    order, h, q = _arrays(graph)
    ids = order[m]
    before = int(mach_pred[int(ids[lo])])
    after = int(mach_succ[int(ids[hi])])
    h_min = int(h[int(ids[lo])])
    q_min = int(q[int(ids[hi])])
    ready = h[before] + p[before]
    heads = []
    for w in window:
        jp = int(job_pred[w])
        job_part = h[jp] + p[jp] if h[jp] < h_min else 0
        hw = max(job_part, ready)
        heads.append(hw)
        ready = hw + p[w]
    tail_ready = q[after] + p[after]
    est = 0
    for w, hw in zip(reversed(window), reversed(heads)):
        js = int(job_succ[w])
        job_part = q[js] + p[js] if q[js] < q_min else 0
        qw = max(job_part, tail_ready)
        est = max(est, hw + p[w] + qw)
        tail_ready = qw + p[w]
    return int(est)


def reference_estimate(graph, move) -> int:
    """A move's makespan estimate by numpy scalar indexing of the graph's
    head and tail arrays: the O(1) pair formula for CT/CET swaps, the
    guarded window walk for ECET and CEI."""
    from jobshopls.neighborhood import Operator

    n = graph.instance.n_ops
    nbrs = _neighbour_arrays(graph)
    p = np.zeros(n + 2, dtype=np.int64)
    p[:n] = graph.instance.proc.reshape(-1)
    m, a, b = move.machine, move.pos_a, move.pos_b
    if move.kind in (Operator.CT, Operator.CET):
        return _reference_pair(graph, nbrs, p, m, a)
    window = list(graph.rows[m])
    if move.kind is Operator.ECET:
        lo, hi = a, b + 1
        window = window[lo: hi + 1]
        window[0], window[1] = window[1], window[0]
        window[-2], window[-1] = window[-1], window[-2]
    else:
        lo, hi = min(a, b), max(a, b)
        window = window[lo: hi + 1]
        window.insert(b - lo, window.pop(a - lo))
    return _reference_window(graph, nbrs, p, m, lo, hi, window)


def reference_ls_step(graph, op):
    """The LS step as a fall-through over checked, separately scored moves.

    Every enumerated move is scored by ``reference_estimate``, the ranking
    is by (estimate, enumeration index), and the first candidate whose
    ``apply_move`` does not hit a CEI cycle wins. Returns (move, estimate,
    moved graph, cycle rejections), or None when every candidate fails.
    """
    from jobshopls.neighborhood import WouldCreateCycle, apply_move, enumerate_moves

    moves = enumerate_moves(graph, op)
    ests = [reference_estimate(graph, mv) for mv in moves]
    rejects = 0
    for k in sorted(range(len(moves)), key=lambda k: (ests[k], k)):
        try:
            moved = apply_move(graph, moves[k])
        except WouldCreateCycle:
            rejects += 1
            continue
        return moves[k], ests[k], moved, rejects
    return None


# -- Q-network forward, TD loss and validation, one graph at a time --------
# These are the per-item versions the package ran before its forward took a
# disjoint union of graphs; the batched code must match them bit for bit.

def rows(x, idx):
    """Gather rows of a 2-D tensor (repeats allowed): the autodiff op the
    reference encoder pools unequal groups with."""
    from jobshopls.nn import autodiff as ad

    idx = np.asarray(idx, dtype=np.int64)
    def push(g):
        if x.requires_grad:
            gx = np.zeros_like(x.data)
            np.add.at(gx, idx, g)
            x._accumulate(gx)
    return ad.Tensor(x.data[idx], parents=(x,), push=push)


def reference_products(a, g, runs):
    """The weight-gradient products of ``autodiff._products`` as one
    (r, d_a, d_g) stack per run, however many bytes it takes: the unsplit
    fold that the byte-capped chunks must reproduce."""
    from jobshopls.nn import autodiff as ad

    return (np.matmul(sa.transpose(0, 2, 1), sg)
            for sa, sg in zip(ad._stacks(a, runs), ad._stacks(g, runs)))


# The reductions along one axis and the padded block layout that the package
# pooled with before it reduced runs of equal-size blocks (``ad.block_max``,
# ``ad.block_mean``); the references below pool with them.

def amax(x, axis: int = 0):
    """Max along one axis; gradient flows to the first maximizer only."""
    from jobshopls.nn import autodiff as ad

    idx = x.data.argmax(axis=axis)
    out = np.take_along_axis(x.data, np.expand_dims(idx, axis), axis=axis)
    def push(g):
        if x.requires_grad:
            gx = np.zeros_like(x.data)
            np.put_along_axis(gx, np.expand_dims(idx, axis),
                              np.expand_dims(g, axis), axis=axis)
            x._accumulate(gx)
    return ad.Tensor(np.squeeze(out, axis=axis), parents=(x,), push=push)


def tmean(x, axis=None, keepdims: bool = False, count=None):
    """Mean along ``axis`` (all if None), sum then divide as ``np.mean`` does;
    ``count``, shaped like the sum with kept dims, replaces the axis length."""
    from jobshopls.nn import autodiff as ad

    if count is None:
        count = x.data.size if axis is None else x.shape[axis]
    def push(g):
        if not x.requires_grad:
            return
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        # divide after broadcasting: a copied broadcast view may be F-ordered
        x._accumulate(np.broadcast_to(g, x.shape) / count)
    out = x.data.sum(axis=axis, keepdims=True) / count
    return ad.Tensor(out if keepdims else np.squeeze(out, axis=axis),
                     parents=(x,), push=push)


def padded_blocks(x, sizes, fill: float):
    """The consecutive row blocks of a 2-D tensor with these sizes, as one
    (len(sizes), max(sizes), d) array padded after each block with ``fill``."""
    from jobshopls.nn import autodiff as ad

    sizes = np.asarray(sizes)
    mask = np.arange(sizes.max()) < sizes[:, None]
    out = np.full(mask.shape + x.shape[1:], fill, dtype=np.float64)
    out[mask] = x.data
    def push(g):
        if x.requires_grad:
            x._accumulate(g[mask])
    return ad.Tensor(out, parents=(x,), push=push)


def padded_block_max(x, sizes):
    """Block maxima through one padded array: -inf never wins the max."""
    return amax(padded_blocks(x, sizes, -np.inf), axis=1)


def padded_block_mean(x, sizes):
    """Block means through one padded array. The sum over a block adds its
    rows one at a time, so the pads, -0.0 (x + -0.0 == x, for x = -0.0
    too), leave it exact."""
    sizes = np.asarray(sizes)
    return tmean(padded_blocks(x, sizes, -0.0), axis=1, count=sizes[:, None, None])


def reference_encode(obs, net):
    """Per-node, per-group and (1, d) scalar-feature embeddings of one graph."""
    from jobshopls.nn import autodiff as ad
    from jobshopls.nn.qnetwork import _gnn_layer

    nbr = {"stat": obs.nbr_stat, "dyna": obs.nbr_dyna}
    h = net._run_mlp("emb", ad.constant(obs.node_feats))
    for i, kind in enumerate(net.config.layer_schedule):
        h = _gnn_layer(h, nbr[kind], net, i)
    omega_node = net._run_mlp("post", h)

    counts = np.bincount(obs.groups, minlength=obs.n_groups)
    if counts.min() == 0:
        raise ValueError(f"group {int(counts.argmin())} has no member nodes")
    if np.all(counts == counts[0]):
        order = np.argsort(obs.groups, kind="stable")
        stacked = ad.reshape(ad.permute_rows(omega_node, order),
                             (obs.n_groups, counts[0], -1))
        pooled = ad.concat([amax(stacked, axis=1),
                            tmean(stacked, axis=1)], axis=1)
        omega_grp = net._run_mlp("grp", pooled)
    else:
        group_rows = []
        for k in range(obs.n_groups):
            members = rows(omega_node, np.flatnonzero(obs.groups == k))
            pooled = ad.concat([amax(members, axis=0),
                                tmean(members, axis=0)], axis=0)
            group_rows.append(net._run_mlp("grp", ad.reshape(pooled, (1, -1))))
        omega_grp = ad.concat(group_rows, axis=0)

    omega_feat = ad.linear(ad.constant(obs.scalars[None, :]),
                           *net._p("feat.w", "feat.b"))
    return omega_node, omega_grp, omega_feat


def reference_q_values(obs, net, taus):
    """Quantile values (|taus| x |A|) and mean Q (|A|,) of one graph."""
    from jobshopls.nn import autodiff as ad

    taus = np.asarray(taus, dtype=np.float64)
    omega_node, omega_grp, omega_feat = reference_encode(obs, net)
    pooled = ad.concat([tmean(omega_node, axis=0, keepdims=True),
                        tmean(omega_grp, axis=0, keepdims=True),
                        omega_feat], axis=1)
    m = np.arange(net.config.n_tau_features)
    cos_feats = np.cos(np.pi * taus[:, None] * m[None, :])
    phi = ad.gelu(ad.linear(ad.constant(cos_feats), *net._p("tau.w", "tau.b")))
    fused = ad.mul(pooled, phi)
    hidden = ad.gelu(ad.linear(fused, *net._p("dec.w1", "dec.b1")))
    z = ad.linear(hidden, *net._p("dec.w2", "dec.b2"))
    return z, tmean(z, axis=0)


def reference_td_loss(batch, weights, net, target_net, k_taus=8, kp_taus=8,
                      gamma=0.99, kappa=1.0, rng=None):
    """Quantile Huber loss and priorities with one forward per item."""
    from jobshopls.nn import autodiff as ad

    rng = rng or np.random.default_rng()
    total = None
    priorities = np.empty(len(batch))
    for b, tr in enumerate(batch):
        taus = rng.uniform(size=k_taus)
        taus_p = rng.uniform(size=kp_taus)
        if tr.done:
            y = np.full(kp_taus, tr.g)
        else:
            with ad.no_grad():
                _, q_boot = reference_q_values(tr.bootstrap_obs, net,
                                               rng.uniform(size=k_taus))
                a_star = int(np.argmax(q_boot.data))
                z_target, _ = reference_q_values(tr.bootstrap_obs, target_net,
                                                 taus_p)
            y = tr.g + gamma ** tr.steps * z_target.data[:, a_star]

        z, _ = reference_q_values(tr.obs, net, taus)
        pick = np.zeros(net.n_actions)
        pick[tr.action] = 1.0
        # every other term of the sum is +-0, so z_a is exact
        z_a = ad.tsum(ad.mul(z, ad.constant(pick)), axis=1, keepdims=True)
        delta = ad.sub(ad.constant(y[None, :]), z_a)
        indicator = (delta.data < 0.0).astype(np.float64)
        tau_weight = np.abs(taus[:, None] - indicator)
        rho = ad.mul(ad.constant(tau_weight), ad.huber(delta, kappa))
        item = ad.mul(ad.tsum(rho), ad.constant(weights[b] / (kp_taus * kappa)))
        total = item if total is None else ad.add(total, item)
        priorities[b] = np.abs(delta.data).mean()
    loss = ad.mul(total, ad.constant(1.0 / len(batch)))
    return loss, priorities


def _epsilon_greedy(obs: Observation, net: Optional[QNetwork], epsilon: float,
                    n_actions: int, k_taus: int,
                    rng: np.random.Generator) -> int:
    if net is None or rng.random() < epsilon:
        return int(rng.integers(n_actions))
    taus = rng.uniform(size=k_taus)
    with ad.no_grad():
        _, q = q_values(obs, net, taus)
    return int(np.argmax(q.data))


def _flush_tail(frames: list, terminal_obs: Observation, gamma: float,
                out: list[Transition]) -> None:
    """Emit the shortened transitions left over when an episode ends."""
    for k in range(len(frames)):
        horizon = len(frames) - k
        g = sum(gamma ** i * frames[k + i][2] for i in range(horizon))
        out.append(Transition(frames[k][0], frames[k][1], g,
                              terminal_obs, True, horizon))


def reference_collect(envs: Sequence[EnvHandle], net: Optional[QNetwork],
                      epsilon: float, steps: int, rng: np.random.Generator,
                      n_step: int = 3, gamma: float = 0.99,
                      k_taus: int = 8) -> list[Transition]:
    """Run the envs round-robin, assembling n-step transitions."""
    out: list[Transition] = []
    for count in range(steps):
        env = envs[count % len(envs)]
        action = _epsilon_greedy(env.obs, net, epsilon,
                                 env.action_space.n_actions, k_taus, rng)
        prev_obs = env.obs
        env.state, reward, done, env.obs = env_step(env.state, action)
        env.frames.append((prev_obs, action, reward))
        if done:
            _flush_tail(env.frames, env.obs, gamma, out)
            env.begin_episode()
        elif len(env.frames) == n_step:
            g = sum(gamma ** i * env.frames[i][2] for i in range(n_step))
            out.append(Transition(env.frames[0][0], env.frames[0][1], g,
                                  env.obs, False, n_step))
            env.frames.pop(0)
    return out


def reference_evaluate(net, instances, action_space, t_max, epsilon=0.0,
                       seed=0, k_taus=8, perturbation_strength=3):
    """Best makespan per instance, rolling the instances out one by one."""
    from jobshopls.env import reset, step
    from jobshopls.nn import autodiff as ad

    taus = (np.arange(k_taus) + 0.5) / k_taus
    costs = np.empty(len(instances))
    for i, instance in enumerate(instances):
        state, obs = reset(instance, action_space, seed=seed + i, t_max=t_max,
                           perturbation_strength=perturbation_strength)
        rng = np.random.default_rng(seed + 7919 * i)
        while not state.done:
            if net is None or (epsilon > 0.0 and rng.random() < epsilon):
                action = int(rng.integers(action_space.n_actions))
            else:
                with ad.no_grad():
                    _, q = reference_q_values(obs, net, taus)
                action = int(np.argmax(q.data))
            state, _, _, obs = step(state, action)
        costs[i] = state.best_cost
    return costs


def reference_dispatch(instance: Instance, rule: DispatchRule,
                       rng: np.random.Generator, noise: float) -> Solution:
    """The countdown dispatcher: every completion event rebuilds the
    machines' remaining run times and the waiting jobs' countdowns and
    rescans the machines. The package's event-heap dispatcher must give the
    same machine orders for every rule, noise level and generator state."""
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
            scores = [wait[j] for j in cand]
        elif rule is DispatchRule.RND:
            scores = rng.random(len(cand)).tolist()
        else:
            scores = [table[j][next_pos[j]] for j in cand]
        if noise > 0.0 and len(cand) >= 3 and rng.random() < noise:
            # argpartition's order feeds the draw: keep the scores' dtype
            dtype = None if table is None else np.single
            top3 = np.argpartition(np.array(scores, dtype=dtype), 2)[:3]
            return cand[rng.choice(top3)]
        # argmin's rule: the first nan (FDD/MWKR, all-zero job), else first min
        if rule is DispatchRule.FDD_over_MWKR:
            for k, s in enumerate(scores):
                if s != s:
                    return cand[k]
        return cand[scores.index(min(scores))]

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


def reference_checked_rows(instance: Instance, solution: Solution) -> tuple:
    """A Solution's machine orders as M tuples of flat op ids, converted
    through one (M, J, 2) numpy array; raises MalformedSolutionError with
    the package's messages unless row k is a permutation of the ops routed
    to machine k."""
    J, M = instance.n_jobs, instance.n_machines
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
    routed = np.argsort(instance.machine.reshape(-1), kind="stable").reshape(M, J)
    bad = np.flatnonzero((np.sort(order, axis=1) != routed).any(axis=1))
    if bad.size:
        raise MalformedSolutionError("\n".join(
            f"machine {k}: not a permutation of the {J} ops routed to it"
            for k in bad))
    return tuple(map(tuple, order.tolist()))
