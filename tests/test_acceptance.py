"""End-to-end acceptance checks.

Each test covers one release criterion, prints a single PASS line with its
measurements, and enforces the stated tolerance and time budget.
"""
import time
from pathlib import Path

import numpy as np
import pytest

import jobshopls
from jobshopls import (best_known, build_graph, builtin_instance, builtin_names,
                       emit_taillard, generate_instance, parse_taillard)
from jobshopls.core import OpId, Solution
from jobshopls.dispatch import DispatchRule, dispatch
from jobshopls.env import ActionSpace, reset, rollout, step
from jobshopls.metaheuristics import ControllerKind, run
from jobshopls.neighborhood import Operator, enumerate_moves, estimate_move, perturb
from jobshopls.nn import (GNNConfig, QNetwork, autodiff as ad, load_checkpoint,
                          q_values, save_checkpoint)
from jobshopls.training import (Adam, EnvHandle, TrainConfig, collect, evaluate,
                                td_loss, train)

from oracles import brute_force_optimum, exact_move_cost, simulate_makespan

TINY = GNNConfig(d_emb=8, mlp_hidden=8, iqn_hidden=16, n_tau_features=8)


def report(criterion, detail):
    print(f"criterion {criterion}: PASS - {detail}", flush=True)


def test_c01_longest_path_equals_simulated_schedule():
    t0 = time.monotonic()
    rng = np.random.default_rng(0)
    checked = 0
    i = 0
    while checked < 1000:
        J = int(rng.integers(1, 6))
        M = int(rng.integers(1, 6))
        inst = generate_instance(J, M, seed=i)
        i += 1
        seqs = [[] for _ in range(M)]
        for j in range(J):
            for k in range(M):
                seqs[int(inst.machine[j, k])].append(OpId(j, k))
        for s in seqs:
            rng.shuffle(s)
        sol = Solution(seqs)
        want = simulate_makespan(inst, sol)
        if want is None:  # shuffled order deadlocked; take a feasible one
            sol = dispatch(inst, DispatchRule.RND, seed=i)
            want = simulate_makespan(inst, sol)
        assert build_graph(inst, sol).makespan == want, (J, M, i)
        checked += 1
    wall = time.monotonic() - t0
    assert wall < 5.0, wall
    report(1, f"1000 pairs agree exactly, {wall:.2f}s")


def test_c02_small_instances_reach_enumerated_optimum():
    t0 = time.monotonic()
    hits = 0
    for i in range(50):
        inst = generate_instance(3, 3, seed=100 + i)
        opt = brute_force_optimum(inst)
        best = min(run(ControllerKind.VNS, inst, iterations=200, seed=s).best_cost
                   for s in range(5))
        assert best >= opt  # sanity: never below the true optimum
        if best <= 1.02 * opt + 1e-9:
            hits += 1
    wall = time.monotonic() - t0
    assert hits >= 45, hits
    assert wall < 60.0, wall
    report(2, f"{hits}/50 within 1.02x of the enumerated optimum, {wall:.1f}s")


def test_c03_move_estimates_never_exceed_exact_cost():
    t0 = time.monotonic()
    rules = [DispatchRule.SPT, DispatchRule.MWKR, DispatchRule.FIFO,
             DispatchRule.FDD, DispatchRule.FDD_over_MWKR, DispatchRule.MOPNR]
    checked = 0
    violations = 0
    seed = 0
    while checked < 10_000:
        inst = generate_instance(6, 6, seed=2000 + seed)
        sol = dispatch(inst, rules[seed % len(rules)])
        g = build_graph(inst, sol)
        if seed % 2:  # diversify beyond constructive schedules
            g = perturb(g, 3, seed=seed)
            sol = g.solution()
        for op in Operator:
            for mv in enumerate_moves(g, op):
                exact = exact_move_cost(inst, sol, mv)
                if exact is None:
                    continue  # insertion infeasible: no post-move cost exists
                if estimate_move(g, mv).estimate > exact:
                    violations += 1
                checked += 1
        seed += 1
    wall = time.monotonic() - t0
    assert violations == 0, violations
    assert wall < 30.0, wall
    report(3, f"{checked} moves, 0 violations, {wall:.1f}s")


# published construction-rule costs, rows ta01..ta10, columns
# FIFO, SPT, MWKR, MOPNR, FDD, FDD/MWKR
REFERENCE_PDR = {
    "ta01": [1486, 1462, 1491, 1438, 1439, 1417],
    "ta02": [1486, 1450, 1449, 1452, 1447, 1413],
    "ta03": [1461, 1526, 1426, 1418, 1618, 1423],
    "ta04": [1575, 1730, 1382, 1457, 1453, 1442],
    "ta05": [1457, 1618, 1494, 1448, 1532, 1431],
    "ta06": [1528, 1522, 1369, 1486, 1453, 1398],
    "ta07": [1497, 1434, 1470, 1456, 1543, 1368],
    "ta08": [1496, 1563, 1491, 1482, 1425, 1429],
    "ta09": [1642, 1622, 1541, 1594, 1627, 1603],
    "ta10": [1600, 1697, 1476, 1582, 1524, 1516],
}
PDR_COLUMNS = [DispatchRule.FIFO, DispatchRule.SPT, DispatchRule.MWKR,
               DispatchRule.MOPNR, DispatchRule.FDD, DispatchRule.FDD_over_MWKR]


def test_c04_dispatching_rules_reproduce_published_costs():
    bks = best_known()
    exact_cells = 0
    gaps = []
    for name, row in REFERENCE_PDR.items():
        inst = builtin_instance(name)
        for rule, want in zip(PDR_COLUMNS, row):
            got = build_graph(inst, dispatch(inst, rule)).makespan
            assert abs(got - want) <= 0.02 * want, (name, rule, got, want)
            exact_cells += got == want
            if rule is DispatchRule.FDD_over_MWKR:
                gaps.append((got - bks[name]) / bks[name])
    mean_gap = float(np.mean(gaps))
    assert 0.1550 <= mean_gap <= 0.1950, mean_gap
    report(4, f"60 cells within 2% ({exact_cells} exact), "
              f"FDD/MWKR mean gap {100 * mean_gap:.2f}%")


def test_c05_controller_gap_bands_at_100_iterations():
    bks = best_known()
    bands = {ControllerKind.SA: 16.0, ControllerKind.ILS: 15.5,
             ControllerKind.VNS: 12.5}
    summary = []
    for kind, band in bands.items():
        gaps = []
        for i in range(1, 11):
            name = f"ta{i:02d}"
            inst = builtin_instance(name)
            for s in (0, 1, 2):
                t0 = time.monotonic()
                result = run(kind, inst, iterations=100, seed=s)
                assert time.monotonic() - t0 < 120.0
                gaps.append((result.best_cost - bks[name]) / bks[name])
        mean_gap = 100 * float(np.mean(gaps))
        assert mean_gap <= band, (kind, mean_gap)
        summary.append(f"{kind.value} {mean_gap:.2f}%<={band}")
    report(5, ", ".join(summary))


def test_c06_analytic_gradients_match_finite_differences():
    t0 = time.monotonic()
    inst = generate_instance(3, 2, seed=1)  # 6 operations
    _, obs = reset(inst, ActionSpace.ANP, seed=0, t_max=5)
    net = QNetwork(10, TINY, seed=42)
    taus = np.random.default_rng(3).uniform(size=4)

    z, _ = q_values(obs, net, taus)
    loss = ad.tsum(z)
    loss.backward()

    def loss_value():
        with ad.no_grad():
            z2, _ = q_values(obs, net, taus)
        return float(np.sum(z2.data))

    eps = 1e-5
    worst = 0.0
    n_entries = 0
    for name, tensor in net.params.items():
        grad = tensor.grad
        flat = tensor.data.reshape(-1)
        gflat = grad.reshape(-1)
        for k in range(flat.size):
            keep = flat[k]
            flat[k] = keep + eps
            hi = loss_value()
            flat[k] = keep - eps
            lo = loss_value()
            flat[k] = keep
            fd = (hi - lo) / (2 * eps)
            scale = max(abs(fd), abs(gflat[k]), 1e-8)
            worst = max(worst, abs(fd - gflat[k]) / scale)
            n_entries += 1
    wall = time.monotonic() - t0
    assert worst < 1e-3, worst
    assert wall < 60.0, wall
    report(6, f"{n_entries} parameters, max relative error {worst:.2e}, "
              f"{wall:.1f}s")


def test_c07_fixed_batch_overfits_ten_fold():
    t0 = time.monotonic()
    inst = generate_instance(3, 2, seed=1)
    env = EnvHandle(lambda rng: inst, ActionSpace.ANP, t_max=3, seed=9)
    batch = collect(env, None, 1.0, 33, np.random.default_rng(7), n_step=3)[:32]
    assert all(t.done for t in batch)
    net = QNetwork(10, TINY, seed=11)
    target = net.clone()
    opt = Adam(net, lr=5e-3)
    weights = np.ones(32)

    def probe():
        loss, _ = td_loss(batch, weights, net, target,
                          rng=np.random.default_rng(0))
        return float(loss.data)

    first = probe()
    rng = np.random.default_rng(13)
    for _ in range(500):
        net.zero_grad()
        loss, _ = td_loss(batch, weights, net, target, rng=rng)
        loss.backward()
        opt.step(net)
    last = probe()
    wall = time.monotonic() - t0
    assert first / last >= 10.0, (first, last)
    assert wall < 60.0, wall
    report(7, f"loss {first:.3f} -> {last:.3f} ({first / last:.1f}x), {wall:.1f}s")


def test_c08_short_training_beats_random_policy(tmp_path):
    t0 = time.monotonic()
    config = TrainConfig.desk_scale()
    factory = lambda rng: generate_instance(6, 6, seed=int(rng.integers(1 << 30)))
    result = train(config, factory, seed=42, out_dir=tmp_path)
    train_wall = time.monotonic() - t0
    assert train_wall <= 900.0, train_wall

    held_out = [generate_instance(6, 6, seed=2_000_000_000 + i)
                for i in range(64)]
    learned = evaluate(result.net, held_out, config.action_space,
                       t_max=config.t_max, seed=777)
    random_policy = evaluate(None, held_out, config.action_space,
                             t_max=config.t_max, seed=777)
    improvement = (random_policy.mean() - learned.mean()) / random_policy.mean()
    assert learned.mean() < random_policy.mean()
    assert improvement >= 0.01, improvement
    report(8, f"trained {train_wall:.0f}s, learned {learned.mean():.2f} vs "
              f"random {random_policy.mean():.2f} "
              f"({100 * improvement:.2f}% better)")


def test_c09_rewards_are_clamped_and_telescope():
    spaces = [ActionSpace.A, ActionSpace.AN, ActionSpace.ANP]
    for i in range(100):
        space = spaces[i % 3]
        inst = generate_instance(4, 4, seed=500 + i)
        state, _ = reset(inst, space, seed=i, t_max=20)
        rng = np.random.default_rng(1000 + i)
        rewards = []
        while not state.done:
            state, r, _, _ = step(state, int(rng.integers(space.n_actions)))
            rewards.append(r)
        assert min(rewards) >= 0.0
        assert sum(rewards) == state.init_cost - state.best_cost, i
    # seeded replay is bit-exact
    inst = generate_instance(4, 4, seed=500)
    actions = [int(a) for a in np.random.default_rng(5).integers(0, 10, 20)]
    assert rollout(inst, actions, ActionSpace.ANP, seed=3, t_max=20) == \
        rollout(inst, actions, ActionSpace.ANP, seed=3, t_max=20)
    report(9, "100 episodes: rewards >= 0, sums telescope, replay bit-exact")


def test_c10_round_trips_and_reproducible_outputs(tmp_path):
    data_dir = Path(jobshopls.__file__).parent / "data" / "taillard"
    for name in builtin_names():
        text = (data_dir / f"{name}.txt").read_text()
        first = parse_taillard(text, name=name)
        second = parse_taillard(emit_taillard(first), name=name)
        assert first == second, name
        assert np.array_equal(first.proc, second.proc)
        assert np.array_equal(first.machine, second.machine)

    net = QNetwork(10, TINY, seed=0)
    ck = tmp_path / "net.npz"
    save_checkpoint(net, ck)
    loaded = load_checkpoint(ck)
    for pname, tensor in net.params.items():
        assert np.array_equal(tensor.data, loaded.params[pname].data), pname

    from jobshopls.bench import BenchmarkConfig, run_benchmark
    cfg = BenchmarkConfig(method="vns", instances=("ta01", "ta02"),
                          iterations=20, seed=1)

    def stable(text):
        return [",".join(line.split(",")[:-1])
                for line in text.strip().splitlines()]

    assert stable(run_benchmark(cfg).csv()) == stable(run_benchmark(cfg).csv())
    report(10, "80 instance files, checkpoint, and benchmark CSV all round-trip")
