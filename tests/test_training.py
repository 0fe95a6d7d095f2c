"""Replay buffer, n-step returns, quantile loss, and the training loop."""
import csv
import weakref

import numpy as np
import pytest

from jobshopls import generate_instance
from jobshopls.env import ActionSpace
from jobshopls.nn import GNNConfig, QNetwork
from jobshopls import training
from jobshopls.training import (Adam, EnvHandle, ReplayBuffer, TrainConfig,
                                Transition, collect, evaluate, td_loss, train)

TINY = GNNConfig(d_emb=8, mlp_hidden=8, iqn_hidden=16, n_tau_features=8)


def fake_transition(tag):
    return Transition(obs=tag, action=0, g=float(tag), bootstrap_obs=None,
                      done=True, steps=3)


def test_buffer_is_a_ring():
    buf = ReplayBuffer(capacity=3)
    for i in range(5):
        buf.add(fake_transition(i))
    assert buf.size == 3
    held = {t.obs for t in buf._data}
    assert held == {2, 3, 4}


def test_equal_priorities_sample_uniformly():
    buf = ReplayBuffer(capacity=8)
    for i in range(8):
        buf.add(fake_transition(i))
    rng = np.random.default_rng(0)
    counts = np.zeros(8)
    for _ in range(400):
        idx, _, w = buf.sample(4, rng)
        assert np.all(w <= 1.0 + 1e-12) and np.all(w > 0)
        for i in idx:
            counts[i] += 1
    # 1600 draws over 8 slots: each expected 200
    chi2 = float(((counts - 200.0) ** 2 / 200.0).sum())
    assert chi2 < 25.0


def test_high_priority_items_dominate_sampling():
    buf = ReplayBuffer(capacity=8)
    for i in range(8):
        buf.add(fake_transition(i))
    buf.update_priorities(np.arange(8), np.array([1e-6] * 7 + [10.0]))
    rng = np.random.default_rng(1)
    hits = 0
    for _ in range(200):
        idx, _, _ = buf.sample(2, rng)
        hits += int(np.sum(idx == 7))
    assert hits > 300  # out of 400 draws


def test_new_items_get_max_priority():
    buf = ReplayBuffer(capacity=8)
    buf.add(fake_transition(0))
    buf.update_priorities(np.array([0]), np.array([5.0]))
    buf.add(fake_transition(1))
    assert buf._priority[1] == buf._priority[0]


def test_priorities_are_clamped_positive():
    buf = ReplayBuffer(capacity=4)
    buf.add(fake_transition(0))
    buf.update_priorities(np.array([0]), np.array([0.0]))
    assert buf._priority[0] > 0


def test_epsilon_schedule_is_linear():
    cfg = TrainConfig.desk_scale()
    total = cfg.epochs * cfg.transitions_per_epoch
    assert cfg.epsilon(0) == pytest.approx(0.95)
    assert cfg.epsilon(total) == pytest.approx(0.05)
    mid = cfg.epsilon(total // 2)
    assert mid == pytest.approx((0.95 + 0.05) / 2, abs=1e-3)
    assert cfg.epsilon(10 * total) == pytest.approx(0.05)


def test_collect_builds_n_step_returns():
    inst = generate_instance(4, 4, seed=101)
    env = EnvHandle(lambda rng: inst, ActionSpace.ANP, t_max=12, seed=5)
    rng = np.random.default_rng(3)
    batch = collect(env, None, 1.0, 60, rng, n_step=3, gamma=0.9)
    assert len(batch) == 60
    # rebuild the per-step rewards of the same episodes and check each G
    env2 = EnvHandle(lambda rng: inst, ActionSpace.ANP, t_max=12, seed=5)
    rng2 = np.random.default_rng(3)
    batch2 = collect(env2, None, 1.0, 60, rng2, n_step=3, gamma=0.9)
    assert [t.g for t in batch] == [t.g for t in batch2]
    for t in batch:
        assert t.steps >= 1 and t.g >= 0.0
        if not t.done:
            assert t.steps == 3
            assert t.bootstrap_obs is not None


def test_episode_tails_are_flushed_as_terminal():
    inst = generate_instance(3, 3, seed=103)
    env = EnvHandle(lambda rng: inst, ActionSpace.A, t_max=3, seed=7)
    batch = collect(env, None, 1.0, 9, np.random.default_rng(4), n_step=3)
    # horizon == n_step: every transition ends inside its own episode
    assert all(t.done for t in batch)
    assert [t.steps for t in batch] == [3, 2, 1] * 3


def test_random_actions_are_uniform():
    inst = generate_instance(4, 4, seed=107)
    env = EnvHandle(lambda rng: inst, ActionSpace.ANP, t_max=50, seed=8)
    batch = collect(env, None, 1.0, 3000, np.random.default_rng(5), n_step=1)
    counts = np.bincount([t.action for t in batch], minlength=10)
    expect = 300.0
    chi2 = float(((counts - expect) ** 2 / expect).sum())
    assert chi2 < 30.0  # df=9, well above the 1% tail


def test_n_step_return_arithmetic():
    # hand-checked: rewards 5, 2, 1 with gamma 0.5 -> 5 + 1 + 0.25
    g = 5 + 0.5 * 2 + 0.25 * 1
    assert g == pytest.approx(6.25)
    inst = generate_instance(4, 4, seed=109)
    env = EnvHandle(lambda rng: inst, ActionSpace.A, t_max=6, seed=11)
    batch = collect(env, None, 1.0, 6, np.random.default_rng(6),
                    n_step=3, gamma=0.5)
    # reconstruct raw rewards from the terminal tail (steps 3,2,1):
    tail = [t for t in batch if t.done][-3:]
    g3, g2, g1 = tail[0].g, tail[1].g, tail[2].g
    r_last = g1
    r_mid = g2 - 0.5 * r_last
    r_first = g3 - 0.5 * r_mid - 0.25 * r_last
    assert r_first >= -1e-9 and r_mid >= -1e-9 and r_last >= -1e-9


def test_loss_on_fixed_batch_decreases_with_steps():
    inst = generate_instance(3, 2, seed=1)
    env = EnvHandle(lambda rng: inst, ActionSpace.ANP, t_max=3, seed=9)
    batch = collect(env, None, 1.0, 12, np.random.default_rng(7), n_step=3)
    net = QNetwork(10, TINY, seed=11)
    target = net.clone()
    opt = Adam(net, lr=5e-3)
    w = np.ones(len(batch))

    def probe():
        loss, _ = td_loss(batch, w, net, target, rng=np.random.default_rng(0))
        return float(loss.data)

    first = probe()
    for i in range(60):
        net.zero_grad()
        loss, priorities = td_loss(batch, w, net, target,
                                   rng=np.random.default_rng(100 + i))
        assert np.all(priorities > 0)
        loss.backward()
        opt.step(net)
    assert probe() < first


def test_importance_weights_shrink_priority_updates():
    inst = generate_instance(3, 2, seed=1)
    env = EnvHandle(lambda rng: inst, ActionSpace.ANP, t_max=3, seed=9)
    batch = collect(env, None, 1.0, 6, np.random.default_rng(8), n_step=3)
    net = QNetwork(10, TINY, seed=12)
    target = net.clone()
    half = np.full(len(batch), 0.5)
    full = np.ones(len(batch))
    l_half, _ = td_loss(batch, half, net, target, rng=np.random.default_rng(1))
    l_full, _ = td_loss(batch, full, net, target, rng=np.random.default_rng(1))
    assert float(l_half.data) == pytest.approx(0.5 * float(l_full.data))


def _bits(tr: Transition) -> tuple:
    """A transition's action, return, done flag, horizon and the dtype, shape
    and bytes of every field of both its observations."""
    def obs_bits(obs):
        return tuple((v.dtype.str, v.shape, v.tobytes())
                     if isinstance(v, np.ndarray) else v
                     for v in vars(obs).values())
    return (tr.action, float(tr.g).hex(), tr.done, tr.steps,
            obs_bits(tr.obs), obs_bits(tr.bootstrap_obs))


@pytest.mark.parametrize("with_net", [False, True])
@pytest.mark.parametrize("n_step", [1, 3, 5])
@pytest.mark.parametrize("space", [ActionSpace.A, ActionSpace.ANP])
def test_one_env_collect_reproduces_the_round_robin_reference(space, n_step,
                                                             with_net):
    from oracles import reference_collect

    def envs():
        return [EnvHandle(lambda rng, j=j, m=m: generate_instance(
                    j, m, seed=int(rng.integers(1 << 30))), space, t_max=t_max,
                    seed=j) for j, m, t_max in ((4, 4, 4), (5, 3, 7))]

    net = QNetwork(space.n_actions, TINY, seed=3) if with_net else None
    kwargs = dict(n_step=n_step, gamma=0.9, k_taus=4)
    steps = 40
    want = reference_collect(envs(), net, 0.5, steps, np.random.default_rng(1),
                             **kwargs)
    assert {tr.done for tr in want} == {False, True}
    if with_net:
        assert len({tr.action for tr in want}) > 1
    pair, rng = envs(), np.random.default_rng(1)
    got = [tr for count in range(steps)
           for tr in collect(pair[count % 2], net, 0.5, 1, rng, **kwargs)]
    assert [_bits(tr) for tr in got] == [_bits(tr) for tr in want]

    # one env, several steps per call
    want = reference_collect(envs()[1:], net, 0.5, steps,
                             np.random.default_rng(2), **kwargs)
    env, rng = envs()[1], np.random.default_rng(2)
    got = [tr for chunk in (1, 7, 13, 19)
           for tr in collect(env, net, 0.5, chunk, rng, **kwargs)]
    assert [_bits(tr) for tr in got] == [_bits(tr) for tr in want]


def test_evaluate_is_bit_stable_and_seeded():
    insts = [generate_instance(4, 4, seed=s) for s in (300, 301)]
    net = QNetwork(2, TINY, seed=13)
    a = evaluate(net, insts, ActionSpace.A, t_max=4, seed=5)
    b = evaluate(net, insts, ActionSpace.A, t_max=4, seed=5)
    assert np.array_equal(a, b)
    r1 = evaluate(None, insts, ActionSpace.A, t_max=4, seed=5)
    r2 = evaluate(None, insts, ActionSpace.A, t_max=4, seed=6)
    assert a.shape == (2,)
    assert not np.array_equal(r1, r2)


def mixed_batch(t_max, steps):
    """Transitions from a 6x6 and an 8x4 env stepped in turn."""
    envs = [EnvHandle(lambda rng, j=j, m=m: generate_instance(j, m, seed=j),
                      ActionSpace.ANP, t_max=t_max, seed=j)
            for j, m in ((6, 6), (8, 4))]
    rng = np.random.default_rng(t_max)
    return [tr for count in range(steps)
            for tr in collect(envs[count % 2], None, 1.0, 1, rng, n_step=3)]


def loss_and_grads(loss_fn, batch, net, target, seed):
    net.zero_grad()
    weights = np.linspace(0.5, 1.0, len(batch))
    loss, priorities = loss_fn(batch, weights, net, target, gamma=0.9,
                               rng=np.random.default_rng(seed))
    loss.backward()
    return loss.data, priorities, {k: p.grad for k, p in net.params.items()}


def interior_data_refs(root):
    """Weak references to the data of every interior tape node below ``root``."""
    found, stack = {}, [root]
    while stack:
        for parent in stack.pop()._parents:
            if parent._push is not None and id(parent) not in found:
                found[id(parent)] = parent
                stack.append(parent)
    return [weakref.ref(t.data) for t in found.values()]


def test_backward_frees_the_tape_while_the_loss_is_held():
    batch = mixed_batch(t_max=6, steps=8)
    net = QNetwork(10, TINY, seed=41)
    target = QNetwork(10, TINY, seed=42)
    loss, _ = td_loss(batch, np.ones(len(batch)), net, target,
                      rng=np.random.default_rng(0))
    refs = interior_data_refs(loss)
    assert len(refs) > 50 and all(r() is not None for r in refs)
    loss.backward()
    assert [r for r in refs if r() is not None] == []
    assert np.isfinite(loss.data)
    assert all(p.grad is not None for p in net.params.values())


def test_td_loss_equals_per_item_reference():
    from oracles import reference_td_loss

    batch = mixed_batch(t_max=6, steps=24)
    assert 0 < sum(tr.done for tr in batch) < len(batch)
    net = QNetwork(10, GNNConfig.desk_scale(), seed=41)
    target = QNetwork(10, GNNConfig.desk_scale(), seed=42)
    got = loss_and_grads(td_loss, batch, net, target, 43)
    want = loss_and_grads(reference_td_loss, batch, net, target, 43)
    assert np.array_equal(got[0], want[0])
    assert np.array_equal(got[1], want[1])
    for name in net.params:
        assert np.array_equal(got[2][name], want[2][name]), name


def c07_batch():
    """The all-done TINY 3x2 batch of acceptance check c07."""
    inst = generate_instance(3, 2, seed=1)
    env = EnvHandle(lambda rng: inst, ActionSpace.ANP, t_max=3, seed=9)
    return collect(env, None, 1.0, 33, np.random.default_rng(7), n_step=3)[:32]


def desk_buffer_batch():
    """32 transitions sampled from a replay buffer of desk-scale 6x6 runs."""
    rng = np.random.default_rng(50)
    env = EnvHandle(lambda r: generate_instance(6, 6, seed=int(r.integers(1 << 30))),
                    ActionSpace.A, t_max=5, seed=51)
    buffer = ReplayBuffer(capacity=200)
    for tr in collect(env, None, 1.0, 120, rng, n_step=3):
        buffer.add(tr)
    batch = buffer.sample(32, rng)[1]
    assert 0 < sum(tr.done for tr in batch) < len(batch)
    return batch


@pytest.mark.parametrize("make_batch, n_actions, config", [
    (desk_buffer_batch, 2, GNNConfig.desk_scale()), (c07_batch, 10, TINY)])
def test_td_loss_equals_reference_on_training_batches(make_batch, n_actions, config):
    from oracles import reference_td_loss

    batch = make_batch()
    net = QNetwork(n_actions, config, seed=52)
    target = QNetwork(n_actions, config, seed=53)
    got = loss_and_grads(td_loss, batch, net, target, 54)
    want = loss_and_grads(reference_td_loss, batch, net, target, 54)
    assert np.array_equal(got[0], want[0])
    assert np.array_equal(got[1], want[1])
    for name in net.params:
        assert np.array_equal(got[2][name], want[2][name]), name


def test_byte_capped_products_equal_the_unsplit_fold(monkeypatch):
    from oracles import reference_products

    batch = desk_buffer_batch()
    net = QNetwork(2, GNNConfig(), seed=55)
    target = QNetwork(2, GNNConfig(), seed=56)
    biggest = {}

    def sizing(products, key):
        def spy(a, g, runs):
            for stack in products(a, g, runs):
                biggest[key] = max(biggest.get(key, 0), stack.nbytes)
                yield stack
        return spy

    monkeypatch.setattr(training.ad, "_products",
                        sizing(training.ad._products, "split"))
    got = loss_and_grads(td_loss, batch, net, target, 57)
    monkeypatch.setattr(training.ad, "_products", sizing(reference_products, "whole"))
    want = loss_and_grads(td_loss, batch, net, target, 57)
    # the full-scale head's 32-graph stack exceeds the cap, so it was split
    assert biggest["split"] <= training.ad._PRODUCT_BYTES < biggest["whole"]
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
    for name in net.params:
        assert np.array_equal(got[2][name], want[2][name]), name


def test_all_done_batch_runs_one_gradient_forward(monkeypatch):
    from oracles import reference_td_loss

    batch = mixed_batch(t_max=3, steps=12)
    assert all(tr.done for tr in batch)
    calls = []
    real = training.batch_q_values
    monkeypatch.setattr(training, "batch_q_values", lambda *a: calls.append(
        (len(a[0]), training.ad._NO_GRAD)) or real(*a))
    net = QNetwork(10, TINY, seed=44)
    target = QNetwork(10, TINY, seed=45)
    got = loss_and_grads(td_loss, batch, net, target, 46)
    # no bootstrap (no-grad) forward; one gradient forward over every item
    assert calls == [(len(batch), False)]
    want = loss_and_grads(reference_td_loss, batch, net, target, 46)
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
    for name in net.params:
        assert np.array_equal(got[2][name], want[2][name]), name


@pytest.mark.parametrize("n_weights", [3, 5, 1])
def test_td_loss_needs_one_weight_per_item(n_weights):
    batch = [fake_transition(tag) for tag in range(4)]
    net = QNetwork(2, TINY, seed=0)
    with pytest.raises(ValueError,
                       match=rf"4 items but weights of shape \({n_weights},\)"):
        td_loss(batch, np.ones(n_weights), net, net, rng=np.random.default_rng(0))


def test_negative_perturbation_strength_is_rejected_up_front():
    with pytest.raises(ValueError, match="perturbation_strength must be >= 0"):
        TrainConfig(perturbation_strength=-2)
    TrainConfig(perturbation_strength=0)


@pytest.mark.parametrize("name", ["batch_size", "optimize_every", "target_update",
                                  "k_taus", "kp_taus"])
def test_zero_counts_are_rejected_up_front(name):
    # train would build the nets and the validation set before failing
    with pytest.raises(ValueError, match=f"^{name} must be >= 1$"):
        TrainConfig(**{name: 0})
    TrainConfig(**{name: 1})


@pytest.mark.parametrize("policy", ["net", "random"])
def test_lockstep_evaluate_equals_sequential_reference(policy):
    from oracles import reference_evaluate

    insts = [generate_instance(j, m, seed=s)
             for s, (j, m) in enumerate([(6, 6), (8, 4), (6, 6), (3, 5)])]
    net = (QNetwork(10, GNNConfig.desk_scale(), seed=47)
           if policy == "net" else None)
    kwargs = dict(t_max=7, seed=48)
    got = evaluate(net, insts, ActionSpace.ANP, **kwargs)
    want = reference_evaluate(net, insts, ActionSpace.ANP, **kwargs)
    assert np.array_equal(got, want)


def test_evaluate_of_no_instances_is_empty():
    out = evaluate(QNetwork(2, TINY, seed=49), [], ActionSpace.A, t_max=4)
    assert out.shape == (0,) and out.dtype == np.float64


def test_train_micro_run_writes_artifacts(tmp_path):
    cfg = TrainConfig(epochs=1, transitions_per_epoch=60, warmup=16,
                      batch_size=8, optimize_every=4, t_max=3, net=TINY,
                      n_validation=2, lr=1e-3)
    factory = lambda rng: generate_instance(3, 3, seed=int(rng.integers(1000)))
    result = train(cfg, factory, seed=0, out_dir=tmp_path)
    assert (tmp_path / "checkpoint.npz").exists()
    assert (tmp_path / "train_log.csv").exists()
    with open(tmp_path / "train_log.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2  # epoch 0 baseline + 1 trained epoch
    assert float(rows[1]["val_makespan"]) == pytest.approx(result.best_validation)
    assert np.isfinite(result.best_validation)
    assert len(result.history) == 2


def test_train_draws_the_weights_of_one_net(monkeypatch):
    from jobshopls.nn import qnetwork

    cfg = TrainConfig(epochs=1, transitions_per_epoch=12, warmup=4,
                      batch_size=4, optimize_every=4, t_max=3, net=TINY,
                      n_validation=1)
    n_matrices = sum(len(shape) == 2 for shape in QNetwork(
        cfg.action_space.n_actions, TINY, seed=0)._shapes().values())
    draws, glorot = [], qnetwork._glorot
    monkeypatch.setattr(qnetwork, "_glorot",
                        lambda *args: draws.append(args) or glorot(*args))
    # the target and the best net are built from the online net's arrays
    train(cfg, lambda rng: generate_instance(3, 3, seed=0), seed=0)
    assert len(draws) == n_matrices


def test_adam_descends_a_quadratic():
    from jobshopls.nn import autodiff as ad

    class Shim:
        def __init__(self):
            self.params = {"x": ad.parameter(np.array([4.0, -3.0]))}

        def parameters(self):
            return self.params.items()

    shim = Shim()
    opt = Adam(shim, lr=0.1)
    for _ in range(200):
        x = shim.params["x"]
        x.grad = None
        loss = ad.tsum(ad.mul(x, x))
        loss.backward()
        opt.step(shim)
    assert np.all(np.abs(shim.params["x"].data) < 0.1)
