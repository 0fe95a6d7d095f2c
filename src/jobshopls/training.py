"""Distributional Q-learning on the schedule-search environment.

Double DQN with n-step returns, proportional prioritized replay, an
epsilon-greedy collector and a quantile (IQN) Huber loss. Checkpoints are
selected by greedy validation makespan on a fixed instance set.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .core import Instance
from .env import (ActionSpace, EnvState, Observation, reset as env_reset,
                  step as env_step)
from .nn import GNNConfig, QNetwork, q_values, save_checkpoint
from .nn import autodiff as ad
from .nn.qnetwork import batch_q_values

InstanceFactory = Callable[[np.random.Generator], Instance]


class Transition(NamedTuple):
    """One n-step learning sample."""

    obs: Observation
    action: int
    g: float                 # discounted n-step return
    bootstrap_obs: Observation
    done: bool
    steps: int               # actual horizon (< n only at episode end)


@dataclass
class ReplayBuffer:
    """Proportional prioritized replay over a ring buffer."""

    capacity: int = 32000
    alpha: float = 0.6
    beta: float = 0.4

    def __post_init__(self):
        if self.capacity < 1:
            raise ValueError("capacity must be positive")
        self._data: list[Optional[Transition]] = [None] * self.capacity
        self._priority = np.zeros(self.capacity, dtype=np.float64)
        self._next = 0
        self.size = 0

    def add(self, tr: Transition) -> None:
        # standard PER bootstrap: enter at the current max priority
        pri = self._priority[: self.size].max() if self.size else 1.0
        self._data[self._next] = tr
        self._priority[self._next] = pri
        self._next = (self._next + 1) % self.capacity
        self.size = min(self.size + 1, self.capacity)

    def sample(self, batch_size: int, rng: np.random.Generator
               ) -> tuple[np.ndarray, list[Transition], np.ndarray]:
        """Draw indices, transitions and normalized importance weights."""
        if self.size == 0:
            raise ValueError("cannot sample from an empty buffer")
        scaled = self._priority[: self.size] ** self.alpha
        probs = scaled / scaled.sum()
        idx = rng.choice(self.size, size=batch_size, p=probs)
        weights = (self.size * probs[idx]) ** (-self.beta)
        weights /= weights.max()
        return idx, [self._data[i] for i in idx], weights

    def update_priorities(self, idx: np.ndarray, priorities: np.ndarray) -> None:
        self._priority[idx] = np.maximum(priorities, 1e-6)


@dataclass(frozen=True)
class TrainConfig:
    """Optimizer, schedule and environment knobs for a training run."""

    lr: float = 5e-4
    gamma: float = 0.99
    n_step: int = 3
    target_update: int = 500
    eps_start: float = 0.95
    eps_end: float = 0.05
    epochs: int = 80
    transitions_per_epoch: int = 19200
    batch_size: int = 32
    buffer_capacity: int = 32000
    per_alpha: float = 0.6
    per_beta: float = 0.4
    optimize_every: int = 4
    warmup: int = 500
    k_taus: int = 8
    kp_taus: int = 8
    kappa: float = 1.0
    action_space: ActionSpace = ActionSpace.A
    t_max: int = 100
    perturbation_strength: int = 3
    net: GNNConfig = field(default_factory=GNNConfig)
    n_validation: int = 16
    validation_seed: int = 993

    def __post_init__(self):
        if not 0.0 <= self.eps_end <= self.eps_start <= 1.0:
            raise ValueError("need 0 <= eps_end <= eps_start <= 1")
        if self.epochs < 0 or self.transitions_per_epoch < 1:
            raise ValueError("bad epoch sizing")
        if self.n_step < 1 or self.t_max < 1:
            raise ValueError("n_step and t_max must be >= 1")
        for name in ("batch_size", "optimize_every", "target_update", "k_taus",
                     "kp_taus"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.perturbation_strength < 0:
            raise ValueError("perturbation_strength must be >= 0")

    def epsilon(self, global_step: int) -> float:
        """Linear decay over the whole collection budget."""
        total = max(self.epochs * self.transitions_per_epoch - 1, 1)
        frac = min(global_step / total, 1.0)
        return self.eps_start + (self.eps_end - self.eps_start) * frac

    @classmethod
    def desk_scale(cls) -> "TrainConfig":
        """Minutes-scale run on 6x6 instances with a short horizon.

        The short horizon keeps the accept bit informative: the CET descent
        on 6x6 exhausts within about a dozen accepted steps, after which all
        policies coincide.
        """
        return cls(epochs=5, transitions_per_epoch=2000, warmup=200,
                   t_max=5, net=GNNConfig.desk_scale(), n_validation=16)


ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


class Adam:
    """Adaptive-moment optimizer over a network's parameter dict."""

    def __init__(self, net: QNetwork, lr: float = 5e-4):
        self.lr = lr
        self.t = 0
        self._m = {k: np.zeros_like(p.data) for k, p in net.params.items()}
        self._v = {k: np.zeros_like(p.data) for k, p in net.params.items()}

    def step(self, net: QNetwork) -> None:
        self.t += 1
        b1c = 1.0 - ADAM_BETA1 ** self.t
        b2c = 1.0 - ADAM_BETA2 ** self.t
        for name, p in net.params.items():
            if p.grad is None:
                continue
            m = self._m[name]
            v = self._v[name]
            m *= ADAM_BETA1
            m += (1.0 - ADAM_BETA1) * p.grad
            v *= ADAM_BETA2
            v += (1.0 - ADAM_BETA2) * p.grad * p.grad
            p.data -= self.lr * (m / b1c) / (np.sqrt(v / b2c) + ADAM_EPS)


class EnvHandle:
    """One rolling environment slot used by the collector: the episode's
    state and observation, and the frames it has not emitted yet."""

    def __init__(self, factory: InstanceFactory, action_space: ActionSpace,
                 t_max: int, perturbation_strength: int = 3,
                 seed: Optional[int] = None):
        self.factory = factory
        self.rng = np.random.default_rng(seed)
        self.action_space = action_space
        self.t_max = t_max
        self.strength = perturbation_strength
        self.begin_episode()

    def begin_episode(self) -> None:
        instance = self.factory(self.rng)
        self.state, self.obs = env_reset(
            instance, self.action_space, seed=int(self.rng.integers(1 << 31)),
            t_max=self.t_max, perturbation_strength=self.strength)
        self.frames: list[tuple[Observation, int, float]] = []


def collect(env: EnvHandle, net: Optional[QNetwork], epsilon: float,
            steps: int, rng: np.random.Generator, n_step: int = 3,
            gamma: float = 0.99, k_taus: int = 8) -> list[Transition]:
    """Step ``env`` epsilon-greedily, assembling n-step transitions.

    A full window of ``n_step`` frames emits its first frame, bootstrapped
    from the current observation; an episode's end emits every frame left,
    each with its shortened horizon."""
    out: list[Transition] = []
    for _ in range(steps):
        obs, frames = env.obs, env.frames
        if net is None or rng.random() < epsilon:
            action = int(rng.integers(env.action_space.n_actions))
        else:
            with ad.no_grad():
                _, q = q_values(obs, net, rng.uniform(size=k_taus))
            action = int(np.argmax(q.data))
        env.state, reward, done, env.obs = env_step(env.state, action)
        frames.append((obs, action, reward))
        while len(frames) == n_step or (done and frames):
            g = sum(gamma ** i * frames[i][2] for i in range(len(frames)))
            out.append(Transition(frames[0][0], frames[0][1], g, env.obs,
                                  done, len(frames)))
            frames.pop(0)
        if done:
            env.begin_episode()
    return out


def td_loss(batch: Sequence[Transition], weights: np.ndarray, net: QNetwork,
            target_net: QNetwork, k_taus: int = 8, kp_taus: int = 8,
            gamma: float = 0.99, kappa: float = 1.0, *,
            rng: np.random.Generator) -> tuple[ad.Tensor, np.ndarray]:
    """Quantile Huber loss over the batch plus per-item priorities.

    Bootstrap actions come from the online net (double estimation); their
    quantile values come from the target net. Priorities are the mean
    absolute pairwise temporal-difference errors.
    """
    if len(batch) == 0:
        raise ValueError("empty batch")
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != (len(batch),):
        raise ValueError(f"{len(batch)} items but weights of shape {weights.shape}")
    # every item's draws first, in the order a per-item loop would make them
    draws = [(rng.uniform(size=k_taus), rng.uniform(size=kp_taus),
              None if tr.done else rng.uniform(size=k_taus)) for tr in batch]
    targets = np.array([np.full(kp_taus, tr.g) for tr in batch])
    live = [b for b, tr in enumerate(batch) if not tr.done]
    if live:
        boot_obs = [batch[b].bootstrap_obs for b in live]
        with ad.no_grad():
            _, q_boot = batch_q_values(boot_obs, net, [draws[b][2] for b in live])
            z_target, _ = batch_q_values(boot_obs, target_net,
                                         [draws[b][1] for b in live])
        z_picked = z_target.data.reshape(len(live), kp_taus, -1)[
            np.arange(len(live)), :, q_boot.data.argmax(axis=1)]   # (live, K')
        for i, b in enumerate(live):
            targets[b] = batch[b].g + gamma ** batch[b].steps * z_picked[i]

    # one gradient forward over the union; the loss stays per item
    n = len(batch)
    taus = np.array([d[0] for d in draws])                     # (B, K)
    z, _ = batch_q_values([tr.obs for tr in batch], net, taus)
    pick = np.eye(net.n_actions)[[tr.action for tr in batch], None]   # (B, 1, A)
    # every other term of the sum is +-0, so z_a is exact
    z_a = ad.tsum(ad.mul(ad.reshape(z, (n, k_taus, -1)), ad.constant(pick)),
                  axis=2, keepdims=True)                       # (B, K, 1)
    delta = ad.sub(ad.constant(targets[:, None, :]), z_a)      # (B, K, K')
    indicator = (delta.data < 0.0).astype(np.float64)
    tau_weight = np.abs(taus[:, :, None] - indicator)
    rho = ad.mul(ad.constant(tau_weight), ad.huber(delta, kappa))
    items = ad.mul(ad.tsum(ad.reshape(rho, (n, -1)), axis=1),
                   ad.constant(weights / (kp_taus * kappa)))
    loss = ad.mul(ad.fold_sum(items), ad.constant(1.0 / n))
    priorities = np.abs(delta.data).reshape(n, -1).mean(axis=1)
    return loss, priorities


class EpochRow(NamedTuple):
    epoch: int
    mean_loss: float
    epsilon: float
    val_makespan: float
    wall_time: float


@dataclass
class TrainResult:
    net: QNetwork
    best_validation: float
    history: list[EpochRow]
    checkpoint_path: Optional[Path] = None
    log_path: Optional[Path] = None


def run_policy(net: Optional[QNetwork], instances: Sequence[Instance],
               action_space: ActionSpace, t_max: int, seed: int = 0,
               k_taus: int = 8, perturbation_strength: int = 3) -> list[EnvState]:
    """Roll the policy out on every instance; returns the final states.

    Instance i resets with seed ``seed + i``. Greedy steps use fixed quantile
    midpoints, so repeat runs are bit-stable, and break ties by the first
    action. The instances step in lockstep, with one forward per step; a
    random policy (``net=None``) draws from each instance's own generator."""
    taus = (np.arange(k_taus) + 0.5) / k_taus
    resets = [env_reset(instance, action_space, seed=seed + i, t_max=t_max,
                        perturbation_strength=perturbation_strength)
              for i, instance in enumerate(instances)]
    states, obs = [state for state, _ in resets], [first for _, first in resets]
    rngs = [np.random.default_rng(seed + 7919 * i) for i in range(len(instances))]
    while live := [i for i, state in enumerate(states) if not state.done]:
        if net is None:
            actions = [int(rngs[i].integers(action_space.n_actions)) for i in live]
        else:
            with ad.no_grad():
                _, q = batch_q_values([obs[i] for i in live], net,
                                      [taus] * len(live))
            actions = q.data.argmax(axis=1).tolist()
        for i, action in zip(live, actions):
            states[i], _, _, obs[i] = env_step(states[i], action)
    return states


def evaluate(net: Optional[QNetwork], instances: Sequence[Instance],
             action_space: ActionSpace, t_max: int, seed: int = 0,
             k_taus: int = 8, perturbation_strength: int = 3) -> np.ndarray:
    """Best makespan per instance under the policy (see ``run_policy``)."""
    states = run_policy(net, instances, action_space, t_max, seed, k_taus,
                        perturbation_strength)
    return np.array([state.best_cost for state in states], dtype=np.float64)


def _write_log(path: Path, history: Sequence[EpochRow]) -> None:
    with open(path, "w") as fh:
        fh.write("epoch,mean_loss,epsilon,val_makespan,wall_time\n")
        for row in history:
            fh.write(f"{row.epoch},{row.mean_loss:.6f},{row.epsilon:.4f},"
                     f"{row.val_makespan:.4f},{row.wall_time:.2f}\n")


def train(config: TrainConfig, instance_factory: InstanceFactory,
          seed: Optional[int] = None,
          out_dir: Optional[Path] = None) -> TrainResult:
    """Interleave collection and optimization; keep the validation-best net."""
    rng = np.random.default_rng(seed)
    net = QNetwork(config.action_space.n_actions, config.net,
                   seed=int(rng.integers(1 << 31)))
    target = net.clone()
    optimizer = Adam(net, lr=config.lr)
    buffer = ReplayBuffer(config.buffer_capacity, config.per_alpha,
                          config.per_beta)
    env = EnvHandle(instance_factory, config.action_space, config.t_max,
                    config.perturbation_strength,
                    seed=int(rng.integers(1 << 31)))

    val_rng = np.random.default_rng(config.validation_seed)
    val_instances = [instance_factory(val_rng)
                     for _ in range(config.n_validation)]

    def validation_score(model: QNetwork) -> float:
        return float(evaluate(model, val_instances, config.action_space,
                              config.t_max, seed=config.validation_seed,
                              k_taus=config.k_taus,
                              perturbation_strength=config.perturbation_strength
                              ).mean())

    t_start = time.time()
    history: list[EpochRow] = []
    best_val = validation_score(net)
    best_net = net.clone()
    history.append(EpochRow(0, float("nan"), config.eps_start, best_val,
                            time.time() - t_start))

    global_step = 0
    optimizer_steps = 0
    for epoch in range(1, config.epochs + 1):
        losses: list[float] = []
        for _ in range(config.transitions_per_epoch):
            eps = config.epsilon(global_step)
            for tr in collect(env, net, eps, 1, rng,
                              n_step=config.n_step, gamma=config.gamma,
                              k_taus=config.k_taus):
                buffer.add(tr)
            global_step += 1
            if (buffer.size >= config.warmup
                    and global_step % config.optimize_every == 0):
                idx, batch, weights = buffer.sample(config.batch_size, rng)
                net.zero_grad()
                loss, pri = td_loss(batch, weights, net, target,
                                    config.k_taus, config.kp_taus,
                                    gamma=config.gamma, kappa=config.kappa,
                                    rng=rng)
                if not np.isfinite(loss.data):
                    raise RuntimeError(
                        f"training diverged: non-finite loss at epoch {epoch}, "
                        f"step {global_step}, epsilon {eps:.3f}")
                loss.backward()
                optimizer.step(net)
                buffer.update_priorities(idx, pri)
                losses.append(float(loss.data))
                optimizer_steps += 1
                if optimizer_steps % config.target_update == 0:
                    target = net.clone()
        val = validation_score(net)
        history.append(EpochRow(epoch, float(np.mean(losses)) if losses
                                else float("nan"),
                                config.epsilon(global_step - 1), val,
                                time.time() - t_start))
        if val < best_val:
            best_val = val
            best_net = net.clone()

    checkpoint_path = log_path = None
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        checkpoint_path = out_dir / "checkpoint.npz"
        log_path = out_dir / "train_log.csv"
        save_checkpoint(best_net, checkpoint_path)
        _write_log(log_path, history)
    return TrainResult(best_net, best_val, history, checkpoint_path, log_path)
