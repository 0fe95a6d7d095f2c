"""Train a small accept/reject policy for a minute and compare it with
random actions on held-out instances.

The full paper-scale run needs 80 epochs of 19200 transitions; this demo
shrinks everything (network width, horizon, epochs) so it finishes quickly
while exercising the identical pipeline.
"""
import time

import numpy as np

from jobshopls import generate_instance
from jobshopls.env import ActionSpace
from jobshopls.nn import GNNConfig
from jobshopls.training import TrainConfig, evaluate, train

config = TrainConfig(
    epochs=2, transitions_per_epoch=400, warmup=100, t_max=5,
    batch_size=32, lr=5e-4, n_validation=8,
    net=GNNConfig(d_emb=16, mlp_hidden=16, iqn_hidden=32, n_tau_features=16))

factory = lambda rng: generate_instance(6, 6, seed=int(rng.integers(1 << 30)))

print("training an accept/reject policy on random 6x6 instances...")
t0 = time.time()
result = train(config, factory, seed=7)
print(f"done in {time.time() - t0:.0f}s\n")

print("epoch  mean loss  epsilon  validation makespan")
for row in result.history:
    loss = f"{'-':>10}" if np.isnan(row.mean_loss) else f"{row.mean_loss:10.3f}"
    print(f"{row.epoch:5} {loss}  {row.epsilon:7.2f}  {row.val_makespan:10.2f}")

held_out = [generate_instance(6, 6, seed=900_000 + i) for i in range(32)]
learned = evaluate(result.net, held_out, config.action_space,
                   t_max=config.t_max, seed=1)
random_policy = evaluate(None, held_out, config.action_space,
                         t_max=config.t_max, seed=1)
edge = 100 * (random_policy.mean() - learned.mean()) / random_policy.mean()
print(f"\nheld-out mean makespan: learned {learned.mean():.2f}, "
      f"random {random_policy.mean():.2f} ({edge:+.2f}% for the policy)")
print("(longer budgets and wider networks widen this margin; see the "
      "train subcommand)")
