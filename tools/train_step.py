"""Wall time and traced peak memory of one optimizer step's gradient pass.

Run from the root of a checkout:

    python3 tools/train_step.py --out BENCH.json

For the desk-scale and the full-scale net on a random 6x6 and a random 15x15
instance, it collects BATCH transitions with random actions (action space A
and the horizon of ``TrainConfig``; an n-step transition needs n steps, so it
takes BATCH + n - 1 steps) and runs ``td_loss`` plus ``backward`` on
them, as one optimizer step of ``training.train`` does. It records the
minimum wall time over REPEATS steps, untraced, the minimum over the same
steps of ``backward`` alone (``backward_ms``), and the ``tracemalloc`` peak
of one more step: the most memory the step held at once, beyond what was
allocated before it (the nets and the batch). Results go under
``train_step`` in the output file, together with the core count and the
numpy and Python versions; other keys already in the file are kept.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path.cwd() / "src"))

from jobshopls import generate_instance  # noqa: E402
from jobshopls.nn import GNNConfig, QNetwork  # noqa: E402
from jobshopls.training import (EnvHandle, TrainConfig, collect,  # noqa: E402
                                td_loss)

BATCH = 32
REPEATS = 3
NETS = {"desk": GNNConfig.desk_scale(), "full": GNNConfig()}
SIZES = (6, 15)


def gradient_step(batch, net, target, seed: int) -> tuple:
    """One step's gradient pass, as the wall seconds of ``td_loss`` and of
    ``backward``; the loss is dropped on return."""
    net.zero_grad()
    t0 = time.perf_counter()
    loss, _ = td_loss(batch, np.ones(len(batch)), net, target,
                      rng=np.random.default_rng(seed))
    t1 = time.perf_counter()
    loss.backward()
    return t1 - t0, time.perf_counter() - t1


def measure(net_config: GNNConfig, size: int) -> dict:
    config = TrainConfig()
    inst = generate_instance(size, size, seed=0)
    env = EnvHandle(lambda rng: inst, config.action_space, config.t_max, seed=0)
    batch = collect(env, None, 1.0, BATCH + config.n_step - 1,
                    np.random.default_rng(0), n_step=config.n_step,
                    gamma=config.gamma, k_taus=config.k_taus)
    if len(batch) != BATCH:
        raise RuntimeError(f"collected {len(batch)} transitions, not {BATCH}")
    net = QNetwork(config.action_space.n_actions, net_config, seed=0)
    target = QNetwork(config.action_space.n_actions, net_config, seed=1)
    times = [gradient_step(batch, net, target, k) for k in range(REPEATS)]
    net.zero_grad()
    tracemalloc.start()
    gradient_step(batch, net, target, REPEATS)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return {"wall_ms": round(min(f + b for f, b in times) * 1e3, 1),
            "backward_ms": round(min(b for _, b in times) * 1e3, 1),
            "traced_peak_mb": round(peak / 2**20, 1)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    steps = {}
    for name, net_config in NETS.items():
        for size in SIZES:
            key = f"{name}/{size}x{size}"
            steps[key] = measure(net_config, size)
            print(key, steps[key], flush=True)
    report = json.loads(args.out.read_text()) if args.out.exists() else {}
    report["train_step"] = {
        "command": f"python3 tools/train_step.py --out {args.out}",
        "batch": BATCH, "repeats": REPEATS, "steps": steps,
        "env": {"nproc": os.cpu_count(), "numpy": np.__version__,
                "python": platform.python_version()}}
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
