"""Q-network over schedule graphs: GNN encoder, group pooling, quantile head.

The encoder embeds per-operation features, runs message-passing layers over
the job-precedence arcs and then the machine-order arcs, and pools node,
machine-group and scalar-feature embeddings into one state vector. The head
is an implicit quantile network: sampled quantile levels are embedded with
cosine features, fused with the state vector by elementwise product, and
decoded to one return quantile per action. Q-values are the quantile mean.
"""
from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import Iterable, Optional, Union

import numpy as np

from ..env import Observation
from . import autodiff as ad
from .autodiff import Tensor

CHECKPOINT_VERSION = 1


@dataclass(frozen=True)
class GNNConfig:
    """Architecture sizes; defaults are the full-scale model."""

    d_emb: int = 128
    mlp_hidden: int = 128
    l_stat: int = 3
    l_dyna: int = 2
    l_final_stat: int = 1
    iqn_hidden: int = 256
    n_tau_features: int = 64

    def __post_init__(self):
        for name in ("d_emb", "mlp_hidden", "iqn_hidden", "n_tau_features"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        if self.l_stat < 0 or self.l_dyna < 0 or self.l_final_stat < 0:
            raise ValueError("layer counts must be nonnegative")

    @property
    def n_layers(self) -> int:
        return self.l_stat + self.l_dyna + self.l_final_stat

    @property
    def layer_schedule(self) -> tuple:
        """Edge set used by each message-passing layer, in order."""
        return (("stat",) * self.l_stat + ("dyna",) * self.l_dyna
                + ("stat",) * self.l_final_stat)

    @classmethod
    def desk_scale(cls) -> "GNNConfig":
        """Small model for fast training runs and tests."""
        return cls(d_emb=32, mlp_hidden=32, iqn_hidden=64)


def _glorot(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


class QNetwork:
    """Parameter container plus forward passes; float64 throughout."""

    N_SCALARS = 7

    def __init__(self, n_actions: int, config: Optional[GNNConfig] = None,
                 d_in: int = 5, seed: Optional[int] = None):
        if n_actions < 1:
            raise ValueError("n_actions must be positive")
        self.n_actions = n_actions
        self.config = config or GNNConfig()
        self.d_in = d_in
        self.params: dict[str, Tensor] = {}
        self._init_params(np.random.default_rng(seed))

    def _mlp(self, rng, name: str, d_in: int, d_out: int) -> None:
        h = self.config.mlp_hidden
        self.params[f"{name}.w1"] = ad.parameter(_glorot(rng, d_in, h))
        self.params[f"{name}.b1"] = ad.parameter(np.zeros(h))
        self.params[f"{name}.w2"] = ad.parameter(_glorot(rng, h, d_out))
        self.params[f"{name}.b2"] = ad.parameter(np.zeros(d_out))

    def _init_params(self, rng: np.random.Generator) -> None:
        cfg = self.config
        d = cfg.d_emb
        self._mlp(rng, "emb", self.d_in, d)
        for i in range(cfg.n_layers):
            self._mlp(rng, f"gnn{i}.m1", d, d)
            self._mlp(rng, f"gnn{i}.m2", d, d)
            self.params[f"gnn{i}.ln.scale"] = ad.parameter(np.ones(d))
            self.params[f"gnn{i}.ln.shift"] = ad.parameter(np.zeros(d))
        self._mlp(rng, "post", d, d)
        self._mlp(rng, "grp", 2 * d, d)
        self.params["feat.w"] = ad.parameter(_glorot(rng, self.N_SCALARS, d))
        self.params["feat.b"] = ad.parameter(np.zeros(d))
        self.params["tau.w"] = ad.parameter(_glorot(rng, cfg.n_tau_features, 3 * d))
        self.params["tau.b"] = ad.parameter(np.zeros(3 * d))
        self.params["dec.w1"] = ad.parameter(_glorot(rng, 3 * d, cfg.iqn_hidden))
        self.params["dec.b1"] = ad.parameter(np.zeros(cfg.iqn_hidden))
        self.params["dec.w2"] = ad.parameter(_glorot(rng, cfg.iqn_hidden, self.n_actions))
        self.params["dec.b2"] = ad.parameter(np.zeros(self.n_actions))

    def parameters(self) -> Iterable[tuple[str, Tensor]]:
        return self.params.items()

    def n_parameters(self) -> int:
        return sum(p.data.size for p in self.params.values())

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad = None

    def _p(self, *names: str) -> tuple:
        return tuple(self.params[n] for n in names)

    def _run_mlp(self, name: str, x: Tensor) -> Tensor:
        return ad.mlp(x, *self._p(f"{name}.w1", f"{name}.b1",
                                  f"{name}.w2", f"{name}.b2"))

    def copy_from(self, other: "QNetwork") -> None:
        """Overwrite this net's parameters with another's (target sync)."""
        for name, p in other.params.items():
            self.params[name].data = p.data.copy()


def gnn_layer(h: Tensor, nbr: np.ndarray, net: QNetwork, index: int) -> Tensor:
    """One message-passing layer with residual and post-layer normalization.

    Messages are summed over the (n, 2) neighbour table ``nbr``, in which the
    id n means "no neighbour": O(n d) per layer, no n x n matrix.
    """
    n = h.shape[0]
    if nbr.shape != (n, 2) or (n and (nbr.min() < 0 or nbr.max() > n)):
        raise ValueError(f"neighbour table must be ({n}, 2) with ids in "
                         f"[0, {n}], got shape {nbr.shape}")
    pre = ad.gelu(ad.add(net._run_mlp(f"gnn{index}.m1", h),
                         net._run_mlp(f"gnn{index}.m2", ad.neighbor_sum(h, nbr))))
    scale, shift = net._p(f"gnn{index}.ln.scale", f"gnn{index}.ln.shift")
    return ad.layer_norm(ad.add(h, pre), scale, shift)


def encode(obs: Observation, net: QNetwork) -> tuple[Tensor, Tensor, Tensor]:
    """Embed an observation: per-node, per-group and scalar-feature vectors."""
    nbr = {"stat": obs.nbr_stat, "dyna": obs.nbr_dyna}
    h = net._run_mlp("emb", ad.constant(obs.node_feats))
    for i, kind in enumerate(net.config.layer_schedule):
        h = gnn_layer(h, nbr[kind], net, i)
    omega_node = net._run_mlp("post", h)

    counts = np.bincount(obs.groups, minlength=obs.n_groups)
    if counts.min() == 0:
        raise ValueError(f"group {int(counts.argmin())} has no member nodes")
    if np.all(counts == counts[0]):
        # equal-size groups (always true for JSSP) pool in one shot
        order = np.argsort(obs.groups, kind="stable")
        stacked = ad.reshape(ad.permute_rows(omega_node, order),
                             (obs.n_groups, counts[0], -1))
        pooled = ad.concat([ad.amax(stacked, axis=1),
                            ad.tmean(stacked, axis=1)], axis=1)
        omega_grp = net._run_mlp("grp", pooled)
    else:
        group_rows = []
        for k in range(obs.n_groups):
            members = ad.rows(omega_node, np.flatnonzero(obs.groups == k))
            pooled = ad.concat([ad.amax(members, axis=0),
                                ad.tmean(members, axis=0)], axis=0)
            group_rows.append(net._run_mlp("grp", ad.reshape(pooled, (1, -1))))
        omega_grp = ad.concat(group_rows, axis=0)

    omega_feat = ad.linear(ad.constant(obs.scalars[None, :]),
                           *net._p("feat.w", "feat.b"))
    return omega_node, omega_grp, omega_feat


def q_values(obs: Observation, net: QNetwork,
             taus: np.ndarray) -> tuple[Tensor, Tensor]:
    """Return quantile values (|taus| x |A|) and their mean Q (|A|,)."""
    taus = np.asarray(taus, dtype=np.float64)
    if taus.size == 0:
        raise ValueError("taus must be nonempty")
    omega_node, omega_grp, omega_feat = encode(obs, net)
    pooled = ad.concat([ad.tmean(omega_node, axis=0, keepdims=True),
                        ad.tmean(omega_grp, axis=0, keepdims=True),
                        omega_feat], axis=1)
    m = np.arange(net.config.n_tau_features)
    cos_feats = np.cos(np.pi * taus[:, None] * m[None, :])
    phi = ad.gelu(ad.linear(ad.constant(cos_feats), *net._p("tau.w", "tau.b")))
    fused = ad.mul(pooled, phi)
    hidden = ad.gelu(ad.linear(fused, *net._p("dec.w1", "dec.b1")))
    z = ad.linear(hidden, *net._p("dec.w2", "dec.b2"))
    return z, ad.tmean(z, axis=0)


def greedy_action(obs: Observation, net: QNetwork,
                  taus: np.ndarray) -> int:
    """Argmax of the mean Q; first index wins ties."""
    _, q = q_values(obs, net, taus)
    return int(np.argmax(q.data))


def policy_probs(q: np.ndarray) -> np.ndarray:
    """Softmax over mean Q-values."""
    q = np.asarray(q, dtype=np.float64)
    e = np.exp(q - q.max())
    return e / e.sum()


def save_checkpoint(net: QNetwork, path) -> None:
    """Dump config plus every parameter array; round-trips bit-exactly."""
    meta = {
        "version": CHECKPOINT_VERSION,
        "n_actions": net.n_actions,
        "d_in": net.d_in,
        "config": asdict(net.config),
    }
    arrays = {f"param:{name}": p.data for name, p in net.params.items()}
    with open(path, "wb") as fh:
        np.savez(fh, __meta__=np.frombuffer(
            json.dumps(meta, sort_keys=True).encode(), dtype=np.uint8),
            **arrays)


def load_checkpoint(path) -> QNetwork:
    with np.load(path) as data:
        meta = json.loads(bytes(data["__meta__"]).decode())
        if meta["version"] != CHECKPOINT_VERSION:
            raise ValueError(f"unsupported checkpoint version {meta['version']}")
        net = QNetwork(meta["n_actions"], GNNConfig(**meta["config"]),
                       d_in=meta["d_in"], seed=0)
        for name in net.params:
            key = f"param:{name}"
            if key not in data:
                raise ValueError(f"checkpoint missing parameter {name}")
            net.params[name] = ad.parameter(np.asarray(data[key], dtype=np.float64))
    return net
