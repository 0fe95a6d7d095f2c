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
import zipfile
from dataclasses import asdict, dataclass
from itertools import accumulate
from typing import Mapping, Optional, Sequence

import numpy as np

from ..env import N_NODE_FEATURES, N_SCALAR_FEATURES, Observation
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

    def __init__(self, n_actions: int, config: Optional[GNNConfig] = None,
                 seed: Optional[int] = None,
                 arrays: Optional[Mapping[str, np.ndarray]] = None):
        """Weights drawn from ``seed`` (Glorot; zero biases, unit scales), or
        taken from ``arrays``, which maps every parameter name to its array."""
        if n_actions < 1:
            raise ValueError("n_actions must be positive")
        self.n_actions = n_actions
        self.config = config or GNNConfig()
        self.params: dict[str, Tensor] = {}
        rng = np.random.default_rng(seed)
        for name, shape in self._shapes().items():
            if arrays is None:
                value = (_glorot(rng, *shape) if len(shape) == 2
                         else np.ones(shape) if name.endswith(".scale")
                         else np.zeros(shape))
            elif name not in arrays:
                raise ValueError(f"missing parameter {name}")
            else:
                value = np.asarray(arrays[name], dtype=np.float64)
                if value.shape != shape:
                    raise ValueError(f"parameter {name} has shape {value.shape}, "
                                     f"expected {shape}")
            self.params[name] = ad.parameter(value)

    def _shapes(self) -> dict[str, tuple]:
        """Every parameter's shape, in the order the weights are drawn."""
        cfg, d, h = self.config, self.config.d_emb, self.config.mlp_hidden
        def mlp(name: str, d_in: int, d_out: int) -> dict:
            return {f"{name}.w1": (d_in, h), f"{name}.b1": (h,),
                    f"{name}.w2": (h, d_out), f"{name}.b2": (d_out,)}
        shapes = mlp("emb", N_NODE_FEATURES, d)
        for i in range(cfg.n_layers):
            shapes |= mlp(f"gnn{i}.m1", d, d) | mlp(f"gnn{i}.m2", d, d)
            shapes[f"gnn{i}.ln.scale"] = shapes[f"gnn{i}.ln.shift"] = (d,)
        shapes |= mlp("post", d, d) | mlp("grp", 2 * d, d)
        shapes.update({"feat.w": (N_SCALAR_FEATURES, d), "feat.b": (d,),
                       "tau.w": (cfg.n_tau_features, 3 * d), "tau.b": (3 * d,),
                       "dec.w1": (3 * d, cfg.iqn_hidden), "dec.b1": (cfg.iqn_hidden,),
                       "dec.w2": (cfg.iqn_hidden, self.n_actions),
                       "dec.b2": (self.n_actions,)})
        return shapes

    def n_parameters(self) -> int:
        return sum(p.data.size for p in self.params.values())

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad = None

    def _p(self, *names: str) -> tuple:
        return tuple(self.params[n] for n in names)

    def _run_mlp(self, name: str, x: Tensor, sizes=None) -> Tensor:
        return ad.mlp(x, *self._p(f"{name}.w1", f"{name}.b1",
                                  f"{name}.w2", f"{name}.b2"), sizes=sizes)

    def clone(self) -> "QNetwork":
        """A net built from copies of this one's parameter arrays."""
        return QNetwork(self.n_actions, self.config, arrays={
            name: p.data.copy() for name, p in self.params.items()})


def _checked_group_sizes(obs: Observation, where: str) -> np.ndarray:
    """Members per group; a bad table or an empty group raises ``where`` + why."""
    n = obs.node_feats.shape[0]
    for nbr in (obs.nbr_stat, obs.nbr_dyna):
        if nbr.shape != (n, 2) or (n and (nbr.min() < 0 or nbr.max() > n)):
            raise ValueError(f"{where}neighbour table must be ({n}, 2) with ids "
                             f"in [0, {n}], got shape {nbr.shape}")
    counts = np.bincount(obs.groups, minlength=obs.n_groups)
    if counts.min() == 0:
        raise ValueError(f"{where}group {int(counts.argmin())} has no member nodes")
    return counts


def _gnn_layer(h: Tensor, nbr: np.ndarray, net: QNetwork, index: int,
               sizes=None) -> Tensor:
    """One message-passing layer with residual and post-layer normalization.

    Messages are summed over the (n, 2) neighbour table ``nbr``, in which the
    id n means "no neighbour": O(n d) per layer, no n x n matrix. ``encode``
    checks the tables before its first layer. ``sizes`` are the node counts
    of the union's graphs.
    """
    pre = ad.gelu(ad.add(net._run_mlp(f"gnn{index}.m1", h, sizes), net._run_mlp(
        f"gnn{index}.m2", ad.neighbor_sum(h, nbr), sizes)))
    scale, shift = net._p(f"gnn{index}.ln.scale", f"gnn{index}.ln.shift")
    return ad.layer_norm(ad.add(h, pre), scale, shift, sizes=sizes)


def encode(observations: Sequence[Observation],
           net: QNetwork) -> tuple[Tensor, Tensor, Tensor]:
    """Per-node and per-group vectors of the disjoint union of B >= 1
    observations, and their (B, d) scalar-feature vectors. Node and group ids
    are offset per graph; "no neighbour" becomes the union's node count."""
    counts = np.concatenate([_checked_group_sizes(obs, f"observation {b}: ")
                             for b, obs in enumerate(observations)])
    sizes = [len(obs.node_feats) for obs in observations]
    starts = list(accumulate(sizes, initial=0))
    nbr = {kind: np.concatenate([
        np.where(t < e - s, t + s, starts[-1]) for t, s, e in
        zip((getattr(obs, f"nbr_{kind}") for obs in observations), starts, starts[1:])])
        for kind in ("stat", "dyna")}
    groups = np.concatenate([obs.groups + g for obs, g in zip(observations, accumulate(
        (obs.n_groups for obs in observations), initial=0))])
    h = net._run_mlp("emb", ad.constant(np.concatenate(
        [obs.node_feats for obs in observations])), sizes)
    for i, kind in enumerate(net.config.layer_schedule):
        h = _gnn_layer(h, nbr[kind], net, i, sizes)
    omega_node = net._run_mlp("post", h, sizes)

    # group-ordered rows, so each group is one consecutive block
    grouped = ad.permute_rows(omega_node, np.argsort(groups, kind="stable"))
    pooled = ad.concat([ad.block_max(grouped, counts),
                        ad.block_mean(grouped, counts)], axis=1)
    # one call for all groups: a one-row call would round differently (gemv)
    omega_grp = net._run_mlp("grp", pooled, [obs.n_groups for obs in observations])

    # one (1, 7) row per graph: stacked rows would round differently (gemm)
    omega_feat = ad.concat([ad.linear(ad.constant(obs.scalars[None, :]),
                                      *net._p("feat.w", "feat.b"))
                            for obs in observations])
    return omega_node, omega_grp, omega_feat


def batch_q_values(observations: Sequence[Observation], net: QNetwork,
                   taus: np.ndarray) -> tuple[Tensor, Tensor]:
    """One forward over the disjoint union of B observations, graph b at the
    quantile levels in row b of the (B, K) array ``taus``: the (B K, |A|)
    quantile rows in graph order and the (B, |A|) mean Q. Equal bit for bit
    to B single forwards, and so are the gradients of a loss summed over the
    graphs in order, if K is a multiple of 4 and each graph has two or more
    groups (BLAS rounds gemm rows by 4-row blocks, gemv differently)."""
    if (len({np.shape(t) for t in taus}) != 1 or np.ndim(taus) != 2
            or len(taus) != len(observations) or np.size(taus) == 0):
        raise ValueError("taus must be a nonempty (B, K) array, a row per observation")
    taus = np.asarray(taus, dtype=np.float64)
    omega_node, omega_grp, omega_feat = encode(observations, net)
    pooled = ad.concat([ad.block_mean(omega_node,
                                      [len(o.node_feats) for o in observations]),
                        ad.block_mean(omega_grp, [o.n_groups for o in observations]),
                        omega_feat], axis=1)
    (b, k), m = taus.shape, np.arange(net.config.n_tau_features)
    cos_feats = np.cos(np.pi * taus.reshape(-1, 1) * m[None, :])
    ks = [k] * b
    phi = ad.gelu(ad.linear(ad.constant(cos_feats), *net._p("tau.w", "tau.b"), ks))
    # one pooled row broadcast over its graph's taus
    fused = ad.reshape(ad.mul(ad.reshape(pooled, (b, 1, -1)),
                              ad.reshape(phi, (b, k, -1))), phi.shape)
    hidden = ad.gelu(ad.linear(fused, *net._p("dec.w1", "dec.b1"), ks))
    z = ad.linear(hidden, *net._p("dec.w2", "dec.b2"), ks)
    return z, ad.block_mean(z, ks)


def q_values(obs: Observation, net: QNetwork,
             taus: np.ndarray) -> tuple[Tensor, Tensor]:
    """Return quantile values (|taus| x |A|) and their mean Q (|A|,)."""
    z, q = batch_q_values([obs], net, [taus])
    return z, ad.reshape(q, (net.n_actions,))


def save_checkpoint(net: QNetwork, path) -> None:
    """Dump config plus every parameter array; round-trips bit-exactly."""
    meta = {"version": CHECKPOINT_VERSION, "n_actions": net.n_actions,
            "config": asdict(net.config)}
    arrays = {f"param:{name}": p.data for name, p in net.params.items()}
    with open(path, "wb") as fh:
        np.savez(fh, __meta__=np.frombuffer(
            json.dumps(meta, sort_keys=True).encode(), dtype=np.uint8),
            **arrays)


def load_checkpoint(path) -> QNetwork:
    """The net saved at ``path``; a file that is not an ``.npz`` archive, a
    missing or malformed ``__meta__`` record, a missing parameter or one of
    the wrong shape raises ``ValueError`` naming the file."""
    try:
        data = np.load(path)
    except (EOFError, ValueError, zipfile.BadZipFile):   # empty, pickled, cut
        data = None
    if not isinstance(data, np.lib.npyio.NpzFile):
        raise ValueError(f"checkpoint {path}: not an .npz archive")
    with data:
        if "__meta__" not in data.files:
            raise ValueError(f"checkpoint {path}: no __meta__ record; "
                             "not a file written by save_checkpoint")
        try:
            meta = json.loads(bytes(data["__meta__"]).decode())
            version, n_actions, config = (
                meta["version"], meta["n_actions"], meta["config"])
        except (KeyError, TypeError, ValueError):   # a key short, no object, no JSON
            raise ValueError(f"checkpoint {path}: the __meta__ record is not a JSON "
                             "object with version, n_actions and config") from None
        if version != CHECKPOINT_VERSION:
            raise ValueError(f"checkpoint {path}: unsupported version {version}")
        try:
            return QNetwork(n_actions, GNNConfig(**config), arrays={
                key[len("param:"):]: data[key]
                for key in data.files if key.startswith("param:")})
        except (TypeError, ValueError) as err:
            raise ValueError(f"checkpoint {path}: {err}") from None
