"""Minimal reverse-mode autodiff on float64 numpy arrays.

A Tensor wraps an ndarray plus a gradient slot and a closure that pushes
gradients to its parents. Calling backward() on a scalar walks the tape in
reverse topological order and releases it as it goes: a node that has pushed
drops its gradient, closure and parent links, so only leaves (parameters)
keep gradients and a tape serves one backward. Only the operations the
Q-network needs are implemented; everything stays in double precision so
gradient checks can be tight.
"""
from __future__ import annotations

import contextlib
from itertools import groupby
from typing import Optional, Sequence, Union

import numpy as np
from scipy.special import erf

# while set, no tape is recorded (inference-only forwards)
_NO_GRAD = False


@contextlib.contextmanager
def no_grad():
    """Disable tape recording inside the block; outputs carry no gradients."""
    global _NO_GRAD
    prev = _NO_GRAD
    _NO_GRAD = True
    try:
        yield
    finally:
        _NO_GRAD = prev

_INV_SQRT2 = 1.0 / np.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)

ArrayLike = Union[np.ndarray, float, int, Sequence]


class Tensor:
    """Node of the computation tape."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_push")

    def __init__(self, data: ArrayLike, requires_grad: bool = False,
                 parents: tuple = (), push=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: Optional[np.ndarray] = None
        if _NO_GRAD:
            self.requires_grad = False
        else:
            self.requires_grad = requires_grad or any(
                p.requires_grad for p in parents)
        self._parents = parents if self.requires_grad else ()
        self._push = push if self.requires_grad else None

    @property
    def shape(self) -> tuple:
        return self.data.shape

    def _accumulate(self, g: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.array(g, dtype=np.float64)
            if self.grad.shape != self.data.shape:
                self.grad = np.broadcast_to(self.grad, self.data.shape).copy()
        else:
            self.grad += g

    def backward(self) -> None:
        if self.data.size != 1:
            raise ValueError("backward() requires a scalar loss")
        if not self.requires_grad:
            raise RuntimeError("no recorded forward pass reaches this tensor")
        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            if node._push is _spent:
                _spent(None)
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if parent.requires_grad and id(parent) not in seen:
                    stack.append((parent, False))
        self._accumulate(np.ones_like(self.data))
        while order:   # popping lets a spent node's arrays go at once
            node = order.pop()
            if node._push is not None:
                if node.grad is not None:
                    node._push(node.grad)
                node.grad, node._push, node._parents = None, _spent, ()

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def _spent(g) -> None:
    """The closure of a node that has pushed; its tape cannot run again."""
    raise RuntimeError("backward() reached a tape that was already used; "
                       "run the forward pass again")


def constant(x: ArrayLike) -> Tensor:
    return Tensor(x)


def parameter(x: ArrayLike) -> Tensor:
    return Tensor(x, requires_grad=True)


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a broadcast gradient back down to the original shape."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, d in enumerate(shape) if d == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def add(a: Tensor, b: Tensor) -> Tensor:
    def push(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g, b.shape))
    return Tensor(a.data + b.data, parents=(a, b), push=push)


def sub(a: Tensor, b: Tensor) -> Tensor:
    def push(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(-g, b.shape))
    return Tensor(a.data - b.data, parents=(a, b), push=push)


def mul(a: Tensor, b: Tensor) -> Tensor:
    def push(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g * b.data, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g * a.data, b.shape))
    return Tensor(a.data * b.data, parents=(a, b), push=push)


def _normal_cdf(x: np.ndarray) -> np.ndarray:
    """0.5 * (1 + erf(x / sqrt 2)), evaluated in a single buffer."""
    cdf = x * _INV_SQRT2
    erf(cdf, out=cdf)
    cdf += 1.0
    cdf *= 0.5
    return cdf


def gelu(x: Tensor) -> Tensor:
    """Exact Gaussian-error-function GeLU."""
    cdf = _normal_cdf(x.data)
    def push(g):
        if x.requires_grad:
            pdf = np.exp(-0.5 * x.data * x.data) * _INV_SQRT_2PI
            x._accumulate(g * (cdf + x.data * pdf))
    return Tensor(x.data * cdf, parents=(x,), push=push)


def tsum(x: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    def push(g):
        if not x.requires_grad:
            return
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        x._accumulate(np.broadcast_to(g, x.shape).copy())
    return Tensor(x.data.sum(axis=axis, keepdims=keepdims), parents=(x,), push=push)


def fold_sum(x: Tensor) -> Tensor:
    """Sum of a 1-D tensor as the left fold ((x0 + x1) + x2) + ...; np.sum adds
    eight or more values pairwise, which rounds differently."""
    def push(g):
        if x.requires_grad:
            x._accumulate(np.broadcast_to(g, x.shape).copy())
    return Tensor(np.cumsum(x.data)[-1], parents=(x,), push=push)


def permute_rows(x: Tensor, perm: np.ndarray) -> Tensor:
    """Gather rows by a permutation."""
    def push(g):
        if x.requires_grad:
            gx = np.empty_like(x.data)
            gx[perm] = g
            x._accumulate(gx)
    return Tensor(x.data[perm], parents=(x,), push=push)


def neighbor_sum(h: Tensor, nbr: np.ndarray) -> Tensor:
    """out[i] = h[nbr[i, 0]] + h[nbr[i, 1]], where id len(h) adds zero.

    The table must be symmetric (j lists i as often as i lists j), so the
    backward pass is the same gather applied to the gradient.
    """
    def gather(x: np.ndarray) -> np.ndarray:
        xp = np.concatenate([x, np.zeros((1, x.shape[1]))])
        return xp[nbr[:, 0]] + xp[nbr[:, 1]]
    def push(g):
        if h.requires_grad:
            h._accumulate(gather(g))
    return Tensor(gather(h.data), parents=(h,), push=push)


def concat(parts: Sequence[Tensor], axis: int = 0) -> Tensor:
    parts = list(parts)
    sizes = [p.shape[axis] for p in parts]
    splits = np.cumsum(sizes)[:-1]
    def push(g):
        for part, piece in zip(parts, np.split(g, splits, axis=axis)):
            if part.requires_grad:
                part._accumulate(piece)
    return Tensor(np.concatenate([p.data for p in parts], axis=axis),
                  parents=tuple(parts), push=push)


def reshape(x: Tensor, shape: tuple) -> Tensor:
    old = x.shape
    def push(g):
        if x.requires_grad:
            x._accumulate(g.reshape(old))
    return Tensor(x.data.reshape(shape), parents=(x,), push=push)


def huber(x: Tensor, kappa: float = 1.0) -> Tensor:
    """Elementwise Huber with threshold kappa."""
    a = np.abs(x.data)
    out = np.where(a <= kappa, 0.5 * x.data * x.data, kappa * (a - 0.5 * kappa))
    def push(g):
        if x.requires_grad:
            x._accumulate(g * np.clip(x.data, -kappa, kappa))
    return Tensor(out, parents=(x,), push=push)


def _runs(sizes: Optional[Sequence[int]], rows: int) -> list:
    """The runs of consecutive equal sizes among a disjoint union's graphs
    (``None``: one graph of all ``rows``), each as (first graph, first row,
    r graphs, n rows per graph).

    Backward passes given ``sizes`` reduce parameter gradients and multiply by
    a transposed operand one graph at a time, in graph order, as one stacked
    product or sum per run over its (r, n, d) reshape view: BLAS rounds a row
    of ``g @ w.T`` by the call's row count, and B separate tapes sum each
    parameter's gradient graph 0 first. So the union's gradients equal theirs
    bit for bit; elementwise steps and the forward ``x @ w`` stay one call."""
    if sizes is None:
        return [(0, 0, 1, rows)]
    runs, first, row = [], 0, 0
    for n, same in groupby(sizes):
        r = len(list(same))
        runs.append((first, row, r, n))
        first, row = first + r, row + r * n
    return runs


def _stacks(a: np.ndarray, runs: list) -> list:
    """The rows of ``a`` as one (r, n, d) view per run."""
    return [a[row:row + r * n].reshape(r, n, -1) for _, row, r, n in runs]


# Most bytes one stack of weight-gradient products may take (a full-scale
# head's 32-graph stack is 25 MB). ``_fold`` adds a run's consecutive chunks
# in the order of one stack, so the cap changes peak memory, not gradients.
_PRODUCT_BYTES = 4 * 2**20


def _products(a: np.ndarray, g: np.ndarray, runs: list):
    """Per run, its graphs' products a_b.T @ g_b as (k, d_a, d_g) stacks of
    k consecutive graphs, each within ``_PRODUCT_BYTES``."""
    k = max(1, _PRODUCT_BYTES // (a.shape[1] * g.shape[1] * 8))
    for sa, sg in zip(_stacks(a, runs), _stacks(g, runs)):
        for i in range(0, len(sa), k):
            yield np.matmul(sa[i:i + k].transpose(0, 2, 1), sg[i:i + k])


def _sums(g: np.ndarray, runs: list):
    """Per run, its graphs' row sums as one (r, d) stack."""
    return (sg.sum(axis=1) for sg in _stacks(g, runs))


def _times_t(g: np.ndarray, w: np.ndarray, runs: list) -> np.ndarray:
    """g @ w.T one graph at a time, as one stacked product per run; ``w.T``
    stays a view, since a contiguous copy rounds differently."""
    out = np.empty((len(g), len(w)))
    for sg, so in zip(_stacks(g, runs), _stacks(out, runs)):
        np.matmul(sg, w.T, out=so)
    return out


def _fold(t: Tensor, stacks) -> None:
    """Add a parameter's per-graph gradient terms, stacked per run, to its
    gradient in graph order, with one write of ``t.grad``. Each run's first
    term takes the running total, if any, and the run is summed along axis 0,
    which adds its terms one at a time: ((total + t0) + t1) + ..., rounded as
    one ``_accumulate`` per term would."""
    if t.requires_grad:
        total = t.grad
        for stack in stacks:
            if total is not None:
                stack[0] += total
            total = stack.sum(axis=0)
        t.grad = total


def block_max(x: Tensor, sizes: Sequence[int]) -> Tensor:
    """(len(sizes), d) maxima of the consecutive row blocks of 2-D ``x`` with
    these sizes, one reduction per run of equal sizes (see ``_runs``); the
    gradient flows to each block's first maximizer only."""
    runs = _runs(sizes, len(x.data))
    stacks = _stacks(x.data, runs)
    idx = [s.argmax(axis=1)[:, None] for s in stacks]
    out = np.concatenate([np.take_along_axis(s, i, axis=1)[:, 0]
                          for s, i in zip(stacks, idx)])
    def push(g):
        if x.requires_grad:
            gx = np.zeros_like(x.data)
            for (first, _, r, _), s, i in zip(runs, _stacks(gx, runs), idx):
                np.put_along_axis(s, i, g[first:first + r, None], axis=1)
            x._accumulate(gx)
    return Tensor(out, parents=(x,), push=push)


def block_mean(x: Tensor, sizes: Sequence[int]) -> Tensor:
    """(len(sizes), d) means of the consecutive row blocks of 2-D ``x`` with
    these sizes: one sum per run of equal sizes, which adds a block's rows one
    at a time, then a division by the block's size, as ``np.mean`` does."""
    counts = np.asarray(sizes)[:, None]
    def push(g):
        if x.requires_grad:
            x._accumulate(np.repeat(g / counts, sizes, axis=0))
    return Tensor(np.concatenate(list(_sums(x.data, _runs(sizes, len(x.data)))))
                  / counts, parents=(x,), push=push)


def layer_norm(x: Tensor, scale: Tensor, shift: Tensor, eps: float = 1e-5,
               sizes: Optional[Sequence[int]] = None) -> Tensor:
    """Normalize the last axis, then apply the learned affine map; ``sizes``
    splits the rows of 2-D ``x`` into graphs (see ``_runs``)."""
    mu = x.data.mean(axis=-1, keepdims=True)
    centered = x.data - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = centered * inv

    def push(g):
        runs = _runs(sizes, len(g))
        if scale.requires_grad:
            _fold(scale, _sums(g * xhat, runs))
        _fold(shift, _sums(g, runs))
        if x.requires_grad:
            gx = g * scale.data
            x._accumulate(inv * (gx - gx.mean(axis=-1, keepdims=True)
                                 - xhat * (gx * xhat).mean(axis=-1, keepdims=True)))
    return Tensor(xhat * scale.data + shift.data,
                  parents=(x, scale, shift), push=push)


def linear(x: Tensor, w: Tensor, b: Tensor,
           sizes: Optional[Sequence[int]] = None) -> Tensor:
    """Affine map x @ w + b for 2-D x; ``sizes`` splits the rows into graphs
    (see ``_runs``)."""
    def push(g):
        runs = _runs(sizes, len(g))
        if x.requires_grad:
            x._accumulate(_times_t(g, w.data, runs))
        _fold(w, _products(x.data, g, runs))
        _fold(b, _sums(g, runs))
    return Tensor(x.data @ w.data + b.data, parents=(x, w, b), push=push)


def mlp(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor,
        sizes: Optional[Sequence[int]] = None) -> Tensor:
    """Two-layer perceptron with a GeLU between, fused into one tape node;
    ``sizes`` splits the rows into graphs (see ``_runs``)."""
    # in-place bias adds: same arithmetic, but no fresh (n, d) buffer to fault in
    z = x.data @ w1.data
    z += b1.data
    cdf = _normal_cdf(z)
    out = (z * cdf) @ w2.data
    out += b2.data

    def push(g):
        runs = _runs(sizes, len(g))
        if w2.requires_grad:
            # the forward's product, recomputed rather than kept
            _fold(w2, _products(z * cdf, g, runs))
        _fold(b2, _sums(g, runs))
        gz = _times_t(g, w2.data, runs)
        gz *= cdf + z * np.exp(-0.5 * z * z) * _INV_SQRT_2PI
        _fold(w1, _products(x.data, gz, runs))
        _fold(b1, _sums(gz, runs))
        if x.requires_grad:
            x._accumulate(_times_t(gz, w1.data, runs))
    return Tensor(out, parents=(x, w1, b1, w2, b2), push=push)
