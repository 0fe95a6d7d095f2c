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
from itertools import accumulate
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


def _accumulate_graphs(t: Tensor, terms) -> None:
    """Add a parameter's per-graph gradient terms (fresh arrays of its shape)
    in graph order, into the first term if it has no gradient yet: one write
    of ``t.grad``, rounded as one ``_accumulate`` per term."""
    if t.requires_grad:
        terms = iter(terms)
        total = next(terms) if t.grad is None else t.grad
        for term in terms:
            total += term
        t.grad = total


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


def tmean(x: Tensor, axis=None, keepdims: bool = False, count=None) -> Tensor:
    """Mean along ``axis`` (all if None), sum then divide as ``np.mean`` does;
    ``count``, shaped like the sum with kept dims, replaces the axis length."""
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
    return Tensor(out if keepdims else np.squeeze(out, axis=axis),
                  parents=(x,), push=push)


def amax(x: Tensor, axis: int = 0) -> Tensor:
    """Max along one axis; gradient flows to the first maximizer only."""
    idx = x.data.argmax(axis=axis)
    out = np.take_along_axis(x.data, np.expand_dims(idx, axis), axis=axis)
    def push(g):
        if x.requires_grad:
            gx = np.zeros_like(x.data)
            np.put_along_axis(gx, np.expand_dims(idx, axis),
                              np.expand_dims(g, axis), axis=axis)
            x._accumulate(gx)
    return Tensor(np.squeeze(out, axis=axis), parents=(x,), push=push)


def blocks(x: Tensor, sizes: Sequence[int], fill: float) -> Tensor:
    """The consecutive row blocks of a 2-D tensor with these sizes, as one
    (len(sizes), max(sizes), d) array padded after each block with ``fill``."""
    sizes = np.asarray(sizes)
    mask = np.arange(sizes.max()) < sizes[:, None]
    out = np.full(mask.shape + x.shape[1:], fill, dtype=np.float64)
    out[mask] = x.data
    def push(g):
        if x.requires_grad:
            x._accumulate(g[mask])
    return Tensor(out, parents=(x,), push=push)


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


def _graphs(sizes: Optional[Sequence[int]]) -> list:
    """Row slices of the graphs of a disjoint union (``None``: one graph).

    Backward passes given ``sizes`` reduce parameter gradients and multiply by
    a transposed operand one graph at a time, in graph order: BLAS rounds a
    row of ``g @ w.T`` by the call's row count, and B separate tapes sum each
    parameter's gradient graph 0 first. So the union's gradients equal theirs
    bit for bit; elementwise steps and the forward ``x @ w`` stay one call."""
    if sizes is None:
        return [slice(None)]
    return [slice(e - s, e) for s, e in zip(sizes, accumulate(sizes))]


def layer_norm(x: Tensor, scale: Tensor, shift: Tensor, eps: float = 1e-5,
               sizes: Optional[Sequence[int]] = None) -> Tensor:
    """Normalize the last axis, then apply the learned affine map; ``sizes``
    splits the first axis into graphs (see ``_graphs``)."""
    mu = x.data.mean(axis=-1, keepdims=True)
    centered = x.data - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = centered * inv

    def push(g):
        lead = tuple(range(g.ndim - 1))
        parts = _graphs(sizes)
        if scale.requires_grad:
            gxhat = g * xhat
            _accumulate_graphs(scale, (gxhat[s].sum(axis=lead) for s in parts))
        _accumulate_graphs(shift, (g[s].sum(axis=lead) for s in parts))
        if x.requires_grad:
            gx = g * scale.data
            x._accumulate(inv * (gx - gx.mean(axis=-1, keepdims=True)
                                 - xhat * (gx * xhat).mean(axis=-1, keepdims=True)))
    return Tensor(xhat * scale.data + shift.data,
                  parents=(x, scale, shift), push=push)


def linear(x: Tensor, w: Tensor, b: Tensor,
           sizes: Optional[Sequence[int]] = None) -> Tensor:
    """Affine map x @ w + b for 2-D x; ``sizes`` splits the rows into graphs
    (see ``_graphs``)."""
    def push(g):
        parts = _graphs(sizes)
        if x.requires_grad:
            x._accumulate(np.concatenate([g[s] @ w.data.T for s in parts]))
        _accumulate_graphs(w, (x.data[s].T @ g[s] for s in parts))
        _accumulate_graphs(b, (g[s].sum(axis=0) for s in parts))
    return Tensor(x.data @ w.data + b.data, parents=(x, w, b), push=push)


def mlp(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor,
        sizes: Optional[Sequence[int]] = None) -> Tensor:
    """Two-layer perceptron with a GeLU between, fused into one tape node;
    ``sizes`` splits the rows into graphs (see ``_graphs``)."""
    # in-place bias adds: same arithmetic, but no fresh (n, d) buffer to fault in
    z = x.data @ w1.data
    z += b1.data
    cdf = _normal_cdf(z)
    out = (z * cdf) @ w2.data
    out += b2.data

    def push(g):
        parts = _graphs(sizes)
        if w2.requires_grad:
            a = z * cdf   # the forward's product, recomputed rather than kept
            _accumulate_graphs(w2, (a[s].T @ g[s] for s in parts))
        _accumulate_graphs(b2, (g[s].sum(axis=0) for s in parts))
        gz = np.concatenate([g[s] @ w2.data.T for s in parts])
        gz *= cdf + z * np.exp(-0.5 * z * z) * _INV_SQRT_2PI
        _accumulate_graphs(w1, (x.data[s].T @ gz[s] for s in parts))
        _accumulate_graphs(b1, (gz[s].sum(axis=0) for s in parts))
        if x.requires_grad:
            x._accumulate(np.concatenate([gz[s] @ w1.data.T for s in parts]))
    return Tensor(out, parents=(x, w1, b1, w2, b2), push=push)
