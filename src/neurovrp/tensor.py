"""Minimal dense-tensor engine with reverse-mode differentiation.

All buffers are float64 numpy arrays. A computation graph is built eagerly
by the ops below and consumed by a single `backward` call on a scalar.
Reduction order is fixed by numpy, so identical inputs give bit-identical
forward values.
"""

from __future__ import annotations

import hashlib
import json
import math
from typing import Callable, Iterable, Sequence

import numpy as np


class Tensor:
    """A dense f64 array with an optional gradient buffer.

    Tensors that are leaves (created directly with ``requires_grad=True``)
    accumulate gradients in ``.grad`` after ``backward``. Interior nodes
    hold backward closures until the graph is released.
    """

    __slots__ = ("values", "requires_grad", "grad", "_parents", "_backward", "_consumed")

    def __init__(self, values, requires_grad: bool = False,
                 _parents: tuple = (), _backward: Callable | None = None):
        self.values = np.asarray(values, dtype=np.float64)
        self.requires_grad = requires_grad or any(p.requires_grad for p in _parents)
        self.grad: np.ndarray | None = None
        self._parents = _parents if self.requires_grad else ()
        self._backward = _backward if self.requires_grad else None
        self._consumed = False

    @property
    def shape(self) -> tuple:
        return self.values.shape

    @property
    def size(self) -> int:
        return self.values.size

    def item(self) -> float:
        return float(self.values)

    def detach(self) -> "Tensor":
        return Tensor(self.values)

    def zero_grad(self) -> None:
        self.grad = None

    def _accumulate(self, g: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.zeros_like(self.values)
        self.grad += g

    def backward(self) -> None:
        """Run reverse-mode accumulation from this scalar.

        The graph is released afterwards; calling backward twice without
        re-running the forward pass raises.
        """
        if self.values.ndim != 0 and self.values.size != 1:
            raise ValueError(f"backward requires a scalar, got shape {self.shape}")
        if self._consumed:
            raise RuntimeError("backward called twice on a released graph")

        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p.requires_grad and id(p) not in seen:
                    stack.append((p, False))

        self._accumulate(np.ones_like(self.values))
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
            node._consumed = True
            if node._backward is not None:
                # interior node: release graph and scratch gradient
                node._backward = None
                node._parents = ()
                node.grad = None

    # -- operator sugar -------------------------------------------------
    def __add__(self, other):
        return add(self, _wrap(other))

    def __radd__(self, other):
        return add(_wrap(other), self)

    def __sub__(self, other):
        return add(self, mul_const(_wrap(other), -1.0))

    def __rsub__(self, other):
        return add(_wrap(other), mul_const(self, -1.0))

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return mul_const(self, float(other))
        return mul(self, other)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __neg__(self):
        return mul_const(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)


def _wrap(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float64))


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum `grad` down to `shape`, undoing numpy broadcasting."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


# -- elementwise ops ----------------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    out_vals = a.values + b.values

    def bw(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g, a.values.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g, b.values.shape))

    return Tensor(out_vals, _parents=(a, b), _backward=bw)


def mul(a: Tensor, b: Tensor) -> Tensor:
    out_vals = a.values * b.values

    def bw(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g * b.values, a.values.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g * a.values, b.values.shape))

    return Tensor(out_vals, _parents=(a, b), _backward=bw)


def mul_const(a: Tensor, c: float) -> Tensor:
    def bw(g):
        a._accumulate(g * c)

    return Tensor(a.values * c, _parents=(a,), _backward=bw)


def power(a: Tensor, p: float) -> Tensor:
    out_vals = a.values ** p

    def bw(g):
        a._accumulate(g * p * a.values ** (p - 1.0))

    return Tensor(out_vals, _parents=(a,), _backward=bw)


def tanh(a: Tensor) -> Tensor:
    out_vals = np.tanh(a.values)

    def bw(g):
        a._accumulate(g * (1.0 - out_vals ** 2))

    return Tensor(out_vals, _parents=(a,), _backward=bw)


def silu(a: Tensor) -> Tensor:
    sig = 1.0 / (1.0 + np.exp(-a.values))
    out_vals = a.values * sig

    def bw(g):
        a._accumulate(g * sig * (1.0 + a.values * (1.0 - sig)))

    return Tensor(out_vals, _parents=(a,), _backward=bw)


def log(a: Tensor) -> Tensor:
    out_vals = np.log(a.values)

    def bw(g):
        a._accumulate(g / a.values)

    return Tensor(out_vals, _parents=(a,), _backward=bw)


# -- shape ops ----------------------------------------------------------

def reshape(a: Tensor, shape: tuple) -> Tensor:
    old = a.values.shape

    def bw(g):
        a._accumulate(g.reshape(old))

    return Tensor(a.values.reshape(shape), _parents=(a,), _backward=bw)


def swapaxes(a: Tensor, ax1: int, ax2: int) -> Tensor:
    def bw(g):
        a._accumulate(np.swapaxes(g, ax1, ax2))

    return Tensor(np.swapaxes(a.values, ax1, ax2), _parents=(a,), _backward=bw)


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    out_vals = np.concatenate([t.values for t in tensors], axis=axis)
    sizes = [t.values.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def bw(g):
        for t, piece in zip(tensors, np.split(g, splits, axis=axis)):
            if t.requires_grad:
                t._accumulate(piece)

    return Tensor(out_vals, _parents=tuple(tensors), _backward=bw)


# -- indexing -----------------------------------------------------------

def take(a: Tensor, indices: np.ndarray, axis: int = 0) -> Tensor:
    """np.take semantics; gradient is scatter-added back."""
    idx = np.asarray(indices)
    out_vals = np.take(a.values, idx, axis=axis)

    def bw(g):
        # Scatter-add on flat positions of the accumulator with `axis` moved
        # first: a 1-D np.add.at is several times faster than a row-wise one.
        acc = np.zeros_like(np.moveaxis(a.values, axis, 0), order="C")
        row = math.prod(acc.shape[1:])
        g_moved = np.moveaxis(
            g, tuple(range(axis, axis + idx.ndim)), tuple(range(idx.ndim)))
        flat = (idx.reshape(-1) % acc.shape[0])[:, None] * row + np.arange(row)
        np.add.at(acc.reshape(-1), flat.reshape(-1), g_moved.reshape(-1))
        a._accumulate(np.moveaxis(acc, 0, axis))

    return Tensor(out_vals, _parents=(a,), _backward=bw)


def scatter(values: Tensor, indices: np.ndarray, out_shape: tuple) -> Tensor:
    """Scatter-add flat `values` into a zero array of `out_shape`.

    `indices` holds flat positions into the output (same shape as values).
    """
    idx = np.asarray(indices).ravel()
    out_vals = np.zeros(out_shape, dtype=np.float64)
    np.add.at(out_vals.ravel(), idx, values.values.ravel())

    def bw(g):
        values._accumulate(g.ravel()[idx].reshape(values.values.shape))

    return Tensor(out_vals, _parents=(values,), _backward=bw)


# -- contractions and reductions ----------------------------------------

def matmul(a: Tensor, b: Tensor) -> Tensor:
    out_vals = a.values @ b.values

    def bw(g):
        if a.requires_grad:
            if b.values.ndim == 1:
                ga = np.multiply.outer(g, b.values) if a.values.ndim > 1 else g * b.values
            else:
                ga = g @ np.swapaxes(b.values, -1, -2)
            a._accumulate(_unbroadcast(np.asarray(ga), a.values.shape))
        if b.requires_grad:
            if a.values.ndim == 1:
                gb = np.multiply.outer(a.values, g) if b.values.ndim > 1 else a.values * g
            else:
                gb = np.swapaxes(a.values, -1, -2) @ g
            b._accumulate(_unbroadcast(np.asarray(gb), b.values.shape))

    return Tensor(out_vals, _parents=(a, b), _backward=bw)


def tsum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out_vals = a.values.sum(axis=axis, keepdims=keepdims)

    def bw(g):
        if axis is None:
            a._accumulate(np.broadcast_to(g, a.values.shape).copy())
        else:
            if not keepdims:
                g = np.expand_dims(g, axis)
            a._accumulate(np.broadcast_to(g, a.values.shape).copy())

    return Tensor(out_vals, _parents=(a,), _backward=bw)


def mean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    if axis is None:
        denom = a.values.size
    else:
        denom = a.values.shape[axis]
    return mul_const(tsum(a, axis=axis, keepdims=keepdims), 1.0 / denom)


def masked_softmax(a: Tensor, allowed: np.ndarray, axis: int = -1) -> Tensor:
    """Softmax along `axis` restricted to entries where `allowed` is True.

    Disallowed entries get probability exactly 0. Rows with no allowed
    entry are rejected.
    """
    mask = np.asarray(allowed, dtype=bool)
    # Rows are checked on the mask as given, before broadcasting (for
    # example across heads) repeats them.
    lead = (1,) * (a.values.ndim - mask.ndim)
    if not mask.reshape(lead + mask.shape).any(axis=axis).all():
        raise ValueError("masked_softmax: a row has no allowed entries")
    out_vals = np.where(np.broadcast_to(mask, a.values.shape), a.values, -np.inf)
    out_vals -= out_vals.max(axis=axis, keepdims=True)
    np.exp(out_vals, out=out_vals)   # exp(-inf) is exactly 0
    out_vals /= out_vals.sum(axis=axis, keepdims=True)

    def bw(g):
        dot = (g * out_vals).sum(axis=axis, keepdims=True)
        a._accumulate(out_vals * (g - dot))

    return Tensor(out_vals, _parents=(a,), _backward=bw)


def norm_affine(a: Tensor, scale: Tensor, shift: Tensor,
                axis: int = -2, eps: float = 1e-5) -> Tensor:
    """Normalize mean/variance over `axis`, then apply learnable affine.

    Composed from primitives so the backward pass needs no bespoke code.
    """
    mu = mean(a, axis=axis, keepdims=True)
    centered = a - mu
    var = mean(mul(centered, centered), axis=axis, keepdims=True)
    inv = power(add(var, Tensor(np.full(var.shape, eps))), -0.5)
    return add(mul(mul(centered, inv), scale), shift)


# -- gradient checking --------------------------------------------------

def finite_diff_check(fn: Callable[[], Tensor], params: Iterable[Tensor],
                      h: float = 1e-5, count: int = 100,
                      rng: np.random.Generator | None = None) -> float:
    """Compare analytic gradients of `fn` against central differences.

    `fn` rebuilds the graph from `params` on every call and must be
    deterministic; a repeated-evaluation mismatch raises. Returns the
    maximum relative error over `count` randomly chosen coordinates,
    with a 1e-12 absolute floor on the denominator.
    """
    params = list(params)
    rng = rng or np.random.default_rng(0)

    v0 = fn().item()
    if fn().item() != v0:
        raise RuntimeError("finite_diff_check: fn is nondeterministic")

    for p in params:
        p.zero_grad()
    loss = fn()
    loss.backward()
    analytic = [p.grad.copy() if p.grad is not None else np.zeros_like(p.values)
                for p in params]

    sizes = np.array([p.values.size for p in params])
    total = int(sizes.sum())
    picks = rng.choice(total, size=min(count, total), replace=False)
    offsets = np.concatenate([[0], np.cumsum(sizes)])

    max_rel = 0.0
    for flat in picks:
        pi = int(np.searchsorted(offsets, flat, side="right") - 1)
        ci = int(flat - offsets[pi])
        p = params[pi]
        orig = p.values.ravel()[ci]
        p.values.ravel()[ci] = orig + h
        fp = fn().item()
        p.values.ravel()[ci] = orig - h
        fm = fn().item()
        p.values.ravel()[ci] = orig
        numeric = (fp - fm) / (2.0 * h)
        ana = analytic[pi].ravel()[ci]
        rel = abs(numeric - ana) / max(abs(numeric), abs(ana), 1e-12)
        if abs(numeric) < 1e-10 and abs(ana) < 1e-10:
            continue  # dead coordinate, floor keeps it from false-failing
        max_rel = max(max_rel, rel)
    return max_rel


# -- checkpoints --------------------------------------------------------

CHECKPOINT_VERSION = 1


def save_params(params: dict[str, Tensor], path) -> None:
    """Write a named flat parameter list as JSON with a content hash."""
    entries = []
    for name in sorted(params):
        t = params[name]
        entries.append({"name": name, "shape": list(t.shape),
                        "values": t.values.ravel().tolist()})
    payload = json.dumps(entries, sort_keys=True)
    digest = hashlib.sha256(payload.encode()).hexdigest()
    doc = {"version": CHECKPOINT_VERSION, "sha256": digest, "params": entries}
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f)


def load_params(path) -> dict[str, Tensor]:
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    if "version" not in doc:
        raise ValueError("checkpoint missing version field")
    if doc["version"] != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {doc['version']}")
    payload = json.dumps(doc["params"], sort_keys=True)
    digest = hashlib.sha256(payload.encode()).hexdigest()
    if digest != doc["sha256"]:
        raise ValueError("checkpoint content hash mismatch")
    out = {}
    for e in doc["params"]:
        out[e["name"]] = Tensor(
            np.array(e["values"], dtype=np.float64).reshape(e["shape"]),
            requires_grad=True)
    return out
