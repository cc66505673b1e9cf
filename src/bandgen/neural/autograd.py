"""Reverse-mode automatic differentiation over dense float64 numpy arrays.

A Tensor wraps an ndarray and records the op that produced it; backward()
walks the tape in reverse topological order accumulating gradients. Every
op checks that its result is finite, always, so NaN/Inf surfaces at the op
that produced it. Only `detach` and `__getitem__` (they reuse checked values)
and `masked_fill` (its -inf masks attention scores) skip the check.
"""

from __future__ import annotations

import numpy as np

from ..errors import NonFiniteError

def _as_array(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64)


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce a broadcast gradient back to the original operand shape."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and grad.shape[ax] != 1:
            grad = grad.sum(axis=ax, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "op")

    def __init__(self, data, requires_grad: bool = False,
                 parents: tuple = (), backward=None, op: str = "leaf",
                 check: bool = True):
        self.data = _as_array(data)
        if check and not np.all(np.isfinite(self.data)):
            raise NonFiniteError(f"non-finite values out of op {op!r}")
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad or any(p.requires_grad for p in parents)
        self._parents = parents if self.requires_grad else ()
        self._backward = backward
        self.op = op

    @property
    def shape(self):
        return self.data.shape

    def detach(self) -> "Tensor":
        return Tensor(self.data, check=False)

    def _accumulate(self, grad: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += grad

    def backward(self, seed: np.ndarray | None = None) -> None:
        if seed is None:
            if self.data.size != 1:
                raise ValueError("backward on non-scalar needs a seed gradient")
            seed = np.ones_like(self.data)
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen or not node.requires_grad:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                stack.append((p, False))
        self._accumulate(_as_array(seed))
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other):
        other = other if isinstance(other, Tensor) else Tensor(other)
        out = Tensor(self.data + other.data, parents=(self, other), op="add")

        def backward(g):
            if self.requires_grad:
                self._accumulate(_unbroadcast(g, self.data.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(g, other.data.shape))
        out._backward = backward
        return out

    __radd__ = __add__

    def __neg__(self):
        out = Tensor(-self.data, parents=(self,), op="neg")

        def backward(g):
            if self.requires_grad:
                self._accumulate(-g)
        out._backward = backward
        return out

    def __sub__(self, other):
        other = other if isinstance(other, Tensor) else Tensor(other)
        return self + (-other)

    def __rsub__(self, other):
        return Tensor(other) + (-self)

    def __mul__(self, other):
        other = other if isinstance(other, Tensor) else Tensor(other)
        out = Tensor(self.data * other.data, parents=(self, other), op="mul")

        def backward(g):
            if self.requires_grad:
                self._accumulate(_unbroadcast(g * other.data, self.data.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(g * self.data, other.data.shape))
        out._backward = backward
        return out

    __rmul__ = __mul__

    def __truediv__(self, scalar: float):
        return self * (1.0 / scalar)

    def __matmul__(self, other):
        other = other if isinstance(other, Tensor) else Tensor(other)
        out = Tensor(np.matmul(self.data, other.data),
                     parents=(self, other), op="matmul")

        def backward(g):
            if self.requires_grad:
                da = np.matmul(g, np.swapaxes(other.data, -1, -2))
                self._accumulate(_unbroadcast(da, self.data.shape))
            if other.requires_grad:
                db = np.matmul(np.swapaxes(self.data, -1, -2), g)
                other._accumulate(_unbroadcast(db, other.data.shape))
        out._backward = backward
        return out

    # -- shape ops ------------------------------------------------------------

    def reshape(self, *shape):
        out = Tensor(self.data.reshape(*shape), parents=(self,), op="reshape")

        def backward(g):
            if self.requires_grad:
                self._accumulate(g.reshape(self.data.shape))
        out._backward = backward
        return out

    def transpose(self, *axes):
        if not axes:
            axes = tuple(range(self.data.ndim))[::-1]
        out = Tensor(self.data.transpose(*axes), parents=(self,), op="transpose")
        inverse = np.argsort(axes)

        def backward(g):
            if self.requires_grad:
                self._accumulate(g.transpose(*inverse))
        out._backward = backward
        return out

    def __getitem__(self, key):
        out = Tensor(self.data[key], parents=(self,), op="getitem", check=False)

        def backward(g):
            if self.requires_grad:
                full = np.zeros_like(self.data)
                np.add.at(full, key, g)
                self._accumulate(full)
        out._backward = backward
        return out

    def sum(self, axis=None, keepdims: bool = False):
        out = Tensor(self.data.sum(axis=axis, keepdims=keepdims),
                     parents=(self,), op="sum")

        def backward(g):
            if not self.requires_grad:
                return
            if axis is None:
                self._accumulate(np.broadcast_to(g, self.data.shape).copy())
                return
            if not keepdims:
                g = np.expand_dims(g, axis)
            self._accumulate(np.broadcast_to(g, self.data.shape).copy())
        out._backward = backward
        return out

    def mean(self, axis=None, keepdims: bool = False):
        if axis is None:
            n = self.data.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            n = int(np.prod([self.data.shape[a] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) / n

    # -- nonlinearities ---------------------------------------------------------

    def relu(self):
        out = Tensor(np.maximum(self.data, 0.0), parents=(self,), op="relu")

        def backward(g):
            if self.requires_grad:
                self._accumulate(g * (self.data > 0))
        out._backward = backward
        return out


def concat(tensors: list[Tensor], axis: int = -1) -> Tensor:
    out = Tensor(np.concatenate([t.data for t in tensors], axis=axis),
                 parents=tuple(tensors), op="concat")
    sizes = [t.data.shape[axis] for t in tensors]

    def backward(g):
        pieces = np.split(g, np.cumsum(sizes)[:-1], axis=axis)
        for t, piece in zip(tensors, pieces):
            if t.requires_grad:
                t._accumulate(piece)
    out._backward = backward
    return out


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    p = e / e.sum(axis=axis, keepdims=True)
    out = Tensor(p, parents=(x,), op="softmax")

    def backward(g):
        if x.requires_grad:
            inner = (g * p).sum(axis=axis, keepdims=True)
            x._accumulate(p * (g - inner))
    out._backward = backward
    return out


def layer_norm(x: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean, unit variance (no gain/bias)."""
    mu = x.data.mean(axis=-1, keepdims=True)
    var = x.data.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    y = (x.data - mu) * inv
    out = Tensor(y, parents=(x,), op="layer_norm")

    def backward(g):
        if x.requires_grad:
            gm = g.mean(axis=-1, keepdims=True)
            gym = (g * y).mean(axis=-1, keepdims=True)
            x._accumulate(inv * (g - gm - y * gym))
    out._backward = backward
    return out


def straight_through(x: Tensor, value: np.ndarray) -> Tensor:
    """Forward the given array verbatim; backward copies gradients to x."""
    value = _as_array(value)
    if x.shape != value.shape:
        raise ValueError(
            f"straight_through shape mismatch {x.shape} vs {value.shape}")
    out = Tensor(value, parents=(x,), op="straight_through")

    def backward(g):
        if x.requires_grad:
            x._accumulate(g)
    out._backward = backward
    return out


def masked_fill(x: Tensor, mask: np.ndarray, value: float) -> Tensor:
    """Replace entries where mask is True by a constant (no gradient there)."""
    data = np.where(mask, value, x.data)
    out = Tensor(data, parents=(x,), op="masked_fill", check=False)

    def backward(g):
        if x.requires_grad:
            x._accumulate(np.where(mask, 0.0, g))
    out._backward = backward
    return out


def take(table: Tensor, ids: np.ndarray) -> Tensor:
    """Embedding lookup: rows of `table` selected by integer array `ids`."""
    ids = np.asarray(ids, dtype=np.int64)
    if ids.size and (ids.min() < 0 or ids.max() >= table.data.shape[0]):
        raise IndexError(f"take: ids outside table of {table.data.shape[0]} rows")
    return table[ids]


def put_pairs(x: Tensor, idx0: np.ndarray, idx1: np.ndarray, updates: Tensor) -> Tensor:
    """Copy of x with rows (idx0[j], idx1[j]) replaced by updates[j]; all
    other entries pass through bit-identically."""
    data = x.data.copy()
    data[idx0, idx1] = updates.data
    out = Tensor(data, parents=(x, updates), op="put_pairs")

    def backward(g):
        if x.requires_grad:
            gx = g.copy()
            gx[idx0, idx1] = 0.0
            x._accumulate(gx)
        if updates.requires_grad:
            updates._accumulate(g[idx0, idx1])
    out._backward = backward
    return out


def cross_entropy_logits(logits: Tensor, targets: np.ndarray,
                         mask: np.ndarray) -> tuple[Tensor, int]:
    """Summed cross-entropy of rows of logits [N, V] against integer targets,
    counting only rows where mask is True. Returns (loss sum, counted rows)."""
    targets = np.asarray(targets, dtype=np.int64)
    m = np.asarray(mask, dtype=bool)
    z = logits.data - logits.data.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=-1))
    logp = z[np.arange(len(targets)), targets] - lse
    loss_val = -(logp * m).sum()
    out = Tensor(loss_val, parents=(logits,), op="cross_entropy")

    def backward(g):
        if logits.requires_grad:
            p = np.exp(z) / np.exp(z).sum(axis=-1, keepdims=True)
            p[np.arange(len(targets)), targets] -= 1.0
            logits._accumulate(g * p * m[:, None])
    out._backward = backward
    return out, int(m.sum())


def parameter(rng: np.random.Generator, *shape, scale: float = 0.02) -> Tensor:
    return Tensor(rng.normal(0.0, scale, size=shape), requires_grad=True)


def zeros_param(*shape) -> Tensor:
    return Tensor(np.zeros(shape), requires_grad=True)


def ones_param(*shape) -> Tensor:
    return Tensor(np.ones(shape), requires_grad=True)
