"""Reverse-mode automatic differentiation over dense float64 numpy arrays.

A Tensor wraps an ndarray and records the op that produced it. An op is one
constructor call: its output value, its parent tensors and one vector-Jacobian
product (VJP) per parent, which maps the output's gradient to that parent's.
When no parent requires grad, the tensor keeps neither parents nor VJPs, so
ops on constants leave no tape; inside `no_grad()` no op records any.
backward() walks the tape in reverse topological order and adds each VJP's
result to its parent's gradient.

Every op checks that its result is finite, always, so NaN/Inf surfaces at
the op that produced it. Only `detach` and `__getitem__` (they reuse checked
values) and `masked_fill` (its -inf masks attention scores) skip the check.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from ..errors import NonFiniteError

_taping = True   # False inside no_grad()


@contextmanager
def no_grad():
    """Run the enclosed ops without recording a tape: their outputs keep no
    parents or VJPs and do not require grad. Values are unchanged."""
    global _taping
    saved, _taping = _taping, False
    try:
        yield
    finally:
        _taping = saved


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
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_vjps", "op")

    def __init__(self, data, requires_grad: bool = False,
                 parents: tuple = (), vjps: tuple = (), op: str = "leaf",
                 check: bool = True):
        self.data = _as_array(data)
        if check and not np.isfinite(self.data).all():
            raise NonFiniteError(f"non-finite values out of op {op!r}")
        self.grad: np.ndarray | None = None
        live = _taping and any(p.requires_grad for p in parents)
        self.requires_grad = requires_grad or live
        self._parents = parents if live else ()
        self._vjps = vjps if live else ()
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
            if node.grad is None:
                continue
            for p, vjp in zip(node._parents, node._vjps):
                if p.requires_grad:
                    p._accumulate(vjp(node.grad))

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other):
        other = other if isinstance(other, Tensor) else Tensor(other)
        return Tensor(self.data + other.data, parents=(self, other),
                      vjps=(lambda g: _unbroadcast(g, self.data.shape),
                            lambda g: _unbroadcast(g, other.data.shape)),
                      op="add")

    __radd__ = __add__

    def __neg__(self):
        return Tensor(-self.data, parents=(self,), vjps=(np.negative,), op="neg")

    def __sub__(self, other):
        other = other if isinstance(other, Tensor) else Tensor(other)
        return self + (-other)

    def __mul__(self, other):
        other = other if isinstance(other, Tensor) else Tensor(other)
        return Tensor(self.data * other.data, parents=(self, other),
                      vjps=(lambda g: _unbroadcast(g * other.data, self.data.shape),
                            lambda g: _unbroadcast(g * self.data, other.data.shape)),
                      op="mul")

    __rmul__ = __mul__

    def __truediv__(self, scalar: float):
        return self * (1.0 / scalar)

    def __matmul__(self, other):
        other = other if isinstance(other, Tensor) else Tensor(other)

        def vjp_self(g):
            da = np.matmul(g, np.swapaxes(other.data, -1, -2))
            return _unbroadcast(da, self.data.shape)

        def vjp_other(g):
            db = np.matmul(np.swapaxes(self.data, -1, -2), g)
            return _unbroadcast(db, other.data.shape)
        return Tensor(np.matmul(self.data, other.data), parents=(self, other),
                      vjps=(vjp_self, vjp_other), op="matmul")

    # -- shape ops ------------------------------------------------------------

    def reshape(self, *shape):
        return Tensor(self.data.reshape(*shape), parents=(self,),
                      vjps=(lambda g: g.reshape(self.data.shape),), op="reshape")

    def transpose(self, *axes):
        if not axes:
            axes = tuple(range(self.data.ndim))[::-1]
        return Tensor(self.data.transpose(*axes), parents=(self,),
                      vjps=(lambda g: g.transpose(*np.argsort(axes)),),
                      op="transpose")

    def __getitem__(self, key):
        def vjp(g):
            full = np.zeros_like(self.data)
            np.add.at(full, key, g)
            return full
        return Tensor(self.data[key], parents=(self,), vjps=(vjp,),
                      op="getitem", check=False)

    def sum(self, axis=None, keepdims: bool = False):
        def vjp(g):
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            return np.broadcast_to(g, self.data.shape)
        return Tensor(self.data.sum(axis=axis, keepdims=keepdims),
                      parents=(self,), vjps=(vjp,), op="sum")

    def mean(self, axis=None, keepdims: bool = False):
        if axis is None:
            n = self.data.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            n = int(np.prod([self.data.shape[a] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) / n

    # -- nonlinearities ---------------------------------------------------------

    def relu(self):
        return Tensor(np.maximum(self.data, 0.0), parents=(self,),
                      vjps=(lambda g: g * (self.data > 0),), op="relu")


def concat(tensors: list[Tensor], axis: int = -1) -> Tensor:
    data = np.concatenate([t.data for t in tensors], axis=axis)
    lead = (slice(None),) * (axis % data.ndim)
    vjps, end = [], 0
    for t in tensors:
        start, end = end, end + t.data.shape[axis]
        vjps.append(lambda g, key=lead + (slice(start, end),): g[key])
    return Tensor(data, parents=tuple(tensors), vjps=tuple(vjps), op="concat")


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    p = e / e.sum(axis=axis, keepdims=True)

    def vjp(g):
        inner = (g * p).sum(axis=axis, keepdims=True)
        return p * (g - inner)
    return Tensor(p, parents=(x,), vjps=(vjp,), op="softmax")


def layer_norm(x: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean, unit variance (no gain/bias)."""
    mu = x.data.mean(axis=-1, keepdims=True)
    var = x.data.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    y = (x.data - mu) * inv

    def vjp(g):
        gm = g.mean(axis=-1, keepdims=True)
        gym = (g * y).mean(axis=-1, keepdims=True)
        return inv * (g - gm - y * gym)
    return Tensor(y, parents=(x,), vjps=(vjp,), op="layer_norm")


def straight_through(x: Tensor, value: np.ndarray) -> Tensor:
    """Forward the given array verbatim; backward copies gradients to x."""
    value = _as_array(value)
    if x.shape != value.shape:
        raise ValueError(
            f"straight_through shape mismatch {x.shape} vs {value.shape}")
    return Tensor(value, parents=(x,), vjps=(lambda g: g,), op="straight_through")


def masked_fill(x: Tensor, mask: np.ndarray, value: float) -> Tensor:
    """Replace entries where mask is True by a constant (no gradient there)."""
    data = np.where(mask, value, x.data)
    return Tensor(data, parents=(x,), vjps=(lambda g: np.where(mask, 0.0, g),),
                  op="masked_fill", check=False)


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

    def vjp_x(g):
        gx = g.copy()
        gx[idx0, idx1] = 0.0
        return gx
    return Tensor(data, parents=(x, updates),
                  vjps=(vjp_x, lambda g: g[idx0, idx1]), op="put_pairs")


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

    def vjp(g):
        p = np.exp(z) / np.exp(z).sum(axis=-1, keepdims=True)
        p[np.arange(len(targets)), targets] -= 1.0
        return g * p * m[:, None]
    out = Tensor(loss_val, parents=(logits,), vjps=(vjp,), op="cross_entropy")
    return out, int(m.sum())


def parameter(rng: np.random.Generator, *shape, scale: float = 0.02) -> Tensor:
    return Tensor(rng.normal(0.0, scale, size=shape), requires_grad=True)


def zeros_param(*shape) -> Tensor:
    return Tensor(np.zeros(shape), requires_grad=True)


def ones_param(*shape) -> Tensor:
    return Tensor(np.ones(shape), requires_grad=True)
