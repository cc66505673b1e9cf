"""Reverse-mode automatic differentiation over dense numpy arrays.

A Tensor holds float32 data as float32 and anything else as float64. Ops
keep their operands' dtype: a scalar operand takes the tensor's dtype and
the backward seed the root's, so a graph of float32 parameters computes,
and backpropagates, in float32 throughout. Float64 is the exact path the
tests compare against.

A Tensor wraps an ndarray and records the op that produced it. An op is one
constructor call: its output value, its parent tensors and one vector-Jacobian
product (VJP) per parent, which maps the output's gradient to that parent's.
When no parent requires grad, the tensor keeps neither parents nor VJPs, so
ops on constants leave no tape; inside `no_grad()` no op records any.
backward() walks the tape in reverse topological order and adds each VJP's
result to its parent's gradient. A stored gradient array is never changed
in place, so a tensor may keep the array a VJP returned. A pass first clears
the gradients of the inner tensors it visits, so two passes over one graph
leave the leaves the sum of what each pass alone would give.

The model's hot compositions are one node each, with hand-written VJPs:

- `linear`: x @ w + b. With a shared weight each VJP is one 2-D product
  over the flattened leading axes, with one weight per track one batched
  product. Training feeds the decoders' layers packed `[N, d]` rows.
- `attention`: multi-head attention between the q, k and v projections.
  It splits the heads, takes the similarity-modulated, scaled, masked
  softmax and merges the heads back, all in numpy. The scores the causal
  mask hides are never exponentiated; their probability is written as
  exactly +0.0, the value exp(-inf) has. It saves the probabilities and,
  with a modulation, the raw scores, which its backward reuses; the other
  score-sized arrays are scratch (see `attention`).
- `layer_norm_affine`: layer_norm(x + r) * g + b, the residual sum
  included; x and r get one gradient array.
- `model.embed_tokens`: the token, position, bar and instrument embeddings,
  summed left to right; each table's VJP adds its gradient rows back with
  `np.add.at`, as `__getitem__` does.

Their values are bit-identical to those of the compositions of single ops
they replace. They, `_softmax`, `_normalize` and `cross_entropy_logits`
compute in place in arrays they allocated themselves; no VJP writes into
an input, a saved array or its incoming gradient, which may be a read-only
view.

Two data-movement nodes take a training forward's rows between the padded
`[I, T, d]` layout and the packed `[N, d]` rows of its real positions:
`pack` gathers rows, and its VJP scatters into zeros; `unpack` scatters
into zeros, and its VJP gathers. Both only copy values, so they are exact.

Every op checks that its result is finite, always, so NaN/Inf surfaces at
the op that produced it. The check (`_all_finite`) is one `np.add.reduce`:
a NaN or an infinity anywhere makes the sum non-finite, so a finite sum
settles it. Only when the sum is not finite, which finite values can also
give by overflowing, does the elementwise test decide, so exactly the
arrays with a non-finite element raise. A `Tensor` built with
`check=False` skips the check, and these are the only sites that build
one, each over values checked before:

- `Tensor.detach` and `Tensor.__getitem__` reuse their input's values.
- `pack` gathers rows of its input, and `unpack` scatters its input's
  rows into zeros.
- `model._CachedRows.attend` wraps views of the self-attention key and
  value rows a decode cache's track set holds (the cache's buffers, or the
  set's own copy of its rows), each row checked as a `linear` output when
  it was written.
- `model._decode_forward` wraps the cache's top-decoder input rows and
  each track's last top-decoder row, each checked as a layer-norm output
  when it was written.

Checking a whole cached prefix again would make every decoding step grow
with it. `attention` checks its modulated scores before it masks and
normalizes them in place.
"""

from __future__ import annotations

import math
from contextlib import contextmanager

import numpy as np

from ..errors import NonFiniteError

_taping = True   # False inside no_grad()
LN_EPS = 1e-5    # added to the variance in every layer norm


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


_NATIVE_FLOATS = (np.dtype(np.float32), np.dtype(np.float64))


def _all_finite(a: np.ndarray) -> bool:
    """Whether every element of the float array a is finite. A finite sum
    says so at the cost of one reduction: a NaN or an infinity anywhere
    makes the sum NaN or infinite. A sum that is not finite, which finite
    values can give by overflowing, is settled elementwise."""
    return (math.isfinite(np.add.reduce(a, axis=None))
            or bool(np.logical_and.reduce(np.isfinite(a), axis=None)))


def _as_array(x) -> np.ndarray:
    """x as float32 if it is native float32, else as float64; a native
    float32 or float64 array comes back as it is."""
    a = np.asarray(x)
    return a if a.dtype in _NATIVE_FLOATS else a.astype(np.float64)


_BASIC_INDEX = (int, np.integer, slice, type(None), type(Ellipsis))


def _is_basic(key) -> bool:
    """True for an index of ints, slices, None and Ellipsis only: one that
    holds no index array, so it cannot select an element twice."""
    return all(isinstance(k, _BASIC_INDEX)
               for k in (key if isinstance(key, tuple) else (key,)))


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce a broadcast gradient back to the original operand shape."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and grad.shape[ax] != 1:
            grad = grad.sum(axis=ax, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """An array and the op that made it. After `backward`, `.grad` holds the
    gradient as the tape stored it, which may be a read-only view shared
    with another tensor's gradient: read it, or replace it, but never write
    into it."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_vjps", "op")

    def __init__(self, data, requires_grad: bool = False,
                 parents: tuple = (), vjps: tuple = (), op: str = "leaf",
                 check: bool = True):
        self.data = _as_array(data)
        if check and not _all_finite(self.data):
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
        # A gradient array is never changed in place once stored: the first
        # one is kept as a read-only view of what the VJP returned, maybe a
        # view of another tensor's gradient, and each later one makes a new
        # sum. VJPs may return numpy scalars, hence the asarray.
        if self.grad is None:
            grad = np.asarray(grad)
            if grad.shape == self.data.shape:
                grad = grad.view()
                grad.flags.writeable = False
            else:
                grad = np.broadcast_to(grad, self.data.shape)
            self.grad = grad
        else:
            self.grad = self.grad + grad

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
        for node in topo:  # a second pass must not start from the first one's sums
            if node._parents:
                node.grad = None
        # a copy, as the caller may reuse theirs
        self._accumulate(np.array(seed, dtype=self.data.dtype))
        for node in reversed(topo):
            if node.grad is None:
                continue
            for p, vjp in zip(node._parents, node._vjps):
                if p.requires_grad:
                    p._accumulate(vjp(node.grad))

    # -- arithmetic -----------------------------------------------------------

    def _operand(self, other) -> "Tensor":
        """other as a Tensor; a constant takes this tensor's dtype (a 0-d
        float64 array would turn a float32 result into float64)."""
        if isinstance(other, Tensor):
            return other
        return Tensor(np.asarray(other, dtype=self.data.dtype))

    def __add__(self, other):
        other = self._operand(other)
        return Tensor(self.data + other.data, parents=(self, other),
                      vjps=(lambda g: _unbroadcast(g, self.data.shape),
                            lambda g: _unbroadcast(g, other.data.shape)),
                      op="add")

    __radd__ = __add__

    def __neg__(self):
        return Tensor(-self.data, parents=(self,), vjps=(np.negative,), op="neg")

    def __sub__(self, other):
        other = self._operand(other)
        return self + (-other)

    def __mul__(self, other):
        other = self._operand(other)
        return Tensor(self.data * other.data, parents=(self, other),
                      vjps=(lambda g: _unbroadcast(g * other.data, self.data.shape),
                            lambda g: _unbroadcast(g * self.data, other.data.shape)),
                      op="mul")

    __rmul__ = __mul__

    def __truediv__(self, scalar: float):
        return self * (1.0 / scalar)

    def __matmul__(self, other):
        other = self._operand(other)

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
        """Indexing as numpy does it. The VJP adds the gradient of an element
        selected more than once once per selection, in element order. For a
        key of one integer array per axis it sums with `np.bincount`, which
        adds in that order in float64, so a float64 gradient is that of
        `np.add.at` bit for bit and a float32 one is summed in float64 and
        cast back; other keys use `np.add.at`."""
        per_axis = (isinstance(key, tuple) and len(key) == self.data.ndim
                    and all(isinstance(k, np.ndarray) and k.dtype.kind in "iu"
                            for k in key))

        def vjp(g):
            if per_axis:
                flat = np.ravel_multi_index(np.broadcast_arrays(*key),
                                            self.data.shape, mode="wrap")
                sums = np.bincount(flat.reshape(-1), weights=g.reshape(-1),
                                   minlength=self.data.size)
                return sums.astype(self.data.dtype, copy=False).reshape(self.data.shape)
            full = np.zeros_like(self.data)
            if _is_basic(key):  # selects each element at most once
                full[key] = g
            else:
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


def _softmax_vjp(g: np.ndarray, p: np.ndarray, axis: int) -> np.ndarray:
    """p * (g - sum(g * p)) along axis, the VJP of the softmax p, in one
    fresh array: the product g * p takes it, then the result."""
    ds = g * p
    inner = np.add.reduce(ds, axis=axis, keepdims=True)
    np.subtract(g, inner, out=ds)
    ds *= p
    return ds


def _softmax(x: np.ndarray, axis: int):
    """softmax of x along axis, and the VJP of that map. The shifted x is
    exponentiated and normalized in place."""
    p = x - x.max(axis=axis, keepdims=True)
    np.exp(p, out=p)
    p /= p.sum(axis=axis, keepdims=True)
    return p, lambda g: _softmax_vjp(g, p, axis)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    p, vjp = _softmax(x.data, axis)
    return Tensor(p, parents=(x,), vjps=(vjp,), op="softmax")


def _normalize(x: np.ndarray):
    """x normalized over its last axis, the inverse standard deviation it
    was scaled by, and the VJP of that map. One pass takes the mean and
    one the variance of the centred x, which is then scaled in place into
    the output: the values are those of `x.mean` and `x.var`, bit for bit.
    The VJP computes in two fresh arrays."""
    n = x.shape[-1]
    y = x - np.add.reduce(x, axis=-1, keepdims=True) / n
    var = np.add.reduce(y * y, axis=-1, keepdims=True) / n
    inv = 1.0 / np.sqrt(var + LN_EPS)
    y *= inv

    def vjp(g):
        gm = g.mean(axis=-1, keepdims=True)
        gy = g * y
        np.multiply(y, gy.mean(axis=-1, keepdims=True), out=gy)
        dx = g - gm
        dx -= gy
        dx *= inv
        return dx
    return y, inv, vjp


def layer_norm(x: Tensor) -> Tensor:
    """Normalize the last axis to zero mean, unit variance (no gain/bias)."""
    y, _, vjp = _normalize(x.data)
    return Tensor(y, parents=(x,), vjps=(vjp,), op="layer_norm")


def _rows(a: np.ndarray) -> np.ndarray:
    """The array as a matrix of its last axis."""
    return a.reshape(-1, a.shape[-1])


def layer_norm_affine(x: Tensor, r: Tensor, g: Tensor, b: Tensor) -> Tensor:
    """layer_norm(x + r) * g + b over the last axis, as one node: x + r is
    a residual sum of two operands of one shape, and both get the same
    gradient array, computed once per output gradient."""
    if x.shape != r.shape:
        raise ValueError(f"layer_norm_affine: residual {r.shape} for {x.shape}")
    y, _, vjp = _normalize(x.data + r.data)
    out = y * g.data
    out += b.data
    seen: dict = {}

    def vjp_sum(gout):
        if seen.get("g") is not gout:
            seen.update(g=gout, grad=vjp(gout * g.data))
        return seen["grad"]
    return Tensor(out, parents=(x, r, g, b),
                  vjps=(vjp_sum, vjp_sum,
                        lambda gout: _rows(gout * y).sum(axis=0),
                        lambda gout: _rows(gout).sum(axis=0)),
                  op="layer_norm_affine")


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b for x [..., n_in], w [n_in, n_out] and b [n_out], as one
    node. Each VJP is one 2-D product over the flattened leading axes. A
    training forward's decoder rows come packed, as x [N, n_in], so its
    products are 2-D. The forward keeps numpy's batched product for other
    shapes: decoding's [n, 1, n_in] rows, flattened, round differently on
    OpenBLAS, and its goldens hold the batched product's values.

    With one weight per slot, w [I, n_in, n_out] and b [I, n_out] for
    x [n * I, t, n_in] (n songs of I tracks, stacked), row r of x goes
    through w[r % I] and b[r % I]. Each weight VJP is then one batched
    product per slot over the rows of all n songs."""
    if w.data.ndim == 3:
        slots = w.data.shape[0]
        songs = x.data.shape[0] // slots
        if songs * slots != x.data.shape[0]:
            raise ValueError(f"linear: {x.data.shape[0]} rows do not cycle "
                             f"through {slots} weights")

        def per_song(a):   # [n * I, t, k] -> [n, I, t, k]
            return a.reshape(songs, slots, *a.shape[1:])

        def per_slot(a):   # [n * I, t, k] -> [I, n * t, k]
            return per_song(a).transpose(1, 0, 2, 3).reshape(slots, -1, a.shape[-1])
        out = per_song(x.data) @ w.data
        out += b.data[:, None, :]
        return Tensor(out.reshape(x.data.shape[:-1] + out.shape[-1:]),
                      parents=(x, w, b),
                      vjps=(lambda g: (per_song(g) @ w.data.transpose(0, 2, 1)
                                       ).reshape(x.data.shape),
                            lambda g: per_slot(x.data).transpose(0, 2, 1) @ per_slot(g),
                            lambda g: per_slot(g).sum(axis=1)),
                      op="linear")
    out = x.data @ w.data
    out += b.data
    return Tensor(out, parents=(x, w, b),
                  vjps=(lambda g: (_rows(g) @ w.data.T).reshape(x.data.shape),
                        lambda g: _rows(x.data).T @ _rows(g),
                        lambda g: _rows(g).sum(axis=0)),
                  op="linear")


def attention(q: Tensor, k: Tensor, v: Tensor, heads: int,
              smat: Tensor | None = None,
              blocked: np.ndarray | None = None) -> Tensor:
    """Multi-head softmax(scores) @ v, as one node. The scores are q k^T per
    head, times `smat` if given, times 1/sqrt(d / heads), with -inf where
    `blocked`.

    q is [b, tq, d]; k and v are [b, tk, d]; the output is [b, tq, d]. The
    node splits the last axis into `heads` heads of d / heads, and merges
    them back after the weighted sum; its VJPs undo both. `smat` [b, tq, tk]
    is shared across heads. `blocked` [tq, tk] marks the scores the causal
    mask hides. They are never exponentiated: the max, the exponential and
    the zero written at them skip them, so their probability is exactly
    +0.0, as exp(-inf) would give, and so is their gradient.

    Arrays of [b, h, tq, tk]: the forward saves the raw scores q k^T (only
    with `smat`, whose gradient reads them) and the probabilities, which it
    computes in place in one array from the modulated scores on. A
    backward pass computes in two more: the gradient of the probabilities,
    scratch that then takes the products for the gradient of `smat`, and
    the softmax VJP's array, which becomes the gradient of the raw scores
    that the VJPs of q and k read. The node keeps that one with the graph,
    as it keeps its saved arrays: freed in mid-pass, its pages went back
    to the system and the next node's backward faulted them in again,
    which made a toy training step slower.
    """
    d = q.data.shape[-1]
    dh = d // heads

    def split(a):   # [b, t, d] -> [b, h, t, dh]
        return a.reshape(a.shape[0], a.shape[1], heads, dh).transpose(0, 2, 1, 3)

    def merge(a):   # [b, h, t, dh] -> [b, t, d]
        return a.transpose(0, 2, 1, 3).reshape(a.shape[0], a.shape[2], d)
    qh, kh, vh = split(q.data), split(k.data), split(v.data)
    raw = np.matmul(qh, kh.transpose(0, 1, 3, 2))
    scale = 1.0 / float(np.sqrt(dh))
    if smat is None:
        p = raw     # nothing reads the raw scores without smat
    else:
        smat4 = smat.data.reshape(smat.data.shape[0], 1, *smat.data.shape[1:])
        p = raw * smat4
    p *= scale
    if not _all_finite(p):
        raise NonFiniteError("non-finite values out of op 'attention'")
    if blocked is None:
        p -= np.maximum.reduce(p, axis=-1, keepdims=True)
        np.exp(p, out=p)
    else:
        visible = ~blocked
        p -= np.maximum.reduce(p, axis=-1, keepdims=True, where=visible,
                               initial=-np.inf)
        np.exp(p, out=p, where=visible)
        np.copyto(p, 0.0, where=blocked)
    p /= np.add.reduce(p, axis=-1, keepdims=True)
    seen: dict = {}

    def score_grads(g) -> dict:
        """Gradients of the raw scores and of `smat` for output gradient g,
        computed once per gradient array: backward hands the same array to
        each VJP of the node, and never changes a stored gradient in place."""
        if seen.get("g") is not g:
            dp = np.matmul(split(g), vh.transpose(0, 1, 3, 2))
            ds = _softmax_vjp(dp, p, -1)    # of the modulated scores
            ds *= scale
            seen.update(g=g, raw=ds)
            if smat is not None:
                if smat.requires_grad:
                    seen["smat"] = np.add.reduce(np.multiply(ds, raw, out=dp), axis=1)
                ds *= smat4                 # now of the raw scores
        return seen

    parents = (q, k, v) if smat is None else (q, k, v, smat)
    vjps = (lambda g: merge(np.matmul(score_grads(g)["raw"], kh)),
            lambda g: merge(np.matmul(score_grads(g)["raw"].transpose(0, 1, 3, 2), qh)),
            lambda g: merge(np.matmul(p.transpose(0, 1, 3, 2), split(g))),
            lambda g: score_grads(g)["smat"])
    return Tensor(merge(np.matmul(p, vh)), parents=parents,
                  vjps=vjps[:len(parents)], op="attention")


def straight_through(x: Tensor, value: np.ndarray) -> Tensor:
    """Forward the given array verbatim; backward copies gradients to x."""
    value = _as_array(value)
    if x.shape != value.shape:
        raise ValueError(
            f"straight_through shape mismatch {x.shape} vs {value.shape}")
    return Tensor(value, parents=(x,), vjps=(lambda g: g,), op="straight_through")


def take(table: Tensor, ids: np.ndarray) -> Tensor:
    """Embedding lookup: rows of `table` selected by integer array `ids`."""
    ids = np.asarray(ids, dtype=np.int64)
    if ids.size and (ids.min() < 0 or ids.max() >= table.data.shape[0]):
        raise IndexError(f"take: ids outside table of {table.data.shape[0]} rows")
    return table[ids]


def pack(x: Tensor, index: np.ndarray) -> Tensor:
    """The rows [N, d] of x [..., d] at the flat positions `index` of its
    leading axes, in index order. The VJP scatters the gradient into zeros
    of x's shape, so rows that were not gathered get exactly 0."""
    flat = _rows(x.data)

    def vjp(g):
        full = np.zeros_like(flat)
        full[index] = g
        return full.reshape(x.data.shape)
    return Tensor(flat.take(index, axis=0), parents=(x,), vjps=(vjp,),
                  op="pack", check=False)


def unpack(x: Tensor, index: np.ndarray, lead: tuple[int, ...]) -> Tensor:
    """The rows of x [N, d] scattered into zeros [*lead, d] at the flat
    positions `index` of the leading axes: the inverse of `pack`. The VJP
    gathers the gradient's rows at `index`."""
    full = np.zeros((math.prod(lead), x.data.shape[-1]), x.data.dtype)
    full[index] = x.data
    return Tensor(full.reshape(*lead, -1), parents=(x,),
                  vjps=(lambda g: _rows(g).take(index, axis=0),),
                  op="unpack", check=False)


def put_rows(x: Tensor, idx: np.ndarray, updates: Tensor) -> Tensor:
    """Copy of x [R, d] with rows idx[j] replaced by updates[j]; all other
    rows pass through bit-identically."""
    data = x.data.copy()
    data[idx] = updates.data

    def vjp_x(g):
        gx = g.copy()
        gx[idx] = 0.0
        return gx
    return Tensor(data, parents=(x, updates),
                  vjps=(vjp_x, lambda g: g[idx]), op="put_rows")


def cross_entropy_logits(logits: Tensor, targets: np.ndarray,
                         mask: np.ndarray) -> tuple[Tensor, int]:
    """Summed cross-entropy of rows of logits [N, V] against integer targets,
    counting only rows where mask is True. Returns (loss sum, counted rows)."""
    targets = np.asarray(targets, dtype=np.int64)
    m = np.asarray(mask, dtype=bool)
    rows = np.arange(len(targets))
    ez = logits.data - logits.data.max(axis=-1, keepdims=True)
    logp = ez[rows, targets]    # read before ez is exponentiated in place
    np.exp(ez, out=ez)
    total = ez.sum(axis=-1)
    logp -= np.log(total)
    loss_val = -(logp * m).sum()

    def vjp(g):
        p = ez / total[:, None]
        p[rows, targets] -= 1.0
        p *= g
        p *= m[:, None]
        return p
    out = Tensor(loss_val, parents=(logits,), vjps=(vjp,), op="cross_entropy")
    return out, int(m.sum())
