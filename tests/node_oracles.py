"""The hot autograd nodes as they were before their forwards and backwards
computed in place: the oracles of `bandgen.neural.autograd`'s `_softmax`,
`_normalize`, `layer_norm_affine`, `linear`, `attention` and
`cross_entropy_logits`, kept verbatim, the way `scalar_oracles` keeps the
scalar quantization rules. Each allocates a fresh array per step."""

import numpy as np

from bandgen.errors import NonFiniteError
from bandgen.neural.autograd import LN_EPS, Tensor


def _softmax(x: np.ndarray, axis: int):
    """softmax of x along axis, and the VJP of that map."""
    shifted = x - x.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    p = e / e.sum(axis=axis, keepdims=True)

    def vjp(g):
        inner = (g * p).sum(axis=axis, keepdims=True)
        return p * (g - inner)
    return p, vjp


def _normalize(x: np.ndarray):
    """x normalized over its last axis, the inverse standard deviation it
    was scaled by, and the VJP of that map. One pass takes the mean and
    one the variance of the centred x, which also gives the output: the
    values are those of `x.mean` and `x.var`, bit for bit."""
    n = x.shape[-1]
    centred = x - np.add.reduce(x, axis=-1, keepdims=True) / n
    var = np.add.reduce(centred * centred, axis=-1, keepdims=True) / n
    inv = 1.0 / np.sqrt(var + LN_EPS)
    y = centred * inv

    def vjp(g):
        gm = g.mean(axis=-1, keepdims=True)
        gym = (g * y).mean(axis=-1, keepdims=True)
        return inv * (g - gm - y * gym)
    return y, inv, vjp


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
    seen: dict = {}

    def vjp_sum(gout):
        if seen.get("g") is not gout:
            seen.update(g=gout, grad=vjp(gout * g.data))
        return seen["grad"]
    return Tensor(y * g.data + b.data, parents=(x, r, g, b),
                  vjps=(vjp_sum, vjp_sum,
                        lambda gout: _rows(gout * y).sum(axis=0),
                        lambda gout: _rows(gout).sum(axis=0)),
                  op="layer_norm_affine")


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b for x [..., n_in], w [n_in, n_out] and b [n_out], as one
    node. Each VJP is one 2-D product over the flattened leading axes. The
    forward keeps numpy's batched product: with few rows per batch, the
    flattened one rounds differently on OpenBLAS.

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
        out = per_song(x.data) @ w.data + b.data[:, None, :]
        return Tensor(out.reshape(x.data.shape[:-1] + out.shape[-1:]),
                      parents=(x, w, b),
                      vjps=(lambda g: (per_song(g) @ w.data.transpose(0, 2, 1)
                                       ).reshape(x.data.shape),
                            lambda g: per_slot(x.data).transpose(0, 2, 1) @ per_slot(g),
                            lambda g: per_slot(g).sum(axis=1)),
                      op="linear")
    return Tensor(x.data @ w.data + b.data, parents=(x, w, b),
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
    mask hides; their probability is exactly 0, and so is their gradient.
    The backward reuses the saved probabilities and raw scores.
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
        scores = raw * scale
    else:
        smat4 = smat.data.reshape(smat.data.shape[0], 1, *smat.data.shape[1:])
        scores = raw * smat4 * scale
    if not np.isfinite(scores).all():
        raise NonFiniteError("non-finite values out of op 'attention'")
    if blocked is not None:
        scores = np.where(blocked, -np.inf, scores)
    p, softmax_vjp = _softmax(scores, -1)
    seen: dict = {}

    def score_grads(g) -> dict:
        """Gradients of the modulated scores (raw * smat) and of the raw
        scores for output gradient g, computed once per gradient array:
        backward hands the same array to each VJP of the node, and never
        changes a stored gradient in place."""
        if seen.get("g") is not g:
            ds = softmax_vjp(np.matmul(split(g), vh.transpose(0, 1, 3, 2)))
            ds *= scale
            seen.update(g=g, modulated=ds, raw=ds if smat is None else ds * smat4)
        return seen

    parents = (q, k, v) if smat is None else (q, k, v, smat)
    vjps = (lambda g: merge(np.matmul(score_grads(g)["raw"], kh)),
            lambda g: merge(np.matmul(score_grads(g)["raw"].transpose(0, 1, 3, 2), qh)),
            lambda g: merge(np.matmul(p.transpose(0, 1, 3, 2), split(g))),
            lambda g: (score_grads(g)["modulated"] * raw).sum(axis=1))
    return Tensor(merge(np.matmul(p, vh)), parents=parents,
                  vjps=vjps[:len(parents)], op="attention")


def cross_entropy_logits(logits: Tensor, targets: np.ndarray,
                         mask: np.ndarray) -> tuple[Tensor, int]:
    """Summed cross-entropy of rows of logits [N, V] against integer targets,
    counting only rows where mask is True. Returns (loss sum, counted rows)."""
    targets = np.asarray(targets, dtype=np.int64)
    m = np.asarray(mask, dtype=bool)
    z = logits.data - logits.data.max(axis=-1, keepdims=True)
    ez = np.exp(z)
    total = ez.sum(axis=-1)
    logp = z[np.arange(len(targets)), targets] - np.log(total)
    loss_val = -(logp * m).sum()

    def vjp(g):
        p = ez / total[:, None]
        p[np.arange(len(targets)), targets] -= 1.0
        return g * p * m[:, None]
    out = Tensor(loss_val, parents=(logits,), vjps=(vjp,), op="cross_entropy")
    return out, int(m.sum())
