"""Reverse-mode tape: every op checked against central finite differences."""

import numpy as np
import pytest

from bandgen.errors import NonFiniteError
from bandgen.neural.autograd import (LN_EPS, Tensor, _normalize, attention,
                                     concat, cross_entropy_logits, layer_norm,
                                     layer_norm_affine, linear, no_grad, pack,
                                     put_rows, softmax, straight_through, take,
                                     unpack)
from bandgen.neural.model import expand_similarity

RNG = np.random.default_rng(42)
H = 1e-6


def numeric_grad(fn, x: np.ndarray, seed: np.ndarray) -> np.ndarray:
    """d(sum(fn(x) * seed))/dx by central differences."""
    out = np.zeros_like(x, dtype=np.float64)
    flat = out.reshape(-1)
    xf = x.reshape(-1)
    for i in range(x.size):
        keep = xf[i]
        xf[i] = keep + H
        up = float((fn(x) * seed).sum())
        xf[i] = keep - H
        down = float((fn(x) * seed).sum())
        xf[i] = keep
        flat[i] = (up - down) / (2 * H)
    return out


def check(fn_tensor, fn_numpy, x: np.ndarray, atol=1e-6):
    t = Tensor(x.copy(), requires_grad=True)
    out = fn_tensor(t)
    seed = RNG.standard_normal(out.data.shape)
    out.backward(seed)
    num = numeric_grad(fn_numpy, x.copy(), seed)
    np.testing.assert_allclose(t.grad, num, atol=atol, rtol=1e-4)


def test_add_mul_sub_with_broadcasting():
    x = RNG.standard_normal((3, 4))
    b = Tensor(RNG.standard_normal(4), requires_grad=True)
    t = Tensor(x.copy(), requires_grad=True)
    out = (t + b) * t - b
    seed = RNG.standard_normal((3, 4))
    out.backward(seed)
    np.testing.assert_allclose(t.grad, seed * (2 * x + b.data), atol=1e-12)
    np.testing.assert_allclose(b.grad, (seed * x).sum(axis=0) - seed.sum(axis=0),
                               atol=1e-12)


def test_matmul():
    a = RNG.standard_normal((5, 3))
    w = RNG.standard_normal((3, 4))
    check(lambda t: t @ Tensor(w), lambda x: x @ w, a)
    wt = Tensor(w.copy(), requires_grad=True)
    out = Tensor(a) @ wt
    seed = RNG.standard_normal((5, 4))
    out.backward(seed)
    np.testing.assert_allclose(wt.grad, a.T @ seed, atol=1e-12)


def test_batched_matmul():
    a = RNG.standard_normal((2, 3, 5, 4))
    w = RNG.standard_normal((2, 3, 4, 6))
    check(lambda t: t @ Tensor(w), lambda x: x @ w, a)


def test_reshape_transpose_getitem():
    x = RNG.standard_normal((4, 6))
    check(lambda t: t.reshape(2, 12), lambda v: v.reshape(2, 12), x)
    check(lambda t: t.transpose(1, 0), lambda v: v.transpose(1, 0), x)
    check(lambda t: t.transpose(), lambda v: v.transpose(), x)
    check(lambda t: t[1:3, ::2], lambda v: v[1:3, ::2], x)


def test_getitem_accumulates_duplicate_indices():
    x = RNG.standard_normal(5)
    idx = np.array([0, 0, 3])
    t = Tensor(x.copy(), requires_grad=True)
    out = t[idx]
    out.backward(np.ones(3))
    np.testing.assert_allclose(t.grad, [2, 0, 0, 1, 0])


def test_sum_relu():
    x = RNG.standard_normal((3, 5))
    check(lambda t: t.sum(), lambda v: v.sum().reshape(()), x)
    check(lambda t: t.sum(axis=1), lambda v: v.sum(axis=1), x)
    check(lambda t: t.relu(), lambda v: np.maximum(v, 0), x + 0.05)


def test_concat():
    x = RNG.standard_normal((3, 4))
    y = RNG.standard_normal((3, 2))
    t, u = Tensor(x.copy(), requires_grad=True), Tensor(y.copy(), requires_grad=True)
    out = concat([t, u], axis=1)
    seed = RNG.standard_normal((3, 6))
    out.backward(seed)
    np.testing.assert_allclose(t.grad, seed[:, :4], atol=1e-14)
    np.testing.assert_allclose(u.grad, seed[:, 4:], atol=1e-14)
    # three rows along axis 0, the middle one constant (embed_conditions' layout)
    rng = np.random.default_rng(7)
    a, c = (Tensor(rng.standard_normal((1, 5)), requires_grad=True) for _ in range(2))
    b = Tensor(rng.standard_normal((2, 5)))
    out = concat([a, b, c], axis=0)
    np.testing.assert_array_equal(out.data, np.concatenate([a.data, b.data, c.data]))
    seed = rng.standard_normal((4, 5))
    out.backward(seed)
    np.testing.assert_array_equal(a.grad, seed[:1])
    np.testing.assert_array_equal(c.grad, seed[3:])
    assert b.grad is None


def test_softmax():
    x = RNG.standard_normal((4, 7))

    def np_softmax(v):
        e = np.exp(v - v.max(axis=-1, keepdims=True))
        return e / e.sum(axis=-1, keepdims=True)

    check(lambda t: softmax(t), np_softmax, x)
    rows = softmax(Tensor(x)).data.sum(axis=-1)
    np.testing.assert_allclose(rows, 1.0, atol=1e-12)


def test_layer_norm():
    x = RNG.standard_normal((3, 9)) * 2 + 1

    def np_ln(v, eps=1e-5):
        mu = v.mean(axis=-1, keepdims=True)
        var = v.var(axis=-1, keepdims=True)
        return (v - mu) / np.sqrt(var + eps)

    check(lambda t: layer_norm(t), np_ln, x, atol=1e-5)
    out = layer_norm(Tensor(x)).data
    np.testing.assert_allclose(out.mean(axis=-1), 0, atol=1e-12)


# -- fused nodes against the compositions of single ops they replace ----------------


def masked_fill(x: Tensor, mask: np.ndarray) -> Tensor:
    """Scores with -inf where mask is True, which get no gradient."""
    return Tensor(np.where(mask, -np.inf, x.data), parents=(x,),
                  vjps=(lambda g: np.where(mask, 0.0, g),), check=False)


def reference_linear(x, w, b):
    return x @ w + b


def split_heads(x, heads):
    b, t, d = x.shape
    return x.reshape(b, t, heads, d // heads).transpose(0, 2, 1, 3)


def merge_heads(x):
    b, h, t, dh = x.shape
    return x.transpose(0, 2, 1, 3).reshape(b, t, h * dh)


def reference_attention(q, k, v, heads, smat=None, blocked=None):
    q, k, v = (split_heads(a, heads) for a in (q, k, v))
    scores = q @ k.transpose(0, 1, 3, 2)
    if smat is not None:
        b, tq, tk = smat.shape
        scores = scores * smat.reshape(b, 1, tq, tk)
    scores = scores / float(np.sqrt(q.shape[-1]))
    if blocked is not None:
        scores = masked_fill(scores, blocked)
    return merge_heads(softmax(scores, axis=-1) @ v)


def with_heads(fn, heads):
    """fn(q, k, v, heads, ...) with `heads` bound, so smat may follow v."""
    return lambda q, k, v, *rest, **kw: fn(q, k, v, heads, *rest, **kw)


def reference_layer_norm_affine(x, r, g, b):
    return layer_norm(x + r) * g + b


def assert_fused_matches(fused, reference, arrays, **consts):
    """Same value bit for bit; every input's gradient within 1e-12 of the
    reference's largest magnitude. Returns the fused and the reference
    inputs, which hold their gradients."""
    runs = []
    for fn in (fused, reference):
        inputs = [Tensor(a.copy(), requires_grad=True) for a in arrays]
        runs.append((fn(*inputs, **consts), inputs))
    (out, inputs), (ref, ref_inputs) = runs
    np.testing.assert_array_equal(out.data, ref.data)
    seed = RNG.standard_normal(out.shape)
    out.backward(seed)
    ref.backward(seed)
    for t, r in zip(inputs, ref_inputs):
        assert t.grad.shape == r.grad.shape
        np.testing.assert_allclose(t.grad, r.grad, rtol=0,
                                   atol=1e-12 * np.abs(r.grad).max())
    return inputs, ref_inputs


@pytest.mark.parametrize("lead", [(7,), (3, 5), (2, 3, 4)])
def test_linear_matches_the_composition(lead):
    x = RNG.standard_normal(lead + (6,))
    w, b = RNG.standard_normal((6, 4)), RNG.standard_normal(4)
    assert_fused_matches(linear, reference_linear, [x, w, b])
    # one row per batch, as each decoding step has
    assert_fused_matches(linear, reference_linear,
                         [RNG.standard_normal((4, 1, 6)), w, b])


def test_backward_copies_the_seed():
    t = Tensor(RNG.standard_normal(3), requires_grad=True)
    seed = np.ones(3)
    t.backward(seed)
    seed[:] = 5.0
    np.testing.assert_array_equal(t.grad, np.ones(3))


def reference_track_linear(x, w, b):
    return x @ w + b.reshape(b.shape[0], 1, b.shape[1])


@pytest.mark.parametrize("t", [1, 5])
def test_linear_with_one_weight_per_track_matches_the_composition(t):
    arrays = [RNG.standard_normal((3, t, 6)), RNG.standard_normal((3, 6, 4)),
              RNG.standard_normal((3, 4))]
    assert_fused_matches(linear, reference_track_linear, arrays)


@pytest.mark.parametrize("t", [1, 5])
def test_linear_cycles_per_slot_weights_over_stacked_songs(t):
    # rows of 2 stacked songs of 3 tracks use weights 0, 1, 2, 0, 1, 2
    x = RNG.standard_normal((6, t, 6))
    w, b = RNG.standard_normal((3, 6, 4)), RNG.standard_normal((3, 4))
    stacked = [Tensor(a.copy(), requires_grad=True) for a in (x, w, b)]
    out = linear(*stacked)
    seed = RNG.standard_normal(out.shape)
    out.backward(seed)
    wt, bt = Tensor(w, requires_grad=True), Tensor(b, requires_grad=True)
    for song in (slice(0, 3), slice(3, 6)):
        xs = Tensor(x[song], requires_grad=True)
        part = linear(xs, wt, bt)
        np.testing.assert_array_equal(out.data[song], part.data)
        part.backward(seed[song])
        np.testing.assert_array_equal(stacked[0].grad[song], xs.grad)
    for t_stacked, t_songs in zip(stacked[1:], (wt, bt)):
        np.testing.assert_allclose(t_stacked.grad, t_songs.grad, rtol=0,
                                   atol=1e-12 * np.abs(t_songs.grad).max())
    with pytest.raises(ValueError):
        linear(Tensor(RNG.standard_normal((4, t, 6))), Tensor(w), Tensor(b))


def causal(tq: int, tk: int) -> np.ndarray:
    return np.triu(np.ones((tq, tk), dtype=bool), k=tk - tq + 1)


@pytest.mark.parametrize("modulated", [False, True])
@pytest.mark.parametrize("tq,tk,blocked", [(5, 5, None), (5, 5, causal(5, 5)),
                                           (2, 6, causal(2, 6)), (3, 4, None)])
def test_attention_matches_the_composition(modulated, tq, tk, blocked):
    b, h, dh = 2, 3, 4
    arrays = [RNG.standard_normal((b, tq, h * dh)), RNG.standard_normal((b, tk, h * dh)),
              RNG.standard_normal((b, tk, h * dh))]
    if modulated:
        arrays.append(1.0 + RNG.standard_normal((b, tq, tk)))
    assert_fused_matches(with_heads(attention, h), with_heads(reference_attention, h),
                         arrays, blocked=blocked)


def test_attention_second_backward_pass_adds_a_fresh_pass():
    # a pass clears the inner nodes' gradients first, so two passes over
    # one graph give the sum of two single passes
    arrays = [RNG.standard_normal((1, 3, 8)) for _ in range(3)]
    arrays.append(RNG.standard_normal((1, 3, 3)))
    s1, s2 = RNG.standard_normal((2, 1, 3, 8))

    def grads(*seeds):
        inputs = [Tensor(a.copy(), requires_grad=True) for a in arrays]
        out = attention(*inputs[:3], 2, inputs[3], blocked=causal(3, 3))
        for seed in seeds:
            out.backward(seed)
        return [t.grad for t in inputs]

    for both, first, second in zip(grads(s1, s2), grads(s1), grads(s2)):
        np.testing.assert_allclose(both, first + second, rtol=0,
                                   atol=1e-12 * np.abs(both).max())


@pytest.mark.parametrize("layer", [linear, reference_linear])
def test_two_backward_passes_equal_two_single_passes(layer):
    # the fused node and the composition x @ w + b, whose add node hands a
    # view of its output gradient on to the matmul node
    arrays = [RNG.standard_normal((3, 5, 6)), RNG.standard_normal((6, 4)),
              RNG.standard_normal(4)]
    s1, s2 = RNG.standard_normal((2, 3, 5, 4))

    def grads(*seeds):
        inputs = [Tensor(a.copy(), requires_grad=True) for a in arrays]
        out = layer(*inputs).relu()
        for seed in seeds:
            out.backward(seed)
        return [t.grad for t in inputs]

    for both, first, second in zip(grads(s1, s2), grads(s1), grads(s2)):
        np.testing.assert_allclose(both, first + second, rtol=0,
                                   atol=1e-12 * np.abs(both).max())


def test_attention_against_finite_differences():
    k, v = RNG.standard_normal((1, 4, 6)), RNG.standard_normal((1, 4, 6))
    smat = 1.0 + RNG.standard_normal((1, 4, 4))
    mask = causal(4, 4)

    def split(a):   # two heads of 3
        return a.reshape(1, 4, 2, 3).transpose(0, 2, 1, 3)

    def np_attention(q):
        scores = split(q) @ split(k).transpose(0, 1, 3, 2) * smat[:, None] / np.sqrt(3)
        scores = np.where(mask, -np.inf, scores)
        e = np.exp(scores - scores.max(axis=-1, keepdims=True))
        out = e / e.sum(axis=-1, keepdims=True) @ split(v)
        return out.transpose(0, 2, 1, 3).reshape(1, 4, 6)

    check(lambda t: attention(t, Tensor(k), Tensor(v), 2, Tensor(smat), mask),
          np_attention, RNG.standard_normal((1, 4, 6)))


def test_attention_blocked_scores_get_exactly_zero_gradient():
    b, h, t, dh = 2, 2, 5, 3
    mask = causal(t, t)

    def run(seed_last_row: bool):
        q, k, v = (Tensor(RNG.standard_normal((b, t, h * dh)), requires_grad=True)
                   for _ in range(3))
        smat = Tensor(RNG.standard_normal((b, t, t)), requires_grad=True)
        out = attention(q, k, v, h, smat, mask)
        seed = RNG.standard_normal(out.shape)
        if not seed_last_row:
            seed[:, -1] = 0.0
        out.backward(seed)
        return k, v, smat

    _, _, smat = run(seed_last_row=True)
    assert np.all(smat.grad[:, mask] == 0.0)
    # row 0 sees one key, so its softmax is constant; later rows are live
    assert np.all(smat.grad[:, 1:][:, ~mask[1:]] != 0.0)
    # only the last query sees the last key
    k, v, _ = run(seed_last_row=False)
    assert np.all(k.grad[:, -1] == 0.0) and np.all(v.grad[:, -1] == 0.0)
    assert np.all(k.grad[:, 0] != 0.0)


def two_pass_normalize(x):
    """`_normalize` as `x.mean` and `x.var` compute it."""
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + LN_EPS)
    y = (x - mu) * inv

    def vjp(g):
        gm = g.mean(axis=-1, keepdims=True)
        gym = (g * y).mean(axis=-1, keepdims=True)
        return inv * (g - gm - y * gym)
    return y, inv, vjp


@pytest.mark.parametrize("shape", [(4, 1, 32), (3, 37, 32), (2, 50, 256)])
def test_normalize_is_bit_identical_to_mean_and_var(shape):
    x = RNG.standard_normal(shape) * 3 + 5
    g = RNG.standard_normal(shape)
    y, inv, vjp = _normalize(x)
    y_ref, inv_ref, vjp_ref = two_pass_normalize(x)
    assert np.array_equal(y, y_ref)
    assert np.array_equal(inv, inv_ref)
    assert np.array_equal(vjp(g), vjp_ref(g))


def test_layer_norm_affine_matches_the_composition():
    """The node is layer_norm(x + r) * g + b: its value bit for bit, and so
    are the residual operands' gradients, which are one array. In float32
    the gain and bias gradients sum in another order than the reference's,
    so only the value and the residual gradients are compared there."""
    for dtype in ("float64", "float32"):
        arrays = [a.astype(dtype) for a in (
            RNG.standard_normal((2, 3, 9)) * 2 + 1, RNG.standard_normal((2, 3, 9)),
            RNG.standard_normal(9), RNG.standard_normal(9))]
        if dtype == "float64":
            inputs, ref_inputs = assert_fused_matches(
                layer_norm_affine, reference_layer_norm_affine, arrays)
        else:
            inputs, ref_inputs = ([Tensor(a.copy(), requires_grad=True)
                                   for a in arrays] for _ in range(2))
            out = layer_norm_affine(*inputs)
            ref = reference_layer_norm_affine(*ref_inputs)
            assert out.data.dtype == dtype
            np.testing.assert_array_equal(out.data, ref.data)
            seed = RNG.standard_normal(out.shape)
            out.backward(seed)
            ref.backward(seed)
        (x, r), (x_ref, r_ref) = inputs[:2], ref_inputs[:2]
        assert x.grad.dtype == dtype
        assert np.array_equal(x.grad, x_ref.grad)
        assert np.array_equal(r.grad, r_ref.grad)
        assert np.shares_memory(x.grad, r.grad)
    with pytest.raises(ValueError):
        layer_norm_affine(Tensor(np.ones((2, 4))), Tensor(np.ones(4)),
                          Tensor(np.ones(4)), Tensor(np.zeros(4)))


def test_fused_nodes_raise_on_non_finite_input():
    # an inf that reached an op unchecked, as `detach` passes values on
    bad = RNG.standard_normal((2, 3, 4))
    bad[0, 2, 3] = np.inf
    bad = Tensor(bad, check=False)
    ok = Tensor(RNG.standard_normal((2, 3, 4)))
    with np.errstate(invalid="ignore", over="ignore"):
        with pytest.raises(NonFiniteError):
            linear(bad, Tensor(np.ones((4, 2))), Tensor(np.zeros(2)))
        for x, r in ((bad, ok), (ok, bad)):
            with pytest.raises(NonFiniteError):
                layer_norm_affine(x, r, Tensor(np.ones(4)), Tensor(np.zeros(4)))
        for q, k in ((bad, ok), (ok, bad)):
            with pytest.raises(NonFiniteError):
                attention(q, k, ok, 2, blocked=causal(3, 3))
        # scores that overflow to -inf are not masked scores, although the
        # softmax would turn them into finite zeros
        q, k = np.full((1, 3, 4), 1e200), np.ones((1, 3, 4))
        k[:, 0] = -1e200
        with pytest.raises(NonFiniteError):
            attention(Tensor(q), Tensor(k), Tensor(np.ones((1, 3, 4))), 1)


@pytest.mark.parametrize("dtype", ["float64", "float32"])
def test_pack_and_unpack_move_rows_exactly(dtype):
    """Three tracks of 5 positions holding 3, 2 and 4 real ones: pack
    gathers their rows and unpack scatters them into zeros, and each node's
    VJP is the other map, an explicit gather or scatter bit for bit."""
    x = RNG.standard_normal((3, 5, 4)).astype(dtype)
    index = np.array([0, 1, 2, 5, 6, 10, 11, 12, 13])
    flat = x.reshape(15, 4)

    def scattered(rows):   # [9, 4] -> [3, 5, 4], zeros elsewhere
        full = np.zeros((15, 4), dtype)
        full[index] = rows
        return full.reshape(3, 5, 4)

    padded = Tensor(x, requires_grad=True)
    packed = pack(padded, index)
    assert (packed.op, packed.data.dtype) == ("pack", dtype)
    assert np.array_equal(packed.data, flat[index])
    g = RNG.standard_normal((9, 4)).astype(dtype)
    packed.backward(g)
    assert np.array_equal(padded.grad, scattered(g))

    rows = Tensor(flat[index], requires_grad=True)
    out = unpack(rows, index, (3, 5))
    assert (out.op, out.data.dtype) == ("unpack", dtype)
    assert np.array_equal(out.data, scattered(flat[index]))
    g = RNG.standard_normal((3, 5, 4)).astype(dtype)
    out.backward(g)
    assert np.array_equal(rows.grad, g.reshape(15, 4)[index])

    # packing the unpacked rows gives them back, and so does its VJP
    rows.grad = None
    again = pack(unpack(rows, index, (3, 5)), index)
    assert np.array_equal(again.data, rows.data)
    g = RNG.standard_normal((9, 4)).astype(dtype)
    again.backward(g)
    assert np.array_equal(rows.grad, g)


def test_take_embedding_gradient():
    table = RNG.standard_normal((6, 3))
    ids = np.array([[0, 2], [2, 5]])
    t = Tensor(table.copy(), requires_grad=True)
    out = take(t, ids)
    assert out.data.shape == (2, 2, 3)
    seed = np.ones((2, 2, 3))
    out.backward(seed)
    expected = np.zeros((6, 3))
    expected[0] += 1
    expected[2] += 2  # row 2 looked up twice
    expected[5] += 1
    np.testing.assert_allclose(t.grad, expected)
    with pytest.raises(IndexError):
        take(t, np.array([9]))


def test_take_rows_and_put_rows():
    # the cross-track layer gathers flat rows with __getitem__ and writes
    # them back with put_rows
    x = RNG.standard_normal((10, 3))
    idx = np.array([1, 4, 7])
    t = Tensor(x.copy(), requires_grad=True)
    picked = t[idx]
    np.testing.assert_array_equal(picked.data, x[idx])
    seed = RNG.standard_normal((3, 3))
    picked.backward(seed)
    expect_grad = np.zeros_like(x)
    np.add.at(expect_grad, idx, seed)
    np.testing.assert_array_equal(t.grad, expect_grad)
    t.grad = None

    upd = Tensor(RNG.standard_normal((3, 3)), requires_grad=True)
    merged = put_rows(t, idx, upd)
    # non-selected rows bit-identical, selected rows replaced
    expect = x.copy()
    expect[idx] = upd.data
    np.testing.assert_array_equal(merged.data, expect)

    seed = RNG.standard_normal((10, 3))
    merged.backward(seed)
    pass_through = seed.copy()
    pass_through[idx] = 0.0
    np.testing.assert_allclose(t.grad, pass_through)
    np.testing.assert_allclose(upd.grad, seed[idx])


def test_expand_bars_values_and_gradient():
    S = Tensor(RNG.standard_normal((2, 3, 3)), requires_grad=True)
    bidx = np.array([[0, 0, 1, 2], [0, 1, 1, 1]])
    out = expand_similarity(S, bidx)
    assert out.data.shape == (2, 4, 4)
    for i in range(2):
        for t1 in range(4):
            for t2 in range(4):
                assert out.data[i, t1, t2] == S.data[i, bidx[i, t1], bidx[i, t2]]
    seed = np.ones((2, 4, 4))
    out.backward(seed)
    # gradient counts how many (t1, t2) pairs map to each bar pair
    expected = np.zeros((2, 3, 3))
    for i in range(2):
        for t1 in range(4):
            for t2 in range(4):
                expected[i, bidx[i, t1], bidx[i, t2]] += 1
    np.testing.assert_array_equal(S.grad, expected)


def test_cross_entropy_logits():
    logits = RNG.standard_normal((8, 6))
    targets = np.array([1, 2, 0, 5, 0, 0, 3, 1])
    mask = np.array([1, 1, 0, 1, 0, 1, 1, 1], dtype=np.float64)
    t = Tensor(logits.copy(), requires_grad=True)
    loss, count = cross_entropy_logits(t, targets, mask)
    assert count == int(mask.sum())

    def np_loss(v):
        m = v - v.max(axis=-1, keepdims=True)
        logsumexp = np.log(np.exp(m).sum(axis=-1)) + v.max(axis=-1)
        picked = np.take_along_axis(v, targets[..., None], axis=-1)[..., 0]
        return ((logsumexp - picked) * mask).sum().reshape(())

    np.testing.assert_allclose(loss.data, np_loss(logits), atol=1e-10)
    loss.backward()
    num = numeric_grad(np_loss, logits.copy(), np.ones(()))
    np.testing.assert_allclose(t.grad, num, atol=1e-5, rtol=1e-4)


def test_cross_entropy_gradient_is_the_softmax_formula_bit_for_bit():
    logits = 30.0 * RNG.standard_normal((7, 9))
    targets = RNG.integers(0, 9, size=7)
    mask = RNG.random(7) < 0.7
    t = Tensor(logits.copy(), requires_grad=True)
    loss, _ = cross_entropy_logits(t, targets, mask)
    loss.backward(np.array(0.5))
    z = logits - logits.max(axis=-1, keepdims=True)
    p = np.exp(z) / np.exp(z).sum(axis=-1, keepdims=True)
    p[np.arange(7), targets] -= 1.0
    np.testing.assert_array_equal(t.grad, 0.5 * p * mask[:, None])


@pytest.mark.parametrize("key", [(slice(None), slice(0, 3), slice(None)),
                                 (1, Ellipsis, None), 2,
                                 (np.array([0, 2, 0, 0]), slice(1, 4)),
                                 (np.array([1, 1]), np.array([3, 3])),
                                 # one array per axis, broadcast, with
                                 # repeats and a negative index (np.bincount)
                                 (np.array([[0], [2], [0]]), np.array([1, 1, 3]),
                                  np.array([4, -1, 4])),
                                 (np.arange(3)[:, None, None],
                                  np.array([[[0], [0], [3]]]),
                                  np.array([[[1, 1, 2, 1]]]))])
def test_getitem_gradient_matches_add_at(key):
    x = RNG.standard_normal((3, 4, 5))
    t = Tensor(x.copy(), requires_grad=True)
    out = t[key]
    seed = RNG.standard_normal(out.shape)
    out.backward(seed)
    expected = np.zeros_like(x)
    np.add.at(expected, key, seed)
    np.testing.assert_array_equal(t.grad, expected)


def test_stored_gradients_are_read_only():
    a = Tensor(RNG.standard_normal((2, 3)), requires_grad=True)
    out = (a * 2.0).sum()     # a keeps the array mul's VJP returned
    out.backward()
    # VJPs that return numpy scalars: kept 0-d, or broadcast to the shape
    s = Tensor(np.array(0.5), requires_grad=True)
    b = Tensor(np.zeros((2, 3)), requires_grad=True)
    for leaf in (s, b):
        Tensor(1.0, parents=(leaf,), vjps=(lambda g: np.float64(3.0),)).backward()
    assert s.grad.shape == () and float(s.grad) == 3.0
    np.testing.assert_array_equal(b.grad, np.full((2, 3), 3.0))
    np.testing.assert_array_equal(a.grad, np.full((2, 3), 2.0))
    for t in (a, out, s, b):
        with pytest.raises(ValueError):
            t.grad[...] = 0.0


def test_diamond_graph_accumulates_once_per_path():
    x = Tensor(np.array([2.0]), requires_grad=True)
    y = x * 3.0
    z = y + y
    z.backward(np.ones(1))
    np.testing.assert_allclose(x.grad, [6.0])


def test_ops_on_constants_keep_no_tape():
    a, b = RNG.standard_normal((2, 3)), RNG.standard_normal((2, 3))
    const = Tensor(a) * Tensor(b)
    assert not const.requires_grad
    assert const._parents == () and const._vjps == ()
    live = Tensor(a, requires_grad=True) * Tensor(b)
    assert len(live._parents) == len(live._vjps) == 2


def test_no_grad_records_no_tape():
    a, b = RNG.standard_normal((2, 3)), RNG.standard_normal((3, 2))
    w = Tensor(a, requires_grad=True)
    taped = layer_norm((w @ Tensor(b)).relu() + w.sum())
    with no_grad():
        out = [w @ Tensor(b), (w @ Tensor(b)).relu(), layer_norm(w), softmax(w),
               w[0], w.transpose(), concat([w, w]), take(w, np.array([1, 0])),
               put_rows(w, np.array([1]), w[:1]),
               linear(w, Tensor(b), w[0, :2]), layer_norm_affine(w, w, w[0], w[1]),
               attention(*(w.reshape(1, 2, 3),) * 3, 1, blocked=np.eye(2) < 0)]
        out.append(layer_norm((w @ Tensor(b)).relu() + w.sum()))
        with pytest.raises(NonFiniteError):
            w * np.inf
    for t in out:
        assert not t.requires_grad
        assert t._parents == () and t._vjps == ()
    np.testing.assert_array_equal(out[-1].data, taped.data)
    # the tape is back after the block, also after an exception inside it
    assert len((w * 2.0)._parents) == 2
    with pytest.raises(RuntimeError):
        with no_grad():
            raise RuntimeError
    assert (w + 1.0).requires_grad


def test_deep_chain_does_not_recurse():
    x = Tensor(np.ones(1), requires_grad=True)
    y = x
    for _ in range(5000):
        y = y + 1.0
    y.backward(np.ones(1))
    np.testing.assert_allclose(x.grad, [1.0])


def test_finite_checks_raise():
    t = Tensor(np.array([1.0, 0.0]), requires_grad=True)
    with np.errstate(invalid="ignore"):
        with pytest.raises(NonFiniteError):
            _ = t * np.inf


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_one_reduction_finite_check_keeps_its_contract(dtype):
    """The finiteness check of `Tensor` and of `attention`'s scores sums
    the values once and tests them elementwise only when the sum is not
    finite. Finite values whose sum overflows pass, as does an empty array;
    a NaN, +inf or -inf at the first, a middle or the last element raises."""
    big = np.finfo(dtype).max * dtype(0.75)
    with np.errstate(over="ignore"):   # numpy warns of the sum's overflow
        assert np.isinf(np.add.reduce(np.full(4, big), axis=None))
        for values in (np.full((2, 3), big), np.array([big, -big, big, big])):
            assert np.array_equal(Tensor(values.astype(dtype)).data, values)
        for shape in ((0,), (3, 0)):
            assert Tensor(np.zeros(shape, dtype)).shape == shape
        # each score q.k * smat / sqrt(4) is 0.375 of the largest float
        q = Tensor(np.full((1, 3, 4), 0.5, dtype))
        out = attention(q, q, q, 1, Tensor(np.full((1, 3, 3), big, dtype)))
        assert out.data.dtype == dtype and np.isfinite(out.data).all()
    for bad in (np.nan, np.inf, -np.inf):
        for at in (0, 4, 8):
            values = np.ones(9, dtype)
            values[at] = bad
            with pytest.raises(NonFiniteError):
                Tensor(values.reshape(3, 3))
            smat = Tensor(values.reshape(1, 3, 3), check=False)
            q = Tensor(RNG.standard_normal((1, 3, 4)).astype(dtype))
            with np.errstate(invalid="ignore"), pytest.raises(NonFiniteError):
                attention(q, q, q, 2, smat)


def test_detach_stops_gradient():
    x = Tensor(np.array([3.0]), requires_grad=True)
    out = x * 2.0 + (x * 5.0).detach()
    out.backward(np.ones(1))
    np.testing.assert_allclose(x.grad, [2.0])


def test_straight_through_forwards_value_and_copies_gradient():
    x = Tensor(RNG.standard_normal((2, 3)), requires_grad=True)
    value = RNG.standard_normal((2, 3))
    out = straight_through(x, value)
    assert np.array_equal(out.data, value)
    seed = RNG.standard_normal((2, 3))
    out.backward(seed)
    np.testing.assert_array_equal(x.grad, seed)
    with pytest.raises(ValueError):
        straight_through(x, np.zeros((3, 2)))
