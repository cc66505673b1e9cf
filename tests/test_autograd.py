"""Reverse-mode tape: every op checked against central finite differences."""

import numpy as np
import pytest

from bandgen.errors import NonFiniteError
from bandgen.neural.autograd import (Tensor, concat, cross_entropy_logits,
                                     layer_norm, masked_fill, no_grad,
                                     put_pairs, softmax, straight_through, take)
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


def test_sum_mean_relu():
    x = RNG.standard_normal((3, 5))
    check(lambda t: t.sum(), lambda v: v.sum().reshape(()), x)
    check(lambda t: t.sum(axis=1), lambda v: v.sum(axis=1), x)
    check(lambda t: t.mean(axis=0, keepdims=True),
          lambda v: v.mean(axis=0, keepdims=True), x)
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


def test_masked_fill_blocks_gradient():
    x = RNG.standard_normal((3, 3))
    mask = np.triu(np.ones((3, 3), dtype=bool), k=1)
    t = Tensor(x.copy(), requires_grad=True)
    out = masked_fill(t, mask, -np.inf)
    assert np.all(np.isneginf(out.data[mask]))
    seed = np.ones((3, 3))
    out.backward(seed)
    expected = np.where(mask, 0.0, 1.0)
    np.testing.assert_allclose(t.grad, expected)


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


def test_take_pairs_and_put_pairs():
    # the cross-track layer gathers (track, position) rows with __getitem__
    # and writes them back with put_pairs
    x = RNG.standard_normal((2, 5, 3))
    i0 = np.array([0, 0, 1])
    i1 = np.array([1, 4, 2])
    t = Tensor(x.copy(), requires_grad=True)
    picked = t[i0, i1]
    np.testing.assert_array_equal(picked.data, x[i0, i1])
    seed = RNG.standard_normal((3, 3))
    picked.backward(seed)
    expect_grad = np.zeros_like(x)
    np.add.at(expect_grad, (i0, i1), seed)
    np.testing.assert_array_equal(t.grad, expect_grad)
    t.grad = None

    upd = Tensor(RNG.standard_normal((3, 3)), requires_grad=True)
    merged = put_pairs(t, i0, i1, upd)
    # non-selected rows bit-identical, selected rows replaced
    expect = x.copy()
    expect[i0, i1] = upd.data
    np.testing.assert_array_equal(merged.data, expect)

    seed = RNG.standard_normal((2, 5, 3))
    merged.backward(seed)
    pass_through = seed.copy()
    pass_through[i0, i1] = 0.0
    np.testing.assert_allclose(t.grad, pass_through)
    np.testing.assert_allclose(upd.grad, seed[i0, i1])


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
               put_pairs(w, np.array([0]), np.array([1]), w[0, :1])]
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
