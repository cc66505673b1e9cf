"""The hot autograd nodes against their oracles in `node_oracles`: values
and every gradient bit for bit, at training shapes, in float64 and float32,
over two backward passes of one graph. The nodes compute in place in arrays
they allocated, so every input, parameter and seed array is also handed
to them read-only, and one attention node's allocations are counted."""

import tracemalloc

import numpy as np
import pytest

import node_oracles as oracle
from bandgen.neural import autograd, model
from bandgen.neural.autograd import (Tensor, attention, cross_entropy_logits,
                                     layer_norm, layer_norm_affine, linear,
                                     softmax)

RNG = np.random.default_rng(25)
DTYPES = ("float64", "float32")


def frozen(a: np.ndarray, dtype: str) -> np.ndarray:
    """A read-only copy of a in dtype."""
    a = a.astype(dtype)
    a.flags.writeable = False
    return a


def causal(tq: int, tk: int) -> np.ndarray:
    return np.triu(np.ones((tq, tk), dtype=bool), k=tk - tq + 1)


def run(node, arrays: list[np.ndarray], seeds: list[np.ndarray], **consts):
    """The node's value and every input's gradient after each of len(seeds)
    backward passes over one graph, with read-only inputs and seeds."""
    inputs = [Tensor(a, requires_grad=True) for a in arrays]
    out = node(*inputs, **consts)
    grads = []
    for seed in seeds:
        out.backward(seed)
        grads.append([np.array(t.grad) for t in inputs])
    return out.data, grads


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal dtypes, shapes and bytes: unlike `array_equal`, -0.0 and +0.0
    differ."""
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_same(node, ref, arrays, dtype, **consts):
    """node and ref give the same value and gradients, dtypes included, bit
    for bit, over two backward passes."""
    arrays = [frozen(a, dtype) if a.dtype.kind == "f" else a for a in arrays]
    probe = node(*[Tensor(a) for a in arrays], **consts)
    seeds = [frozen(RNG.standard_normal(probe.shape), dtype) for _ in range(2)]
    (value, grads), (ref_value, ref_grads) = (run(fn, arrays, seeds, **consts)
                                              for fn in (node, ref))
    assert value.dtype == dtype and same_bits(value, ref_value)
    for one_pass, ref_pass in zip(grads, ref_grads):
        for g, ref_g in zip(one_pass, ref_pass):
            assert g.dtype == dtype and same_bits(g, ref_g)


# (b, tq, tk, d, heads, masked): a toy and a paper self-attention with
# and without the causal mask, a decoding row over its cached prefix and a
# cross-attention over bars
ATTENTION_CASES = [(12, 119, 119, 32, 2, True), (12, 119, 119, 32, 2, False),
                   (4, 119, 119, 256, 8, True), (4, 119, 119, 256, 8, False),
                   (12, 1, 119, 32, 2, False), (12, 119, 8, 32, 2, False)]


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("b,tq,tk,d,heads,masked", ATTENTION_CASES)
@pytest.mark.parametrize("modulated", [False, True])
def test_attention_matches_its_oracle(dtype, b, tq, tk, d, heads, masked, modulated):
    arrays = [RNG.standard_normal((b, tq, d)), RNG.standard_normal((b, tk, d)),
              RNG.standard_normal((b, tk, d))]
    if modulated:
        arrays.append(1.0 + RNG.standard_normal((b, tq, tk)))
    blocked = causal(tq, tk) if masked else None

    def node(fn):
        return lambda q, k, v, *smat: fn(q, k, v, heads, *smat, blocked=blocked)
    assert_same(node(attention), node(oracle.attention), arrays, dtype)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("shape,w_shape", [((12, 119, 32), (32, 64)),
                                           ((12, 119, 32), (4, 32, 64)),
                                           ((4, 1, 256), (256, 256)),
                                           ((4, 1, 256), (4, 256, 300))])
def test_linear_matches_its_oracle(dtype, shape, w_shape):
    arrays = [RNG.standard_normal(shape), RNG.standard_normal(w_shape),
              RNG.standard_normal(w_shape[:-2] + w_shape[-1:])]
    assert_same(linear, oracle.linear, arrays, dtype)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("shape", [(12, 119, 32), (4, 1, 256)])
def test_layer_norm_affine_matches_its_oracle(dtype, shape):
    arrays = [RNG.standard_normal(shape) * 3 + 1, RNG.standard_normal(shape),
              RNG.standard_normal(shape[-1:]), RNG.standard_normal(shape[-1:])]
    assert_same(layer_norm_affine, oracle.layer_norm_affine, arrays, dtype)


@pytest.mark.parametrize("dtype", DTYPES)
def test_cross_entropy_matches_its_oracle(dtype):
    n, vocab = 12 * 118, 300
    targets = RNG.integers(0, vocab, n)
    mask = RNG.random(n) < 0.8
    arrays = [RNG.standard_normal((n, vocab)) * 4]

    def node(fn):
        return lambda logits: fn(logits, targets, mask)[0]
    assert_same(node(cross_entropy_logits), node(oracle.cross_entropy_logits),
                arrays, dtype)
    assert cross_entropy_logits(Tensor(arrays[0]), targets, mask)[1] == mask.sum()


@pytest.mark.parametrize("dtype", DTYPES)
def test_softmax_and_normalize_match_their_oracles(dtype):
    x = frozen(RNG.standard_normal((12, 8, 8)) * 3, dtype)
    g = frozen(RNG.standard_normal(x.shape), dtype)
    for axis in (-1, 1):
        (p, vjp), (ref_p, ref_vjp) = autograd._softmax(x, axis), oracle._softmax(x, axis)
        assert same_bits(p, ref_p) and same_bits(vjp(g), ref_vjp(g))
    for new, ref in zip(autograd._normalize(x), oracle._normalize(x)):
        if callable(new):
            new, ref = new(g), ref(g)
        assert same_bits(new, ref)


def test_every_rewritten_node_leaves_read_only_inputs_and_seeds_alone():
    """Forward and two backward passes of each node over read-only inputs,
    parameters and seeds: an in-place write into any of them raises."""
    x = frozen(RNG.standard_normal((6, 9, 8)), "float64")
    smat = frozen(1.0 + RNG.standard_normal((6, 9, 9)), "float64")
    cases = [
        (softmax, [x], {}), (layer_norm, [x], {}),
        (layer_norm_affine, [x, x[::-1], x[0, 0], x[1, 1]], {}),
        (linear, [x, frozen(RNG.standard_normal((8, 5)), "float64"), x[0, 0, :5]], {}),
        (linear, [x, frozen(RNG.standard_normal((3, 8, 5)), "float64"), x[0, :3, :5]], {}),
        (lambda q, k, v, s: attention(q, k, v, 2, s, causal(9, 9)), [x, x, x, smat], {}),
        (lambda logits: cross_entropy_logits(logits, np.arange(9) % 8,
                                             np.arange(9) > 0)[0], [x[0]], {}),
    ]
    for node, arrays, consts in cases:
        probe = node(*[Tensor(a) for a in arrays], **consts)
        seeds = [frozen(RNG.standard_normal(probe.shape), "float64") for _ in range(2)]
        run(node, arrays, seeds, **consts)


@pytest.mark.parametrize("dtype", DTYPES)
def test_attention_over_cached_rows_leaves_the_cache_views_alone(dtype):
    """Decoding hands attention views of the cache's key and value buffers
    as k and v: a prefill of 5 rows under the causal mask, then one row."""
    tracks, d, heads = 3, 8, 2
    cache = model.DecodeCache()
    cache._size(tracks, d, dtype, ["layer"])
    cache.kv["layer"] = [np.zeros((tracks, 8, d), dtype) for _ in range(2)]
    cache.S = Tensor(np.zeros((tracks, 1, 1), dtype))
    for start, rows in ((0, 5), (5, 1)):
        past = model._CachedRows(cache, cache.track_set((0, 1, 2)), start)
        new_k, new_v = (Tensor(frozen(RNG.standard_normal((tracks, rows, d)), dtype))
                        for _ in range(2))
        k, v = past.attend("layer", new_k, new_v)
        assert all(np.shares_memory(t.data, buf)
                   for t, buf in zip((k, v), cache.kv["layer"]))
        for t in (k, v):
            t.data.flags.writeable = False
        stop = start + rows
        q = frozen(RNG.standard_normal((tracks, rows, d)), dtype)
        smat = frozen(1.0 + RNG.standard_normal((tracks, rows, stop)), dtype)
        blocked = model.causal_mask(rows, stop) if rows > 1 else None
        seeds = [frozen(RNG.standard_normal((tracks, rows, d)), dtype) for _ in range(2)]
        (value, grads), (ref_value, ref_grads) = (
            run(lambda q, s: fn(q, k, v, heads, s, blocked), [q, smat], seeds)
            for fn in (attention, oracle.attention))
        assert same_bits(value, ref_value)
        for one_pass, ref_pass in zip(grads, ref_grads):
            assert all(same_bits(g, r) for g, r in zip(one_pass, ref_pass))


def test_causal_mask_is_cached_and_read_only():
    mask = model.causal_mask(5, 7)
    assert mask is model.causal_mask(5, 7)
    assert np.array_equal(mask, causal(5, 7))
    assert not mask.flags.writeable


def test_attention_allocation_census():
    """Traced peaks of one self-attention node at a toy training shape,
    [12, 119, 32] with 2 heads, smat and the causal mask, in whole arrays
    of its scores [12, 2, 119, 119]. The forward holds the raw scores and
    the probabilities, and a bool array an eighth that size for the
    finiteness check. A backward pass adds its two scratch arrays and the
    gradient of smat, half that size."""
    b, t, d, heads = 12, 119, 32, 2
    unit = b * heads * t * t * 8
    arrays = [RNG.standard_normal((b, t, d)) for _ in range(3)]
    arrays.append(1.0 + RNG.standard_normal((b, t, t)))
    inputs = [Tensor(a, requires_grad=True) for a in arrays]
    seed = RNG.standard_normal((b, t, d))
    blocked = causal(t, t)
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = attention(*inputs[:3], heads, inputs[3], blocked)
        forward = tracemalloc.get_traced_memory()[1] - base
        tracemalloc.reset_peak()
        out.backward(seed)
        backward = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()
    assert int(forward / unit) == 2
    assert int(backward / unit) == 4
