"""Optimizer math, schedules, deterministic training, gradient verification."""

import numpy as np
import pytest

from bandgen.bpe import bpe_encode, learn_bpe
from bandgen.errors import BarCountMismatch, DataError, UsageError
from bandgen.features import (FeatureGrid, extract_expert_features,
                              quantize_features)
from bandgen.neural.autograd import Tensor, no_grad
from bandgen.neural.checkpoint import dump_checkpoint
from bandgen.neural.model import (DecodeCache, init_params, make_config,
                                  model_forward, sequence_loss)
from bandgen.neural.optim import Adam, schedule_lr
from bandgen.neural.sampling import generate
from bandgen.neural.training import (batch_loss, check_pair, gradient_check,
                                     mean_loss, train_model, train_step)
from bandgen.neural.vqvae import (_pad_units, bar_units, init_vq_params,
                                  train_vqvae, vqvae_batch_loss)
from bandgen.score import Song, Track
from bandgen.synth import make_song
from bandgen.tokens import build_track_seqs, tokenize_song


def small_cfg(**overrides):
    kwargs = dict(d=16, heads=2, ffn=16, t_max=256, b_max=16)
    kwargs.update(overrides)
    return make_config("toy", **kwargs)


def make_pair(vocab, n_bars=2, seed=3):
    song = make_song(seed=seed, n_bars=n_bars)
    return (tokenize_song(song, vocab),
            quantize_features(extract_expert_features(song)))


def test_adam_single_step_oracle():
    data = np.array([1.0, -2.0, 3.0])
    grad = np.array([0.5, -1.0, 0.0])
    p = Tensor(data.copy(), requires_grad=True)
    p.grad = grad.copy()
    opt = Adam({"w": p}, lr=0.1)  # beta1 0.9, beta2 0.99, eps 1e-8
    opt.step()

    m = 0.1 * grad
    v = 0.01 * grad * grad
    mhat = m / (1 - 0.9)
    vhat = v / (1 - 0.99)
    expected = data - 0.1 * mhat / (np.sqrt(vhat) + 1e-8)
    np.testing.assert_allclose(p.data, expected, rtol=0, atol=1e-15)

    # second step with a fresh gradient uses the accumulated moments
    grad2 = np.array([1.0, 1.0, 1.0])
    p.grad = grad2.copy()
    opt.step()
    m = 0.9 * m + 0.1 * grad2
    v = 0.99 * v + 0.01 * grad2 * grad2
    mhat = m / (1 - 0.9 ** 2)
    vhat = v / (1 - 0.99 ** 2)
    expected = expected - 0.1 * mhat / (np.sqrt(vhat) + 1e-8)
    np.testing.assert_allclose(p.data, expected, rtol=0, atol=1e-15)


def test_adam_in_place_is_bit_identical_to_the_formula():
    rng = np.random.default_rng(3)
    data = rng.standard_normal((6, 5))
    p = Tensor(data.copy(), requires_grad=True)
    opt = Adam({"w": p}, lr=1e-3)
    m, v, expected = np.zeros_like(data), np.zeros_like(data), data.copy()
    for t in range(1, 6):
        # magnitudes from 1e-8 to 1e2, both signs
        grad = rng.choice([-1.0, 1.0], data.shape) * 10.0 ** rng.uniform(-8, 2, data.shape)
        p.grad = grad.copy()
        opt.step()
        m = 0.9 * m + (1 - 0.9) * grad
        v = 0.99 * v + (1 - 0.99) * grad * grad
        mhat = m / (1 - 0.9 ** t)
        vhat = v / (1 - 0.99 ** t)
        expected -= 1e-3 * mhat / (np.sqrt(vhat) + 1e-8)
        assert p.data.tobytes() == expected.tobytes()
        assert opt.m["w"].tobytes() == m.tobytes()
        assert opt.v["w"].tobytes() == v.tobytes()
        np.testing.assert_array_equal(p.grad, grad)


def test_adam_skips_parameters_without_gradient():
    p = Tensor(np.array([1.0]), requires_grad=True)
    opt = Adam({"a": p}, lr=0.1)
    opt.zero_grad()
    assert p.grad is None
    opt.step()
    np.testing.assert_array_equal(p.data, [1.0])


def test_schedule_constant():
    for step in (0, 5, 199):
        assert schedule_lr(step, 200, "constant", 1e-3) == 1e-3


def test_schedule_warmup_frozen_points():
    args = (100, "warmup", 4e-4)  # lr is the peak; the decay ends at 4e-5
    assert schedule_lr(0, *args) == pytest.approx(4e-5)
    assert schedule_lr(4, *args) == pytest.approx(2e-4)
    assert schedule_lr(9, *args) == pytest.approx(4e-4)
    assert schedule_lr(10, *args) == pytest.approx(4e-4)
    # halfway through decay: 4e-4 + (4e-5 - 4e-4) * 45/90
    assert schedule_lr(55, *args) == pytest.approx(2.2e-4)
    assert schedule_lr(100, *args) == pytest.approx(4e-5)
    assert schedule_lr(500, *args) == pytest.approx(4e-5)  # clamped


def test_train_step_updates_parameters(vocab):
    cfg = small_cfg()
    params = init_params(cfg)
    before = params["te"].data.copy()
    opt = Adam(params, lr=cfg.lr)
    pair = make_pair(vocab)
    loss = train_step([pair], params, cfg, opt, lr=cfg.lr)
    assert loss > 0
    assert not np.array_equal(params["te"].data, before)
    assert set(opt.params) == set(params)


def test_training_is_deterministic_on_rerun(vocab):
    cfg = small_cfg()
    pair = make_pair(vocab)
    p1, h1 = train_model([pair], cfg, steps=3)
    p2, h2 = train_model([pair], cfg, steps=3)
    assert h1 == h2
    for name in p1:
        assert np.array_equal(p1[name].data, p2[name].data)


def test_negative_steps_are_a_usage_error(vocab):
    cfg = small_cfg()
    pair = make_pair(vocab)
    with pytest.raises(UsageError):
        train_model([pair], cfg, steps=-3)
    with pytest.raises(UsageError):
        train_vqvae([pair[0]], cfg, steps=-3)
    assert train_model([pair], cfg, steps=0)[1] == []


def test_training_reduces_loss(vocab):
    cfg = small_cfg()
    pair = make_pair(vocab)
    params, history = train_model([pair], cfg, steps=10)
    assert history[-1] < history[0]
    assert mean_loss([pair], params, cfg) == pytest.approx(
        history[-1], rel=0.5)


def test_gradient_check_all_blocks(vocab):
    # checked at a generic parameter point: the freshly seeded model sits
    # where attention is near-uniform and query/key gradients are under the
    # finite-difference noise floor
    cfg = small_cfg()
    params = init_params(cfg)
    rng = np.random.default_rng(0)
    for p in params.values():
        p.data = p.data + rng.normal(0.0, 0.3, p.data.shape)
    pair = make_pair(vocab)
    report = gradient_check([pair], params, cfg, h=1e-5, coords_per_block=1)
    worst = max(report.values())
    bad = {k: v for k, v in report.items() if v >= 1e-4}
    assert worst < 1e-4, f"blocks over tolerance: {bad}"
    # finite differences resolve nothing at float32's precision
    cfg32 = small_cfg(dtype="float32")
    with pytest.raises(UsageError):
        gradient_check([pair], init_params(cfg32), cfg32)


def test_a_float32_config_makes_only_float32_arrays(vocab, monkeypatch):
    """Counted through `Tensor.__init__`: a float32 training step, VQ-VAE
    step and cached decode step make no array of another dtype, be it a
    tensor's value or gradient, an Adam moment or a decode-cache buffer (a
    0-d float64 constant would turn a whole graph into float64)."""
    made = []
    init = Tensor.__init__

    def recording(self, *args, **kwargs):
        init(self, *args, **kwargs)
        made.append(self)

    monkeypatch.setattr(Tensor, "__init__", recording)
    cfg = small_cfg(dtype="float32")
    seqs, grid = make_pair(vocab)
    params, vq_params = init_params(cfg), init_vq_params(cfg)
    opts = [Adam(params), Adam(vq_params)]
    loss, _ = batch_loss([(seqs, grid)], params, cfg)
    ids, mask = _pad_units([u for units in bar_units(seqs) for u in units if u])
    vq_loss, _ = vqvae_batch_loss(ids, mask, vq_params)
    for root, opt in zip((loss, vq_loss), opts):
        root.backward()
        opt.step()
    cache = DecodeCache()
    model_forward(build_track_seqs([row[:3] for row in seqs.seqs], vocab), grid,
                  params, cfg, cache=cache)
    assert len(generate(grid, params, cfg, vocab, t_max=3).step_seconds) == 1
    arrays = [t.data for t in made] + [t.grad for t in made if t.grad is not None]
    arrays += [m for opt in opts for m in (*opt.m.values(), *opt.v.values())]
    arrays += [cache.top_in, cache.last, *(a for kv in cache.kv.values() for a in kv)]
    assert len(made) > 400 and len(cache.kv) == 2
    assert sum(a.dtype != np.float32 for a in arrays) == 0


@pytest.mark.parametrize("preset, steps, n_bars", [("toy", 15, 2), ("paper", 3, 1)])
def test_float32_loss_trace_follows_float64(vocab, preset, steps, n_bars):
    """The float32 loss trace stays within 1e-4 relative of the float64 one,
    from the float64 draw rounded to float32."""
    pairs = [make_pair(vocab, n_bars=n_bars, seed=s) for s in (1, 2)]
    traces = {dtype: train_model(pairs, make_config(preset, dtype=dtype,
                                                    vocab_size=vocab.size),
                                 steps)[1]
              for dtype in ("float64", "float32")}
    np.testing.assert_allclose(traces["float32"], traces["float64"], rtol=1e-4)


def test_tape_free_passes_leave_training_bit_identical(vocab):
    """mean_loss and generate run under no_grad: they give the taped loss
    exactly, and gradients, a loss trace and the checkpoint after them equal
    those of a run that never made a tape-free pass."""
    cfg = small_cfg()
    pairs = [make_pair(vocab, seed=s) for s in (3, 4)]

    def run(tape_free_first: bool):
        params = init_params(cfg)
        if tape_free_first:
            loss, count = batch_loss(pairs, params, cfg)
            assert mean_loss(pairs, params, cfg) == float(loss.data) / count
            generate(pairs[0][1], params, cfg, vocab, seed=0, t_max=16)
            with no_grad():
                assert not batch_loss(pairs, params, cfg)[0].requires_grad
        loss, _ = batch_loss(pairs, params, cfg)
        opt = Adam(params, lr=cfg.lr)
        opt.zero_grad()
        loss.backward()
        grads = {k: None if p.grad is None else p.grad.tobytes()
                 for k, p in params.items()}
        _, history = train_model(pairs, cfg, steps=3, params=params)
        return grads, history, dump_checkpoint(params, cfg)

    (grads_a, history_a, blob_a), (grads_b, history_b, blob_b) = run(False), run(True)
    assert grads_a == grads_b
    assert history_a == history_b
    assert blob_a == blob_b


# -- batched multi-song training ----------------------------------------------------


def cut_song(song, keep=("Drum", "Piano", "Bass")):
    return Song([t for t in song.tracks if t.instrument in keep], song.n_bars,
                song.resolution)


def pair_of(song, vocab):
    return (tokenize_song(song, vocab),
            quantize_features(extract_expert_features(song)))


def with_codes(pair, cfg, seed):
    rng = np.random.default_rng(seed)
    seqs, grid = pair
    grid.vq_entries = [[tuple(int(c) for c in rng.integers(0, cfg.codebook_size, 8))
                        for _ in range(grid.n_bars)] for _ in grid.instruments]
    return pair


def per_song_loss(pairs, params, cfg):
    """The reference batch loss: one graph per song, summed in order."""
    total, count = None, 0
    for seqs, grid in pairs:
        loss, n = sequence_loss(model_forward(seqs, grid, params, cfg), seqs)
        total = loss if total is None else total + loss
        count += n
    return total, count


def gradients(loss, params):
    for p in params.values():
        p.grad = None
    loss.backward()
    return {k: np.array(p.grad) for k, p in params.items()}


def oracle_batch(vocab, cfg):
    """Five 4-track songs of 2 and 3 bars, unequal lengths within each bar
    count, the 2-bar group mixing grids with and without VQ codes, and two
    3-track songs of 2 bars."""
    pairs = [pair_of(make_song(seed=s, n_bars=b), vocab)
             for s, b in ((3, 2), (4, 3), (5, 2), (6, 3), (7, 2))]
    with_codes(pairs[0], cfg, 0)
    with_codes(pairs[2], cfg, 1)
    pairs += [pair_of(cut_song(make_song(seed=s, n_bars=2)), vocab) for s in (8, 9)]
    for bars in (2, 3):
        lengths = {p[0].length for p in pairs[:5] if p[1].n_bars == bars}
        assert len(lengths) > 1
    return pairs


def test_batched_loss_and_gradients_match_the_per_song_sum(vocab):
    cfg = small_cfg()
    params = init_params(cfg)
    pairs = oracle_batch(vocab, cfg)
    loss, count = batch_loss(pairs, params, cfg)
    ref, ref_count = per_song_loss(pairs, params, cfg)
    assert count == ref_count
    assert abs(float(loss.data) - float(ref.data)) <= 1e-10 * abs(float(ref.data))
    got, want = gradients(loss, params), gradients(ref, params)
    # the attention key biases' true gradient is 0: their reference is
    # rounding noise, compared against the model's largest gradient
    floor = 1e-8 * max(np.abs(g).max() for g in want.values())
    for name in want:
        scale = max(np.abs(want[name]).max(), floor)
        np.testing.assert_allclose(got[name], want[name], rtol=0,
                                   atol=1e-10 * scale, err_msg=name)


def test_a_stacked_song_keeps_its_own_logits(vocab):
    cfg = small_cfg()
    params = init_params(cfg)
    short, long_ = (pair_of(make_song(seed=s, n_bars=2), vocab) for s in (5, 3))
    assert short[0].length < long_[0].length
    for first, second in ((short, long_), (long_, short)):
        seqs = build_track_seqs([ids[:n] for p in (first, second)
                                 for ids, n in zip(p[0].seqs, p[0].lengths)], vocab)
        grid = FeatureGrid(first[1].instruments + second[1].instruments, 2,
                           first[1].entries + second[1].entries, first[1].chords,
                           True)
        stacked = model_forward(seqs, grid, params, cfg, songs=2).data
        for rows, (s, g) in ((slice(0, 4), first), (slice(4, 8), second)):
            own = model_forward(s, g, params, cfg).data
            np.testing.assert_allclose(stacked[rows, :s.length], own, rtol=0,
                                       atol=1e-12 * np.abs(own).max())


def test_one_song_groups_are_bit_identical_to_single_forwards(vocab):
    cfg = small_cfg()
    params = init_params(cfg)
    pairs = [pair_of(make_song(seed=3, n_bars=2), vocab),
             pair_of(make_song(seed=4, n_bars=3), vocab),
             pair_of(cut_song(make_song(seed=5, n_bars=2)), vocab)]
    loss, count = batch_loss(pairs, params, cfg)
    ref, ref_count = per_song_loss(pairs, params, cfg)
    assert (float(loss.data), count) == (float(ref.data), ref_count)
    got, want = gradients(loss, params), gradients(ref, params)
    assert all(np.array_equal(got[k], want[k]) for k in want)


@pytest.mark.parametrize("token_bars, grid_bars", [(2, 4), (4, 2)])
def test_batch_loss_rejects_a_pair_of_unequal_bar_counts(vocab, token_bars,
                                                         grid_bars):
    """The tokens of one song against the grid of a longer or shorter one
    are malformed training data, even though every track agrees."""
    cfg = small_cfg()
    params = init_params(cfg)
    seqs = make_pair(vocab, n_bars=token_bars)[0]
    grid = make_pair(vocab, n_bars=grid_bars)[1]
    good = make_pair(vocab, n_bars=2, seed=4)
    for batch in ([(seqs, grid)], [good, (seqs, grid)]):
        with pytest.raises(BarCountMismatch):
            batch_loss(batch, params, cfg)


def test_batch_loss_rejects_a_pair_of_unequal_track_counts(vocab):
    """3 token tracks against a 4-track grid, stacked with a pair whose
    grid is short of a track, would add up to matching totals."""
    cfg = small_cfg()
    params = init_params(cfg)
    three = pair_of(cut_song(make_song(seed=3, n_bars=2)), vocab)
    four = pair_of(make_song(seed=4, n_bars=2), vocab)
    two = cut_song(make_song(seed=5, n_bars=2), ("Drum", "Piano"))
    bad = [(three[0], four[1]),
           (three[0], quantize_features(extract_expert_features(two)))]
    with pytest.raises(BarCountMismatch):
        batch_loss(bad, params, cfg)


def test_check_pair_rejects_more_tracks_than_track_slots(vocab):
    """A fifth track is aligned with its grid, bar for bar, but has no
    instrument embedding or head slot."""
    song = make_song(seed=3, n_bars=2)
    song.tracks.append(song.tracks[1])
    seqs, grid = pair_of(song, vocab)
    assert seqs.n_tracks == grid.n_tracks == 5
    with pytest.raises(DataError, match="5 tracks"):
        check_pair(seqs, grid)


@pytest.mark.parametrize("song", [Song([Track("Drum", []), Track("Piano", [])], 0),
                                  Song([], 2)], ids=["zero_bars", "no_tracks"])
def test_check_pair_rejects_a_pair_without_tracks_or_bars(vocab, song):
    seqs, grid = pair_of(song, vocab)
    with pytest.raises(DataError, match="at least one track"):
        check_pair(seqs, grid)


def test_check_pair_rejects_tracks_in_another_order_than_the_grid(vocab):
    """Reversed token tracks hold the grid's bar counts, but each would be
    conditioned on another instrument's features."""
    cfg = small_cfg()
    params = init_params(cfg)
    seqs, grid = make_pair(vocab, n_bars=2, seed=1)
    lists = [ids[:n] for ids, n in zip(seqs.seqs, seqs.lengths)]
    reversed_seqs = build_track_seqs(lists[::-1], vocab)
    for pairs in ([(reversed_seqs, grid)], [(seqs, grid), (reversed_seqs, grid)]):
        with pytest.raises(DataError, match="token track 0 .*Drum") as info:
            batch_loss(pairs, params, cfg)
        assert type(info.value) is DataError
    # merged ids never absorb the Instrument token
    model = learn_bpe(lists, vocab, target_size=vocab.size + 20)
    merged = build_track_seqs([bpe_encode(ids, model, vocab) for ids in lists],
                              vocab)
    assert merged.length < seqs.length
    check_pair(merged, grid)


def test_a_three_track_song_trains_and_generates(vocab):
    cfg = small_cfg()
    params = init_params(cfg)
    pair = pair_of(cut_song(make_song(seed=3, n_bars=2)), vocab)
    opt = Adam(params, lr=cfg.lr)
    before = params["heads_w"].data.copy()
    assert np.isfinite(train_step([pair], params, cfg, opt, lr=cfg.lr))
    # the unused fourth head gets no gradient
    assert np.array_equal(params["heads_w"].data[3], before[3])
    assert not np.array_equal(params["heads_w"].data[:3], before[:3])
    result = generate(pair[1], params, cfg, vocab, seed=0, t_max=24)
    assert result.seqs.n_tracks == 3
