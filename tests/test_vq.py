"""Grouped vector quantization: nearest-row assignment, straight-through
gradients, bar-unit slicing, and code assignment."""

import tracemalloc

import numpy as np
import pytest

from bandgen.errors import DataError, EmptyCodebook, IdOutOfVocab
from bandgen.neural import vqvae as vqvae_module
from bandgen.neural.autograd import Tensor
from bandgen.neural.model import draw_params, init_params, make_config
from bandgen.neural.vqvae import (MAX_BAR_TOKENS, assign_codes, bar_units,
                                  encode_units, init_vq_params, quantize_vectors,
                                  train_vqvae, vq_layer, vq_spec)
from bandgen.synth import make_corpus, make_song
from bandgen.tokens import (EOS_ID, PAD_ID, TrackTokenSeqs, build_vocab,
                            tokenize_song)

RNG = np.random.default_rng(99)


def brute_force_codes(z: np.ndarray, codebook: np.ndarray) -> np.ndarray:
    n, d_l = z.shape
    g = d_l // 8
    codes = np.zeros((n, 8), dtype=np.int64)
    for i in range(n):
        for gi in range(8):
            seg = z[i, gi * g:(gi + 1) * g]
            best, best_d = 0, np.inf
            for k in range(len(codebook)):
                d = float(((seg - codebook[k]) ** 2).sum())
                if d < best_d:
                    best, best_d = k, d
            codes[i, gi] = best
    return codes


def test_quantize_matches_brute_force():
    z = RNG.standard_normal((50, 16))
    codebook = RNG.standard_normal((16, 2))
    codes, z_q = quantize_vectors(z, codebook)
    np.testing.assert_array_equal(codes, brute_force_codes(z, codebook))
    np.testing.assert_array_equal(z_q, codebook[codes].reshape(50, 16))


def test_quantize_tie_goes_to_lower_index():
    codebook = np.array([[0.0], [2.0], [2.0], [0.0]])
    z = np.array([np.repeat(1.0, 8) * 1.0]).reshape(1, 8)
    codes, _ = quantize_vectors(z, codebook)
    # 1.0 is equidistant from rows 0 and 1 (and their duplicates)
    np.testing.assert_array_equal(codes, np.zeros((1, 8), dtype=np.int64))


def unchunked_codes(z: np.ndarray, codebook: np.ndarray) -> np.ndarray:
    """The whole [N, 8, K, g] difference array at once."""
    groups = z.reshape(len(z), 8, -1)
    diff = groups[:, :, None, :] - codebook[None, None, :, :]
    return (diff * diff).sum(-1).argmin(-1)


def test_quantize_chunks_match_the_unchunked_search(monkeypatch):
    """Chunks of 3 rows over 10 (the last one cut to 1 row) give the codes
    and z_q of the one-array search bit for bit, ties included."""
    rng = np.random.default_rng(5)
    z = rng.standard_normal((10, 32))
    z[4] = 0.5  # equidistant from the duplicated rows below, far from the rest
    codebook = rng.standard_normal((12, 4)) + 3.0
    codebook[[3, 7]] = 0.0
    codebook[[5, 9]] = 1.0
    want = unchunked_codes(z, codebook)
    monkeypatch.setattr(vqvae_module, "DIST_BUDGET", 3 * 8 * 12 * 4 + 5)
    codes, z_q = quantize_vectors(z, codebook)
    np.testing.assert_array_equal(codes, want)
    assert codes.dtype == want.dtype and codes[4].tolist() == [3] * 8
    np.testing.assert_array_equal(z_q, codebook[want].reshape(10, 32))


def test_quantize_memory_peak_is_bounded_at_paper_sizes():
    """256 units, K = 1024, g = 16: the one-array search peaks at 554 MB
    (difference plus square); a chunk stays within the element budget."""
    rng = np.random.default_rng(6)
    z = rng.standard_normal((256, 128))
    codebook = rng.standard_normal((1024, 16))
    quantize_vectors(z[:1], codebook)
    tracemalloc.start()
    try:
        codes, _ = quantize_vectors(z, codebook)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 8 * vqvae_module.DIST_BUDGET + 8 * 1024 * 1024
    np.testing.assert_array_equal(codes[:8], unchunked_codes(z[:8], codebook))


def test_quantize_empty_codebook_raises():
    with pytest.raises(EmptyCodebook):
        quantize_vectors(RNG.standard_normal((2, 16)), np.zeros((0, 2)))


def test_vq_layer_straight_through_gradient():
    z = Tensor(RNG.standard_normal((4, 16)), requires_grad=True)
    cb = Tensor(RNG.standard_normal((6, 2)), requires_grad=True)
    codes, st, cb_loss, commit = vq_layer(z, cb)
    _, z_q = quantize_vectors(z.data, cb.data)
    np.testing.assert_array_equal(st.data, z_q)

    # gradient through the quantized output copies straight to the encoder
    w = RNG.standard_normal((4, 16))
    (st * w).sum().backward()
    np.testing.assert_allclose(z.grad, w, atol=1e-15)
    assert cb.grad is None

    # codebook term pulls selected rows toward the (frozen) encoder output
    z.grad = None
    cb_loss.backward()
    assert z.grad is None
    expected = np.zeros_like(cb.data)
    groups = z.data.reshape(4, 8, 2)
    for i in range(4):
        for gi in range(8):
            expected[codes[i, gi]] += 2.0 * (cb.data[codes[i, gi]] - groups[i, gi])
    np.testing.assert_allclose(cb.grad, expected, atol=1e-12)

    # commitment term pushes the encoder toward the (frozen) codebook rows
    z.grad, cb.grad = None, None
    commit.backward()
    assert cb.grad is None
    np.testing.assert_allclose(z.grad, 2.0 * (z.data - z_q), atol=1e-12)


def test_vq_layer_loss_values():
    z = Tensor(RNG.standard_normal((3, 16)), requires_grad=True)
    cb = Tensor(RNG.standard_normal((4, 2)), requires_grad=True)
    _, _, cb_loss, commit = vq_layer(z, cb)
    _, z_q = quantize_vectors(z.data, cb.data)
    gap = float(((z_q - z.data) ** 2).sum())
    assert float(cb_loss.data) == pytest.approx(gap, rel=1e-12)
    assert float(commit.data) == pytest.approx(gap, rel=1e-12)


def test_bar_units_slices_frames(vocab):
    song = make_song(seed=5, n_bars=3)
    seqs = tokenize_song(song, vocab)
    units = bar_units(seqs)
    assert len(units) == seqs.n_tracks
    for ti, track_units in enumerate(units):
        assert len(track_units) == song.n_bars
        ids = seqs.seqs[ti]
        rebuilt = ids[:2] + [t for u in track_units for t in u] + [EOS_ID]
        assert rebuilt == ids[:seqs.lengths[ti]]
        for u in track_units:
            assert PAD_ID not in u and EOS_ID not in u
            assert len(u) <= MAX_BAR_TOKENS


def test_bar_units_truncates_overlong_bars():
    ids = [3, 1, 9] + [59] * 120 + [2]
    seqs = TrackTokenSeqs(seqs=[ids], bar_token_positions=[[2]], lengths=[len(ids)])
    units = bar_units(seqs)
    assert len(units[0][0]) == MAX_BAR_TOKENS
    assert units[0][0][0] == 9


def test_train_vqvae_deterministic_and_learning(vocab):
    cfg = make_config("toy", codebook_size=8)
    corpus = [tokenize_song(s, vocab) for s in make_corpus(2, 2, seed=1)]
    p1, h1 = train_vqvae(corpus, cfg, steps=8)
    p2, h2 = train_vqvae(corpus, cfg, steps=8)
    assert h1 == h2
    for name in p1:
        assert np.array_equal(p1[name].data, p2[name].data)
    assert h1[-1] < h1[0]
    assert all(k.startswith("vq_") for k in p1)


def test_assign_codes_shape_and_determinism(vocab):
    cfg = make_config("toy", codebook_size=8)
    corpus = [tokenize_song(s, vocab) for s in make_corpus(2, 2, seed=1)]
    params = init_vq_params(cfg)
    codes = assign_codes(corpus, params)
    assert len(codes) == len(corpus)
    for seqs, song_codes in zip(corpus, codes):
        assert len(song_codes) == seqs.n_tracks
        for track_codes, bars in zip(song_codes, seqs.bar_token_positions):
            assert len(track_codes) == len(bars) == 2
            for tup in track_codes:
                assert len(tup) == 8
                assert all(0 <= c < cfg.codebook_size for c in tup)
    again = assign_codes(corpus, params)
    assert again == codes


def test_assign_codes_without_fitting_vq_blocks_is_a_data_error(vocab):
    cfg = make_config("toy", codebook_size=8)
    corpus = [tokenize_song(make_song(1, 2), vocab)]
    with pytest.raises(DataError):
        assign_codes(corpus, init_params(cfg))     # a model-only checkpoint
    params = init_vq_params(cfg)
    params["vq_enc2_w"] = Tensor(np.zeros((3, 16)))
    with pytest.raises(DataError):
        assign_codes(corpus, params)
    # blocks that fit each other, with a latent of 12 that 8 groups do not split
    with pytest.raises(DataError):
        assign_codes(corpus, draw_params(vq_spec(282, 24, 16), 0))


@pytest.mark.parametrize("bad", [282 + 5, -3])
def test_id_outside_vq_table_is_out_of_vocab(vocab, bad):
    """An id past `vq_te`'s rows, or a negative one (in a hand-built
    sequence, as `build_track_seqs` rejects it), raises `IdOutOfVocab` from
    the encoder, so from VQ-VAE training and code assignment alike."""
    cfg = make_config("toy", codebook_size=8)
    params = init_vq_params(cfg)
    ids = np.array([[3, 9, 40, bad]])
    with pytest.raises(IdOutOfVocab):
        encode_units(ids, np.ones(ids.shape), params)
    seqs = tokenize_song(make_song(1, 2), vocab)
    seqs.seqs[1][seqs.bar_token_positions[1][0] + 1] = bad   # in bar 0's unit
    for run in (lambda: train_vqvae([seqs], cfg, steps=1),
                lambda: assign_codes([seqs], params)):
        with pytest.raises(IdOutOfVocab):
            run()
