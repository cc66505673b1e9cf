"""Incremental decoding: the cached forward against the full forward, and
`generate` ids against goldens recorded before decoding was incremental."""

import numpy as np
import pytest

from bandgen.bpe import bpe_encode, learn_bpe
from bandgen.errors import BarCountMismatch, UsageError
from bandgen.features import extract_expert_features, quantize_features
from bandgen.neural import (DecodeCache, generate, init_params, make_config,
                            model_forward)
from bandgen.neural import model as model_module
from bandgen.neural import sampling
from bandgen.synth import make_song
from bandgen.tokens import EOS_ID, build_track_seqs, tokenize_song

TOL = 1e-10


def small_cfg(**overrides):
    kwargs = dict(d=16, heads=2, ffn=16, t_max=128, b_max=16)
    kwargs.update(overrides)
    return make_config("toy", **kwargs)


def grid_of(song):
    return quantize_features(extract_expert_features(song))


def song_lists(seqs):
    return [ids[:n] for ids, n in zip(seqs.seqs, seqs.lengths)]


def merges(vocab, n_merges=20):
    corpus = [tokenize_song(make_song(seed=s, n_bars=2), vocab) for s in range(3)]
    return learn_bpe([ids for seqs in corpus for ids in song_lists(seqs)], vocab,
                     target_size=vocab.size + n_merges)


def check_prefixes(prefixes, grid, params, cfg, vocab):
    """Feed each prefix (a list of per-track id lists, each extending the
    last) to one cached forward; every track's logits must equal the last
    row of the full forward. Returns the cache and the exchanged bar count
    after each prefix."""
    cache = DecodeCache()
    exchanged = []
    for lists in prefixes:
        seqs = build_track_seqs(lists, vocab)
        got = model_forward(seqs, grid, params, cfg, strict_bars=False,
                            cache=cache)
        full = model_forward(seqs, grid, params, cfg, strict_bars=False).data
        last = full[np.arange(len(lists)), np.array(seqs.lengths) - 1]
        assert got.shape == (len(lists), 1, cfg.vocab_size)
        assert not got.requires_grad and got._parents == ()
        np.testing.assert_allclose(got.data[:, 0], last, rtol=0, atol=TOL)
        exchanged.append(cache.bars_exchanged)
    return cache, exchanged


def lockstep(lists):
    """The prefixes `generate` feeds: every unfinished track gains one id."""
    return [[ids[:t] for ids in lists] for t in range(2, max(map(len, lists)) + 1)]


@pytest.mark.parametrize("variant", ["plain", "bpe", "no_ctt"])
def test_cached_logits_match_full_forward(vocab, variant):
    """A real 3-bar song in lockstep: every track reaches bar 0 at position
    2, bar 1 at 24/23/19/35 and bar 2 at 45/44/36/64, and ends with EOS at
    its own length (54 for the bass, 98 for the synth). So bar 1 is
    exchanged when the synth reaches it and the other tracks' top decoders
    are recomputed from earlier positions; bar 2 is exchanged after the
    bass track has finished."""
    song = make_song(seed=3, n_bars=3)
    lists = song_lists(tokenize_song(song, vocab))
    cfg = small_cfg(layers_ctt=0 if variant == "no_ctt" else 1)
    if variant == "bpe":
        model = merges(vocab)
        lists = [bpe_encode(ids, model, vocab) for ids in lists]
        assert any(t >= vocab.size for ids in lists for t in ids)
        cfg = small_cfg(vocab_size=model.vocab_size)
    prefixes = lockstep(lists)
    _, exchanged = check_prefixes(prefixes, grid_of(song), init_params(cfg),
                                  cfg, vocab)
    if variant == "no_ctt":
        assert set(exchanged) == {0}
    else:
        shared = [build_track_seqs(p, vocab).bar_token_positions for p in prefixes]
        assert exchanged == [min(map(len, bars)) for bars in shared]
        assert exchanged[-1] == 3 and len(set(exchanged)) == 4


def test_cached_logits_match_with_uneven_growth(vocab):
    """Prefixes that grow by different amounts per track and call, several
    bars at once included, give the full forward's logits too."""
    song = make_song(seed=5, n_bars=3)
    lists = song_lists(tokenize_song(song, vocab))
    cfg = small_cfg()
    rng = np.random.default_rng(0)
    cut = [2] * len(lists)
    prefixes = []
    while any(c < len(ids) for c, ids in zip(cut, lists)):
        cut = [min(len(ids), c + int(rng.integers(0, 30)))
               for c, ids in zip(cut, lists)]
        prefixes.append([ids[:c] for ids, c in zip(lists, cut)])
    cache, exchanged = check_prefixes(prefixes, grid_of(song), init_params(cfg),
                                      cfg, vocab)
    assert exchanged[-1] == 3
    assert cache.ids == lists


def test_cache_rejects_a_prefix_or_grid_it_did_not_see(vocab):
    song = make_song(seed=3, n_bars=2)
    lists = song_lists(tokenize_song(song, vocab))
    cfg = small_cfg()
    params, grid = init_params(cfg), grid_of(song)
    cache = DecodeCache()
    model_forward(build_track_seqs([ids[:5] for ids in lists], vocab), grid,
                  params, cfg, strict_bars=False, cache=cache)
    changed = [ids[:6] for ids in lists]
    changed[1][4] = EOS_ID
    for bad in (changed, [ids[:4] for ids in lists], [ids[:6] for ids in lists[:3]]):
        with pytest.raises(UsageError):
            model_forward(build_track_seqs(bad, vocab), grid, params, cfg,
                          strict_bars=False, cache=cache)
    with pytest.raises(UsageError):
        model_forward(build_track_seqs([ids[:6] for ids in lists], vocab),
                      grid_of(song), params, cfg, strict_bars=False, cache=cache)


@pytest.mark.parametrize("layers_ctt", [0, 1])
def test_strict_bars_hold_with_and_without_the_cross_track_layer(vocab, layers_ctt):
    song = make_song(seed=3, n_bars=2)
    cfg = small_cfg(layers_ctt=layers_ctt)
    params, grid = init_params(cfg), grid_of(song)
    uneven = build_track_seqs([ids[:30] for ids in song_lists(tokenize_song(song, vocab))],
                              vocab)
    assert [len(p) for p in uneven.bar_token_positions] == [2, 2, 2, 1]
    for make_cache in (lambda: None, DecodeCache):
        with pytest.raises(BarCountMismatch):
            model_forward(uneven, grid, params, cfg, cache=make_cache())
        logits = model_forward(uneven, grid, params, cfg, strict_bars=False,
                               cache=make_cache())
        assert np.isfinite(logits.data).all()


# -- generate ----------------------------------------------------------------------

# raw_lists of fixed-seed covers, recorded with the full-forward decoder
GOLDEN_BARS = [
    [3, 1, 132, 132, 48, 48, 9, 245, 27, 9, 275, 9, 166, 272, 9, 2],
    [4, 1, 217, 9, 201, 108, 263, 9, 34, 161, 161, 257, 263, 263, 34, 240, 108,
     161, 188, 188, 137, 271, 161, 271, 148, 177, 177, 136, 136, 85, 257, 9, 137,
     85, 258, 9, 148, 2],
    [6, 1, 185, 90, 168, 128, 128, 45, 9, 56, 5, 262, 153, 45, 89, 9, 63, 9, 168,
     9, 18, 26, 262, 26, 262, 86, 128, 104, 104, 2],
    [8, 1, 253, 153, 120, 112, 112, 9, 24, 9, 83, 9, 113, 93, 49, 9, 148, 2],
]
GOLDEN_BPE = [
    [3, 1, 159, 159, 10, 43, 9, 289, 53, 9, 226, 9, 117, 219, 2],
    [4, 1, 299, 64, 9, 12, 240, 1, 138, 186, 155, 99, 1, 170, 170, 36, 9, 16, 9,
     148, 35, 9, 188, 155, 12, 201, 2],
    [6, 1, 9, 214, 282, 9, 214, 40, 277, 214, 132, 9, 196, 196, 217, 251, 228,
     132, 90, 209, 191, 170, 228, 116, 214, 299, 153, 150, 217, 217, 49, 9, 153,
     232, 183, 214, 191, 291, 115, 191, 2],
    [8, 1, 193, 214, 36, 36, 203, 143, 203, 258, 56, 9, 39, 72, 154, 39, 4, 39,
     261, 39, 181, 278, 9, 76, 36, 48, 9, 81, 239, 9, 39, 262, 39, 228, 169, 39, 2],
]
GOLDEN_PLAIN = [
    [3, 1, 102, 194, 252, 194, 132, 192, 245, 235, 81, 34, 192, 245, 192, 210,
     272, 257, 25, 235, 9, 41, 41, 257, 48, 58, 58, 26, 81, 233, 263, 45, 272, 26,
     67, 26, 217, 261, 86, 183, 122, 128, 261, 234, 28, 183, 28, 249, 122, 1, 144,
     183, 266, 122, 34, 28, 166, 261, 75, 122, 90, 64, 153, 59, 2],
    [4, 1, 204, 217, 108, 201, 229, 177, 204, 161, 161, 75, 177, 277, 277, 161,
     240, 148, 177, 137, 177, 157, 201, 271, 54, 263, 225, 136, 136, 161, 137, 137,
     91, 137, 137, 161, 85, 2],
    [6, 1, 185, 90, 26, 234, 128, 223, 89, 4, 200, 153, 224, 5, 89, 224, 224, 262,
     224, 224, 18, 26, 104, 128, 86, 86, 168, 262, 262, 277, 67, 277, 231, 166, 59,
     41, 77, 67, 29, 136, 125, 35, 262, 67, 189, 29, 277, 40, 199, 224, 168, 65,
     166, 266, 41, 41, 224, 45, 55, 125, 125, 97, 168, 156, 2],
    [8, 1, 109, 196, 153, 177, 113, 112, 81, 253, 253, 253, 113, 93, 54, 93, 83,
     49, 59, 274, 274, 57, 212, 221, 41, 177, 70, 81, 245, 200, 278, 112, 131, 111,
     241, 241, 54, 200, 274, 200, 235, 212, 212, 153, 153, 146, 211, 41, 55, 278,
     149, 55, 88, 102, 49, 103, 41, 49, 39, 120, 41, 280, 226, 138, 2],
]


def bar_leaning_params(cfg, vocab):
    """Untrained weights whose heads favour BarNormal and shun EOS, so every
    track takes several bars (and the cross-track layer exchanges them)."""
    params = init_params(cfg)
    params["heads_b"].data[:, vocab.id_of("BarNormal", 0)] += 0.3
    params["heads_b"].data[:, EOS_ID] -= 1.0
    return params


def test_generate_matches_golden_ids(vocab):
    grid4 = grid_of(make_song(seed=4, n_bars=4))
    cfg = small_cfg(t_max=64)
    result = generate(grid4, bar_leaning_params(cfg, vocab), cfg, vocab, seed=1,
                      t_max=40)
    assert result.raw_lists == GOLDEN_BARS

    model = merges(vocab)
    cfg_bpe = small_cfg(t_max=64, vocab_size=model.vocab_size)
    result = generate(grid4, bar_leaning_params(cfg_bpe, vocab), cfg_bpe, vocab,
                      bpe_model=model, seed=1, t_max=40)
    assert result.raw_lists == GOLDEN_BPE

    grid2 = grid_of(make_song(seed=4, n_bars=2))
    result = generate(grid2, init_params(cfg), cfg, vocab, seed=0)
    assert result.raw_lists == GOLDEN_PLAIN


def test_generate_runs_the_grid_stage_once(vocab, monkeypatch):
    calls = {"embed_conditions": 0, "model_forward": 0}

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(model_module, "embed_conditions",
                        counting("embed_conditions", model_module.embed_conditions))
    monkeypatch.setattr(sampling, "model_forward",
                        counting("model_forward", sampling.model_forward))
    cfg = small_cfg(t_max=64)
    grid = grid_of(make_song(seed=4, n_bars=4))
    result = generate(grid, bar_leaning_params(cfg, vocab), cfg, vocab, seed=1,
                      t_max=40)
    assert calls["embed_conditions"] == 1
    assert calls["model_forward"] == len(result.step_seconds) > 30


def test_generate_step_cost_does_not_grow_with_the_prefix(vocab, monkeypatch):
    """Counted rather than timed (a wall-time ratio failed when other
    processes shared the CPU): on a 4-bar cover at cap 256, every step
    embeds and bottom-decodes only the new position of each active track,
    and the top decoder redoes at most one prefix per track for each of the
    4 bars, which every track reaches here."""
    rows = {"embed_tokens": [], "top_decode": []}

    def count_rows(name):
        fn = getattr(model_module, name)

        def wrapped(*args):
            x = fn(*args)
            rows[name].append(x.shape[0] * x.shape[1])
            return x
        monkeypatch.setattr(model_module, name, wrapped)

    count_rows("embed_tokens")
    count_rows("top_decode")
    cfg = small_cfg(t_max=256)
    params = init_params(cfg)
    params["heads_b"].data[:, EOS_ID] -= 1.0
    params["heads_b"].data[:, vocab.id_of("BarNormal", 0)] += 0.1
    grid = grid_of(make_song(seed=4, n_bars=4))
    result = generate(grid, params, cfg, vocab, seed=0)
    bars = build_track_seqs(result.raw_lists, vocab).bar_token_positions
    assert min(map(len, bars)) == 4
    steps, embedded = result.step_seconds, rows["embed_tokens"]
    assert len(steps) == len(embedded) > 200 and min(steps) > 0
    per_step = np.bincount([e.step for e in result.audit])
    tracks = len(grid.instruments)
    assert embedded[0] == 2 * tracks
    assert embedded[1:] == list(per_step[:len(steps) - 1])
    redone = sum(rows["top_decode"]) - sum(embedded)
    assert 0 < redone <= grid.n_bars * tracks * max(map(len, result.raw_lists))
