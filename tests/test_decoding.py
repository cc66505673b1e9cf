"""Incremental decoding: the cached forward against the full forward, and
`generate` ids against fixed goldens."""

import numpy as np
import pytest

from bandgen.bpe import bpe_encode, learn_bpe
from bandgen.errors import (BarCountMismatch, BarIndexOutOfRange, DataError,
                            IdOutOfVocab, NonFiniteError, UsageError)
from bandgen.features import (FeatureGrid, extract_expert_features,
                              quantize_features)
from bandgen.neural import model as model_module
from bandgen.neural import sampling
from bandgen.neural.autograd import Tensor
from bandgen.neural.model import (DecodeCache, init_params, make_config,
                                  model_forward)
from bandgen.neural.sampling import generate
from bandgen.neural.training import batch_loss
from bandgen.score import Song
from bandgen.synth import make_song
from bandgen.tokens import (EOS_ID, TrackTokenSeqs, build_track_seqs,
                            tokenize_song)

TOL = 1e-10      # cached against full logits, float64
TOL_F32 = 1e-5   # the same in float32


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


def check_prefixes(prefixes, grid, params, cfg, vocab, atol=TOL):
    """Feed each prefix (a list of per-track id lists, each extending the
    last) to one cached forward; every track's logits must equal the last
    row of the full forward within `atol`. Returns the cache and the
    exchanged bar count after each prefix."""
    cache = DecodeCache()
    exchanged = []
    for lists in prefixes:
        seqs = build_track_seqs(lists, vocab)
        got = model_forward(seqs, grid, params, cfg, cache=cache)
        full = model_forward(seqs, grid, params, cfg).data
        last = full[np.arange(len(lists)), np.array(seqs.lengths) - 1]
        assert got.shape == (len(lists), 1, cfg.vocab_size)
        assert got.data.dtype == full.dtype == cfg.dtype
        assert not got.requires_grad and got._parents == ()
        np.testing.assert_allclose(got.data[:, 0], last, rtol=0, atol=atol)
        exchanged.append(cache.bars_exchanged)
    return cache, exchanged


def lockstep(lists):
    """The prefixes `generate` feeds: every unfinished track gains one id."""
    return [[ids[:t] for ids in lists] for t in range(2, max(map(len, lists)) + 1)]


@pytest.mark.parametrize("variant", ["plain", "bpe", "no_ctt", "float32"])
def test_cached_logits_match_full_forward(vocab, variant):
    """A real 3-bar song in lockstep: every track reaches bar 0 at position
    2, bar 1 at 24/23/19/35 and bar 2 at 45/44/36/64, and ends with EOS at
    its own length (54 for the bass, 98 for the synth). So bar 1 is
    exchanged when the synth reaches it and the other tracks' top decoders
    are recomputed from earlier positions; bar 2 is exchanged after the
    bass track has finished, so the last steps decode tracks 0, 1 and 3,
    a set whose rows are not contiguous. In float32 both paths compute in
    float32."""
    song = make_song(seed=3, n_bars=3)
    lists = song_lists(tokenize_song(song, vocab))
    cfg = small_cfg(layers_ctt=0 if variant == "no_ctt" else 1)
    if variant == "bpe":
        model = merges(vocab)
        lists = [bpe_encode(ids, model, vocab) for ids in lists]
        assert any(t >= vocab.size for ids in lists for t in ids)
        cfg = small_cfg(vocab_size=model.vocab_size)
    if variant == "float32":
        cfg = small_cfg(dtype="float32")
    prefixes = lockstep(lists)
    cache, exchanged = check_prefixes(prefixes, grid_of(song), init_params(cfg),
                                      cfg, vocab,
                                      TOL_F32 if variant == "float32" else TOL)
    assert (0, 1, 3) in cache.sets and (0, 1, 2, 3) in cache.sets
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


def test_cached_keys_and_values_are_views_for_contiguous_tracks(vocab, monkeypatch):
    """While all four tracks decode, every self-attention layer attends
    views of the cache's key and value buffers; once the bass (track 2) has
    ended, tracks 0, 1 and 3 attend gathered copies."""
    attended = []
    real = model_module.attention

    def recording(q, k, v, *args):
        attended.append((k.data, v.data))
        return real(q, k, v, *args)

    monkeypatch.setattr(model_module, "attention", recording)
    song = make_song(seed=3, n_bars=3)
    lists = song_lists(tokenize_song(song, vocab))
    assert len(lists[2]) == min(map(len, lists))
    cfg = small_cfg()
    params, grid, cache = init_params(cfg), grid_of(song), DecodeCache()
    views = []
    for t in (10, 11, len(lists[2]) + 5, len(lists[2]) + 6):
        seqs = build_track_seqs([ids[:t] for ids in lists], vocab)
        del attended[:]
        model_forward(seqs, grid, params, cfg, cache=cache)
        views.append(sum(np.shares_memory(k, kv[0]) and np.shares_memory(v, kv[1])
                         for k, v in attended for kv in cache.kv.values()))
    # steps 2 and 4 are steady: one row group, tracks 0-3 and then 0, 1, 3
    assert len(cache.kv) == 2 and views[1::2] == [2, 0]
    assert {(0, 1, 2, 3), (0, 1, 3)} <= set(cache.sets)


@pytest.mark.parametrize("name", ["bot0_self_k_b", "top0_self_v_b"])
def test_cached_path_checks_new_key_and_value_rows(vocab, name):
    """Cached rows are not checked again when attention reads them; a new
    row is checked as it is made, so an inf in it raises."""
    song = make_song(seed=3, n_bars=2)
    lists = song_lists(tokenize_song(song, vocab))
    cfg = small_cfg()
    params, grid, cache = init_params(cfg), grid_of(song), DecodeCache()
    for t in range(2, 6):
        model_forward(build_track_seqs([ids[:t] for ids in lists], vocab), grid,
                      params, cfg, cache=cache)
    params[name].data[0] = np.inf
    with pytest.raises(NonFiniteError):
        model_forward(build_track_seqs([ids[:6] for ids in lists], vocab), grid,
                      params, cfg, cache=cache)


def test_cache_rejects_a_prefix_or_grid_it_did_not_see(vocab):
    song = make_song(seed=3, n_bars=2)
    lists = song_lists(tokenize_song(song, vocab))
    cfg = small_cfg()
    params, grid = init_params(cfg), grid_of(song)
    cache = DecodeCache()
    model_forward(build_track_seqs([ids[:5] for ids in lists], vocab), grid,
                  params, cfg, cache=cache)
    changed = [ids[:6] for ids in lists]
    changed[1][4] = EOS_ID
    for bad in (changed, [ids[:4] for ids in lists]):
        with pytest.raises(UsageError):
            model_forward(build_track_seqs(bad, vocab), grid, params, cfg,
                          cache=cache)
    with pytest.raises(DataError):
        model_forward(build_track_seqs([ids[:6] for ids in lists[:3]], vocab),
                      grid, params, cfg, cache=cache)
    with pytest.raises(UsageError):
        model_forward(build_track_seqs([ids[:6] for ids in lists], vocab),
                      grid_of(song), params, cfg, cache=cache)


def test_both_paths_check_tracks_against_the_grid(vocab):
    """3 token tracks against a 4-track grid fail on the cached path as on
    the full one, before the cache is touched."""
    song = make_song(seed=3, n_bars=2)
    lists = song_lists(tokenize_song(song, vocab))[:3]
    cfg = small_cfg()
    params, grid = init_params(cfg), grid_of(song)
    seqs = build_track_seqs([ids[:5] for ids in lists], vocab)
    assert (seqs.n_tracks, grid.n_tracks) == (3, 4)
    for cache in (None, DecodeCache()):
        with pytest.raises(DataError):
            model_forward(seqs, grid, params, cfg, cache=cache)
        assert cache is None or cache.grid is None


def test_a_cache_serves_one_song(vocab):
    """Two stacked 2-track songs with `songs=2` are a full-forward input
    only: a cache holds one song's grid and prefix."""
    full = make_song(seed=3, n_bars=2)
    song = Song([t for t in full.tracks if t.instrument in ("Drum", "Piano")],
                full.n_bars, full.resolution)
    lists = song_lists(tokenize_song(song, vocab))
    grid = grid_of(song)
    stacked = build_track_seqs([ids[:5] for ids in lists * 2], vocab)
    stacked_grid = FeatureGrid(grid.instruments * 2, grid.n_bars,
                               np.concatenate([grid.cells] * 2), grid.chords)
    cfg = small_cfg()
    params = init_params(cfg)
    assert model_forward(stacked, stacked_grid, params, cfg, songs=2).shape[0] == 4
    cache = DecodeCache()
    with pytest.raises(UsageError):
        model_forward(stacked, stacked_grid, params, cfg, cache=cache, songs=2)
    assert cache.grid is None


@pytest.mark.parametrize("layers_ctt", [0, 1])
def test_uneven_bars_fail_training_but_run_on_both_forwards(vocab, layers_ctt):
    """Tracks bars apart are what decoding feeds `model_forward`: both paths
    exchange the shared bar prefix. As training data they are malformed,
    and `batch_loss` rejects them."""
    song = make_song(seed=3, n_bars=2)
    cfg = small_cfg(layers_ctt=layers_ctt)
    params, grid = init_params(cfg), grid_of(song)
    uneven = build_track_seqs([ids[:30] for ids in song_lists(tokenize_song(song, vocab))],
                              vocab)
    assert [len(p) for p in uneven.bar_token_positions] == [2, 2, 2, 1]
    with pytest.raises(BarCountMismatch):
        batch_loss([(uneven, grid)], params, cfg)
    for cache in (None, DecodeCache()):
        logits = model_forward(uneven, grid, params, cfg, cache=cache)
        assert np.isfinite(logits.data).all()


# -- generate ----------------------------------------------------------------------

# raw_lists of fixed-seed covers at d=16, whose feature widths are
# 16/4/8/8/4/4/4/4 (ct/dt/dd/nd/mp/md/mv/vq)
GOLDEN_BARS = [
    [3, 1, 113, 154, 82, 154, 9, 16, 280, 9, 67, 9, 238, 149, 9, 2],
    [4, 1, 156, 9, 120, 118, 35, 260, 69, 180, 21, 81, 120, 135, 188, 16, 135,
     6, 118, 150, 135, 255, 280, 280, 174, 9, 6, 9, 9, 2],
    [6, 1, 116, 143, 211, 28, 28, 41, 116, 120, 116, 157, 157, 39, 204, 120,
     116, 92, 155, 59, 199, 191, 61, 135, 274, 135, 199, 120, 27, 154, 25, 28,
     9, 199, 9, 25, 100, 9, 120, 225, 2],
    [8, 1, 149, 264, 61, 42, 42, 278, 42, 9, 212, 9, 4, 278, 4, 9, 238, 9, 6,
     33, 2],
]
GOLDEN_BPE = [
    [3, 1, 261, 261, 9, 9, 9, 87, 65, 9, 13, 2],
    [4, 1, 156, 258, 9, 84, 137, 187, 224, 10, 84, 279, 184, 137, 184, 184, 230,
     279, 293, 9, 293, 34, 9, 237, 293, 201, 253, 199, 254, 113, 162, 162, 253,
     254, 114, 2],
    [6, 1, 9, 64, 91, 121, 6, 6, 21, 268, 85, 268, 143, 97, 49, 240, 54, 75,
     159, 159, 46, 240, 268, 268, 59, 83, 183, 166, 9, 9, 121, 9, 2],
    [8, 1, 78, 128, 224, 160, 54, 78, 242, 9, 144, 9, 160, 51, 9, 1, 9, 21, 102,
     266, 102, 250, 68, 2],
]
GOLDEN_PLAIN = [
    [3, 1, 86, 12, 82, 127, 16, 35, 83, 27, 102, 102, 9, 83, 83, 83, 260, 113,
     260, 260, 83, 260, 169, 169, 197, 269, 63, 125, 154, 19, 47, 109, 75, 50,
     113, 47, 50, 128, 50, 183, 57, 50, 50, 269, 128, 269, 185, 185, 29, 128,
     42, 86, 103, 113, 195, 238, 238, 115, 103, 113, 102, 102, 94, 101, 2],
    [4, 1, 76, 16, 184, 280, 193, 180, 16, 189, 280, 165, 81, 200, 180, 135,
     120, 188, 6, 6, 113, 6, 224, 118, 174, 247, 244, 99, 190, 4, 6, 6, 121,
     276, 6, 6, 117, 121, 260, 6, 6, 172, 280, 232, 261, 232, 193, 25, 172, 193,
     44, 59, 156, 190, 117, 118, 89, 193, 193, 156, 190, 206, 121, 159, 2],
    [6, 1, 116, 143, 28, 116, 30, 30, 152, 222, 157, 92, 21, 39, 27, 173, 120,
     268, 69, 59, 106, 204, 192, 223, 135, 228, 152, 25, 188, 273, 39, 120, 180,
     25, 12, 112, 255, 81, 120, 225, 86, 223, 112, 275, 198, 119, 86, 61, 188,
     80, 193, 119, 86, 120, 12, 69, 12, 275, 244, 88, 201, 255, 255, 255, 2],
    [8, 1, 9, 61, 149, 9, 221, 221, 62, 58, 58, 42, 2],
]


def bar_leaning_params(cfg, vocab):
    """Untrained weights whose heads favour BarNormal and shun EOS, so every
    track takes several bars (and the cross-track layer exchanges them)."""
    params = init_params(cfg)
    params["heads_b"].data[:, vocab.id_of("BarNormal", 0)] += 0.3
    params["heads_b"].data[:, EOS_ID] -= 1.0
    return params


def test_generate_matches_golden_ids(vocab):
    """The goldens were recorded in float64. The float32 covers draw the same
    ids: no draw of these covers falls within float32 rounding of a boundary
    between two ids. A change that separates them records float32 goldens
    of their own rather than loosening this."""
    grid4 = grid_of(make_song(seed=4, n_bars=4))
    grid2 = grid_of(make_song(seed=4, n_bars=2))
    model = merges(vocab)
    for dtype in ("float64", "float32"):
        cfg = small_cfg(t_max=64, dtype=dtype)
        result = generate(grid4, bar_leaning_params(cfg, vocab), cfg, vocab,
                          seed=1, t_max=40)
        assert result.raw_lists == GOLDEN_BARS

        cfg_bpe = small_cfg(t_max=64, vocab_size=model.vocab_size, dtype=dtype)
        result = generate(grid4, bar_leaning_params(cfg_bpe, vocab), cfg_bpe,
                          vocab, bpe_model=model, seed=1, t_max=40)
        assert result.raw_lists == GOLDEN_BPE

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


def test_generate_builds_each_forward_input_right_before_it(vocab, monkeypatch):
    """Every step runs `build_track_seqs`, then `model_forward` on the
    sequences it built; per-step tracing attributes both to the step."""
    log = []
    build, forward = sampling.build_track_seqs, sampling.model_forward

    def logged_build(*args):
        seqs = build(*args)
        log.append(("build", seqs))
        return seqs

    def logged_forward(seqs, *args, **kwargs):
        log.append(("forward", seqs))
        return forward(seqs, *args, **kwargs)

    monkeypatch.setattr(sampling, "build_track_seqs", logged_build)
    monkeypatch.setattr(sampling, "model_forward", logged_forward)
    cfg = small_cfg(t_max=64)
    grid = grid_of(make_song(seed=4, n_bars=4))
    result = generate(grid, bar_leaning_params(cfg, vocab), cfg, vocab, seed=1,
                      t_max=40)
    steps = len(result.step_seconds)
    assert steps > 30
    # the last build makes the repaired output
    assert [kind for kind, _ in log] == ["build", "forward"] * steps + ["build"]
    assert all(log[i][1] is log[i + 1][1] for i in range(0, 2 * steps, 2))


def test_each_forward_derives_the_bar_index_once(vocab, monkeypatch):
    """The tiling and the token embedding read one derived bar index, on the
    cached path for every row group too: tracks cut at four different
    lengths make four row groups per cached call."""
    calls = []
    real = TrackTokenSeqs.bar_index

    def counting(self):
        calls.append(self)
        return real(self)

    monkeypatch.setattr(TrackTokenSeqs, "bar_index", counting)
    song = make_song(seed=3, n_bars=3)
    lists = song_lists(tokenize_song(song, vocab))
    cfg = small_cfg()
    params, grid = init_params(cfg), grid_of(song)
    cache = DecodeCache()
    for cut in ([5, 9, 14, 20], [30, 31, 32, 33], [40] * 4):
        seqs = build_track_seqs([ids[:c] for ids, c in zip(lists, cut)], vocab)
        for kwargs in ({}, {"cache": cache}):
            del calls[:]
            model_forward(seqs, grid, params, cfg, **kwargs)
            assert calls == [seqs]


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


@pytest.mark.parametrize("preset, per_step", [("toy", 17), ("paper", 49)])
def test_decode_step_census(vocab, monkeypatch, preset, per_step):
    """Counted rather than timed: a steady cached step (every track active,
    no bar exchanged) makes 8 `linear` calls per decoder layer (self q, k,
    v, o; cross q, o; two feed-forward) and one for the heads. The
    cross-attention keys and values over E are projected once per cover,
    in the first call, one call each per decoder layer."""
    weights = []
    real = model_module.linear

    def counting(x, w, b):
        weights.append(id(w))
        return real(x, w, b)

    monkeypatch.setattr(model_module, "linear", counting)
    song = make_song(seed=3, n_bars=2)
    lists = song_lists(tokenize_song(song, vocab))
    cfg = make_config(preset, vocab_size=vocab.size)
    params = init_params(cfg)
    layers = cfg.layers_bottom + cfg.layers_top
    assert per_step == 8 * layers + 1
    cross = {id(params[f"{prefix}{l}_cross_{kv}_w"]) for kv in "kv"
             for prefix, n in (("bot", cfg.layers_bottom), ("top", cfg.layers_top))
             for l in range(n)}
    cache, grid = DecodeCache(), grid_of(song)
    calls, steady = [], []
    for t in range(2, 12):
        before, exchanged = len(weights), cache.bars_exchanged
        model_forward(build_track_seqs([ids[:t] for ids in lists], vocab), grid,
                      params, cfg, cache=cache)
        calls.append(weights[before:])
        if t > 2 and cache.bars_exchanged == exchanged:
            steady.append(len(weights) - before)
    assert cache.bars_exchanged == 1 and len(steady) == 8
    assert steady == [per_step] * len(steady)
    cross_calls = [sum(w in cross for w in call) for call in calls]
    assert cross_calls == [2 * layers] + [0] * (len(calls) - 1)


def test_steady_step_census(vocab, monkeypatch):
    """Counted rather than timed, over a lockstep cover whose tracks end at
    four different steps: a steady step (no bar exchanged, the same tracks
    decoded as in the step before) tiles the similarity once, for its one
    row group, and gathers no rows of S or of the cross-attention keys and
    values. Each set of tracks that a row group holds is gathered once per
    cover."""
    tilings, gathered, steps = [], [], []
    expand, getitem = model_module.expand_similarity, Tensor.__getitem__
    forward = sampling.model_forward

    def counting_expand(*args):
        tilings.append(args)
        return expand(*args)

    def recording_getitem(self, key):
        gathered.append(self)
        return getitem(self, key)

    def step(seqs, grid, params, cfg, cache):
        done = [len(ids) for ids in cache.ids] or [0] * seqs.n_tracks
        decoded = tuple(i for i, n in enumerate(seqs.lengths) if done[i] < n)
        before = len(tilings), len(gathered), cache.bars_exchanged
        out = forward(seqs, grid, params, cfg, cache=cache)
        steps.append((cache, decoded, cache.bars_exchanged != before[2],
                       len(tilings) - before[0], gathered[before[1]:]))
        return out

    monkeypatch.setattr(model_module, "expand_similarity", counting_expand)
    monkeypatch.setattr(Tensor, "__getitem__", recording_getitem)
    monkeypatch.setattr(sampling, "model_forward", step)
    cfg = small_cfg(t_max=64)
    grid = grid_of(make_song(seed=4, n_bars=4))
    result = generate(grid, bar_leaning_params(cfg, vocab), cfg, vocab, seed=1,
                      t_max=40)
    assert result.raw_lists == GOLDEN_BARS
    cache = steps[0][0]
    held = [cache.S] + [t for kv in cache.memory.values() for t in kv]
    steady = [(tiled, [t for t in got if any(t is h for h in held)])
              for (_, decoded, exchanged, tiled, got), (_, previous, *_) in
              zip(steps[1:], steps) if decoded == previous and not exchanged]
    assert len(steady) > 30
    assert steady == [(1, [])] * len(steady)
    assert len(cache.sets) >= 4
    for tensor in held:
        assert sum(t is tensor for t in gathered) == len(cache.sets)


def test_cached_path_checks_new_positions(vocab):
    """An id past the vocabulary or a bar past `b_max` at a new position
    raises on the cached path, after a prefix it accepted, as on the full
    forward; so does a width past `t_max`."""
    song = make_song(seed=3, n_bars=2)
    lists = song_lists(tokenize_song(song, vocab))
    cfg = small_cfg(t_max=40, b_max=2)
    params, grid = init_params(cfg), grid_of(song)
    bar = vocab.id_of("BarNormal", 0)
    ok = [ids[:30] for ids in lists]
    # each track through its second bar token, the last bar b_max allows
    bars = [ids[:p[1] + 1] for ids, p in
            zip(lists, tokenize_song(song, vocab).bar_token_positions)]
    cases = [(IdOutOfVocab, ok, [ids + [vocab.size + 5] for ids in ok]),
             (BarIndexOutOfRange, bars, [ids + [bar] for ids in bars]),
             (DataError, ok, [ids[:40] for ids in lists[:3]] + [lists[3][:41]])]
    for error, prefix, bad in cases:
        seqs = build_track_seqs(bad, vocab)
        assert seqs.length <= cfg.t_max or error is DataError
        with pytest.raises(error):
            model_forward(seqs, grid, params, cfg)
        cache = DecodeCache()
        model_forward(build_track_seqs(prefix, vocab), grid, params, cfg,
                      cache=cache)
        with pytest.raises(error):
            model_forward(seqs, grid, params, cfg, cache=cache)
