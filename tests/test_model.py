"""Network-level tests: attention identities, tiling, cross-track exchange,
config and checkpoint round trips."""

import collections
import struct

import numpy as np
import pytest

from bandgen.errors import (BarIndexOutOfRange, BinOutOfVocab, DataError,
                            IdOutOfVocab)
from bandgen.features import (CELL_KEYS, FeatureGrid,
                              extract_expert_features, quantize_features)
from bandgen.neural.autograd import Tensor, take
from bandgen.neural.checkpoint import (dump_checkpoint, load_checkpoint,
                                       load_checkpoint_file,
                                       save_checkpoint_file)
from bandgen.neural import model as model_module
from bandgen.neural.model import (DecodeCache, ModelConfig, Packing,
                                  _keys_values, bar_similarity, bottom_decode, ctt_forward,
                                  dump_config, embed_conditions, embed_tokens,
                                  encode_features, expand_similarity,
                                  grid_stage, init_params, load_config,
                                  make_config, model_forward, model_spec,
                                  multi_head_attention, project_logits,
                                  se_attention, sequence_loss,
                                  sinusoidal_table, top_decode)
from bandgen.neural.training import _stack_seqs
from bandgen.neural.sampling import generate
from bandgen.neural.vqvae import init_vq_params
from bandgen.score import Song, Track
from bandgen.synth import make_song
from bandgen.tokens import (PAD_ID, TrackTokenSeqs, build_track_seqs,
                            tokenize_song)

RNG = np.random.default_rng(7)


def small_cfg(**overrides):
    kwargs = dict(d=16, heads=2, ffn=16, t_max=256, b_max=16)
    kwargs.update(overrides)
    return make_config("toy", **kwargs)


def make_pair(vocab, n_bars=4, seed=3):
    song = make_song(seed=seed, n_bars=n_bars)
    seqs = tokenize_song(song, vocab)
    grid = quantize_features(extract_expert_features(song))
    return seqs, grid


# -- configuration ----------------------------------------------------------------


def test_config_round_trip_and_presets():
    for preset in ("toy", "paper"):
        for cfg in (make_config(preset, seed=11),
                    make_config(preset, dtype="float64"),
                    make_config(preset, dtype="float32")):
            again = load_config(dump_config(cfg))
            assert again == cfg
    assert make_config("paper").d == 256
    assert make_config("toy").vocab_size == 282
    # paper computes in float32; float64, the default, is the oracle
    assert make_config("paper").dtype == "float32"
    assert make_config("toy").dtype == ModelConfig().dtype == "float64"
    assert load_config("d = 32").dtype == "float64"  # written before the key
    with pytest.raises(DataError):
        make_config("huge")
    with pytest.raises(DataError):
        ModelConfig(d=30, heads=4)
    with pytest.raises(DataError):
        load_config("heads = 0")
    with pytest.raises(DataError):
        ModelConfig(d=24, heads=2)   # the latent, d/2, must split into 8 groups
    with pytest.raises(DataError):
        load_config("nonsense line")
    with pytest.raises(DataError):
        load_config("mystery_key = 3")
    for bad in ("d = -4", "b_max = 0", "t_max = 0", "d = 16\nd = 32",
                "layers_top = -1", "lr_schedule = cosine", "seed = -1",
                "lr = -1", "lr = 0", "lr = nan",
                # keys of version 2 configs: layers_ctt = 0 turns the
                # cross-track layer off, lr is the warmup peak
                "use_ctt = False", "lr_max = 4e-4", "preset = toy",
                # keys of version 3 configs: the widths follow d, and the
                # track slots and the lr floor are constants
                "e_vq = 8", "d_latent = 16", "n_tracks = 4", "lr_min = 4e-5",
                # float32 and float64 are the only dtypes
                "dtype = float16", "dtype = int64", "dtype = Float32", "dtype = "):
        with pytest.raises(DataError):
            load_config(bad)
    assert load_config("layers_ctt = 0").layers_ctt == 0
    with pytest.raises(DataError):
        make_config(seed=-1)


# the blocks whose widths follow d, at each preset's own d (282 tokens)
FROZEN_SHAPES = {
    "toy": {"fe_ct": (133, 32), "fe_dt": (33, 8), "fe_dd": (51, 16),
            "fe_nd": (67, 16), "fe_mp": (35, 8), "fe_md": (31, 8),
            "fe_mv": (35, 8), "fe_vq": (16, 8), "proj_drum_w": (88, 32),
            "proj_pitched_w": (136, 32), "ie": (4, 32),
            "heads_w": (4, 32, 282), "heads_b": (4, 282),
            "vq_te": (282, 16), "vq_enc1_w": (16, 64), "vq_codebook": (16, 2)},
    "paper": {"fe_ct": (133, 256), "fe_dt": (33, 64), "fe_dd": (51, 128),
              "fe_nd": (67, 128), "fe_mp": (35, 64), "fe_md": (31, 64),
              "fe_mv": (35, 64), "fe_vq": (1024, 64), "proj_drum_w": (704, 256),
              "proj_pitched_w": (1088, 256), "ie": (4, 256),
              "heads_w": (4, 256, 282), "heads_b": (4, 282),
              "vq_te": (282, 128), "vq_enc1_w": (128, 512),
              "vq_codebook": (1024, 16)},
}


def test_preset_block_shapes_are_frozen():
    for preset, frozen in FROZEN_SHAPES.items():
        cfg = make_config(preset)
        shapes = {name: shape for name, (shape, _) in model_spec(cfg).items()}
        shapes.update((name, p.shape) for name, p in init_vq_params(cfg).items())
        assert {name: shapes[name] for name in frozen} == frozen, preset


# -- similarity-modulated attention ------------------------------------------------


def vanilla_causal_attention(x: np.ndarray, params: dict, name: str,
                             heads: int) -> np.ndarray:
    """Reference multi-head causal attention in plain numpy."""
    def lin(z, p):
        return z @ params[f"{name}_{p}_w"].data + params[f"{name}_{p}_b"].data

    batch, t, d = x.shape
    dh = d // heads

    def split(z):
        return z.reshape(batch, t, heads, dh).transpose(0, 2, 1, 3)

    q, k, v = split(lin(x, "q")), split(lin(x, "k")), split(lin(x, "v"))
    scores = q @ k.transpose(0, 1, 3, 2) / float(np.sqrt(dh))
    blocked = np.triu(np.ones((t, t), dtype=bool), k=1)
    scores = np.where(blocked, -np.inf, scores)
    shifted = scores - scores.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    attn = e / e.sum(axis=-1, keepdims=True)
    merged = (attn @ v).transpose(0, 2, 1, 3).reshape(batch, t, d)
    return lin(merged, "o")


def test_se_attention_with_unit_similarity_matches_vanilla():
    cfg = small_cfg(d=32, heads=2, t_max=64)
    params = init_params(cfg)
    x = Tensor(RNG.standard_normal((3, 64, 32)))
    ones = Tensor(np.ones((3, 64, 64)))
    out = se_attention(x, ones, params, "bot0_self", cfg)
    ref = vanilla_causal_attention(x.data, params, "bot0_self", cfg.heads)
    assert np.max(np.abs(out.data - ref)) < 1e-12
    # all-ones modulation is exactly a no-op against the unmodulated path
    plain = multi_head_attention(x, *_keys_values(x, params, "bot0_self"),
                                 params, "bot0_self", cfg.heads, causal=True,
                                 smat=None)
    assert np.array_equal(out.data, plain.data)


def test_se_attention_depends_on_similarity():
    cfg = small_cfg(d=32, heads=2, t_max=64)
    params = init_params(cfg)
    x = Tensor(RNG.standard_normal((2, 10, 32)))
    flat = se_attention(x, Tensor(np.ones((2, 10, 10))), params, "bot0_self", cfg)
    bumpy = se_attention(x, Tensor(1.0 + RNG.standard_normal((2, 10, 10))),
                         params, "bot0_self", cfg)
    assert not np.allclose(flat.data, bumpy.data)


# -- bar-to-token tiling -----------------------------------------------------------


def test_expand_similarity_exhaustive():
    for n_tracks, n_bars, t in [(1, 1, 1), (2, 3, 17), (4, 8, 64), (3, 5, 31)]:
        S = Tensor(RNG.standard_normal((n_tracks, n_bars, n_bars)))
        bidx = RNG.integers(0, n_bars, size=(n_tracks, t))
        tiled = expand_similarity(S, bidx)
        assert tiled.shape == (n_tracks, t, t)
        for i in range(n_tracks):
            for t1 in range(t):
                for t2 in range(t):
                    assert tiled.data[i, t1, t2] == S.data[i, bidx[i, t1],
                                                           bidx[i, t2]]


def test_expand_similarity_rejects_out_of_range_bar():
    S = Tensor(RNG.standard_normal((2, 4, 4)))
    with pytest.raises(BarIndexOutOfRange):
        expand_similarity(S, np.array([[0, 1, 4], [0, 0, 0]]))


def test_bar_similarity_rows_are_normalized(vocab):
    cfg = small_cfg()
    params = init_params(cfg)
    _, grid = make_pair(vocab)
    E = encode_features(embed_conditions(grid, params, cfg), params, cfg)
    S = bar_similarity(E, params, cfg)
    assert S.shape == (4, grid.n_bars, grid.n_bars)
    np.testing.assert_allclose(S.data.mean(axis=-1), 0.0, atol=1e-12)
    assert np.all(S.data.var(axis=-1) <= 1.0 + 1e-9)


# -- cross-track exchange ----------------------------------------------------------


def test_ctt_pass_through_bit_identical_over_random_inputs():
    cfg = small_cfg()
    params = init_params(cfg)
    n_tracks, t = 3, 12
    for _ in range(100):
        x = Tensor(RNG.standard_normal((n_tracks, t, cfg.d)))
        starts = np.sort(RNG.choice(t, size=4, replace=False))
        positions = [list(starts) for _ in range(n_tracks)]
        out = ctt_forward(x, positions, params, cfg)
        selected = set(starts.tolist())
        for i in range(n_tracks):
            for pos in range(t):
                if pos in selected:
                    assert not np.array_equal(out.data[i, pos], x.data[i, pos])
                else:
                    assert np.array_equal(out.data[i, pos], x.data[i, pos])


def test_ctt_instrument_permutation_equivariance():
    cfg = small_cfg()
    params = init_params(cfg)
    n_tracks, t = 4, 10
    x = Tensor(RNG.standard_normal((n_tracks, t, cfg.d)))
    positions = [[0, 3, 7]] * n_tracks
    base = ctt_forward(x, positions, params, cfg)
    for _ in range(5):
        perm = RNG.permutation(n_tracks)
        shuffled = Tensor(x.data[perm].copy())
        out = ctt_forward(shuffled, [positions[p] for p in perm], params, cfg)
        assert np.max(np.abs(out.data - base.data[perm])) < 1e-10


def test_ctt_exchanges_the_shared_bar_prefix():
    cfg = small_cfg()
    params = init_params(cfg)
    x = Tensor(RNG.standard_normal((2, 8, cfg.d)))
    ragged = [[0, 2, 4], [0, 2]]
    out = ctt_forward(x, ragged, params, cfg)
    # shared prefix (two bars) exchanged, the unmatched third passes through
    assert not np.array_equal(out.data[0, 0], x.data[0, 0])
    assert np.array_equal(out.data[0, 4], x.data[0, 4])


def test_ctt_exchanges_bars_within_each_stacked_song():
    cfg = small_cfg()
    params = init_params(cfg)
    x = Tensor(RNG.standard_normal((6, 9, cfg.d)))
    positions = [[0, 4], [1, 5], [0, 6], [2, 3], [0, 8], [1, 7]]
    out = ctt_forward(x, positions, params, cfg, songs=2)
    for rows in (slice(0, 3), slice(3, 6)):
        alone = ctt_forward(Tensor(x.data[rows]), positions[rows], params, cfg)
        np.testing.assert_allclose(out.data[rows], alone.data, rtol=0, atol=1e-12)
    # as one song of six tracks, the tracks of the two songs would mix
    assert not np.allclose(ctt_forward(x, positions, params, cfg).data, out.data)


def test_ctt_no_bar_tokens_is_identity():
    cfg = small_cfg()
    params = init_params(cfg)
    x = Tensor(RNG.standard_normal((2, 6, cfg.d)))
    out = ctt_forward(x, [[], []], params, cfg)
    assert np.array_equal(out.data, x.data)


# -- condition and token embeddings ------------------------------------------------


def test_embed_conditions_shapes_and_vq_defaults(vocab):
    cfg = small_cfg()
    params = init_params(cfg)
    _, grid = make_pair(vocab)
    C = embed_conditions(grid, params, cfg)
    assert C.shape == (4, grid.n_bars, cfg.d)

    # a missing code grid embeds code zero everywhere
    coded = quantize_features(extract_expert_features(make_song(3, 4)))
    coded.vq_entries = [[[0] * 8 for _ in range(coded.n_bars)]
                        for _ in coded.instruments]
    C2 = embed_conditions(coded, params, cfg)
    assert np.array_equal(C.data, C2.data)
    coded.vq_entries[1][2] = [5, 0, 1, 0, 0, 0, 0, 3]
    C3 = embed_conditions(coded, params, cfg)
    assert not np.array_equal(C.data, C3.data)


def test_embed_conditions_guardrails(vocab):
    cfg = small_cfg()
    params = init_params(cfg)
    _, grid = make_pair(vocab)
    raw = extract_expert_features(make_song(3, 4))
    with pytest.raises(DataError):
        embed_conditions(raw, params, cfg)  # unbinned
    with pytest.raises(DataError):
        embed_conditions(grid, params, small_cfg(b_max=2), )
    broken = quantize_features(extract_expert_features(make_song(3, 4)))
    broken.cells[0, 0, 0] = 999    # track 0 is the drum track; column 0 is dt
    with pytest.raises(BinOutOfVocab):
        embed_conditions(broken, init_params(small_cfg()), small_cfg())


def test_embed_conditions_rows_are_those_of_each_track_alone(vocab):
    cfg = small_cfg()
    params = init_params(cfg)
    _, grid = make_pair(vocab)
    rng = np.random.default_rng(0)
    codes = [[tuple(int(c) for c in rng.integers(0, cfg.codebook_size, 8))
              for _ in range(grid.n_bars)] for _ in grid.instruments]

    def tracks(order):
        return FeatureGrid([grid.instruments[i] for i in order], grid.n_bars,
                           grid.cells[order], grid.chords, [codes[i] for i in order])
    order = [2, 0, 3, 1]    # the drum track second
    C = embed_conditions(tracks(order), params, cfg)
    for row, ti in enumerate(order):
        alone = embed_conditions(tracks([ti]), params, cfg)
        np.testing.assert_array_equal(C.data[row], alone.data[0])


# each feature family's CELL_KEYS columns
FAMILIES = {"ct": ("ct0", "ct1", "ct2", "ct3"), "nd": ("nd",), "mp": ("mp",),
            "md": ("md",), "mv": ("mv",), "dt+dd": ("dt", "dd")}


def test_feature_family_swaps_are_exact(vocab):
    """Copying every family's columns and the VQ codes of grid B into grid
    A gives B's logits bit for bit, though A keeps its own `chords`: the
    model reads only `cells` and `vq_entries`. Each copy changes the logits
    (the two grids differ in every family), and copying a family again,
    when its columns are already equal, leaves them bit-identical."""
    cfg = small_cfg()
    params = init_params(cfg)
    seqs, a = make_pair(vocab, seed=3)
    _, b = make_pair(vocab, seed=4)
    assert a.instruments == b.instruments and a.n_bars == b.n_bars
    rng = np.random.default_rng(11)
    for g in (a, b):
        g.vq_entries = [[tuple(int(c) for c in rng.integers(0, cfg.codebook_size, 8))
                         for _ in range(g.n_bars)] for _ in g.instruments]

    def logits(grid):
        return model_forward(seqs, grid, params, cfg).data.tobytes()
    hybrid = FeatureGrid(list(a.instruments), a.n_bars, a.cells.copy(),
                         list(a.chords), list(a.vq_entries))
    before = logits(hybrid)
    for name, keys in FAMILIES.items():
        cols = [CELL_KEYS.index(k) for k in keys]
        assert not np.array_equal(a.cells[..., cols], b.cells[..., cols]), name
        hybrid.cells[..., cols] = b.cells[..., cols]
        after = logits(hybrid)
        assert after != before, name
        hybrid.cells[..., cols] = b.cells[..., cols]
        assert logits(hybrid) == after, name
        before = after
    hybrid.vq_entries = list(b.vq_entries)
    assert hybrid.chords == a.chords != b.chords
    assert logits(hybrid) == logits(b)


@pytest.mark.parametrize("song", [Song([Track("Drum", []), Track("Piano", [])], 0),
                                  Song([], 2)], ids=["zero_bars", "no_tracks"])
def test_grid_stage_rejects_a_grid_without_tracks_or_bars(vocab, song):
    """Both forward paths and `generate` raise `DataError`, not a numpy
    error from an empty reshape or concatenation."""
    seqs, grid = tokenize_song(song, vocab), quantize_features(extract_expert_features(song))
    cfg = small_cfg()
    params = init_params(cfg)
    for run in (lambda: grid_stage(grid, params, cfg),
                lambda: model_forward(seqs, grid, params, cfg),
                lambda: model_forward(seqs, grid, params, cfg, cache=DecodeCache()),
                lambda: generate(grid, params, cfg, vocab, seed=0, t_max=8)):
        with pytest.raises(DataError, match="tracks"):
            run()


def test_grid_stage_rejects_vq_codes_that_do_not_cover_the_grid(vocab):
    """Codes of another bar or track count, or tuples of another width, are
    a `DataError` (not truncated, and not a numpy error or a misleading
    `BinOutOfVocab`); a code past the codebook stays `BinOutOfVocab`."""
    cfg = small_cfg()
    params = init_params(cfg)
    _, grid = make_pair(vocab, n_bars=2)
    row = [(1,) * 8] * grid.n_bars
    cases = {"more bars": [row * 2] * 4, "fewer bars": [row[:1]] * 4,
             "fewer tracks": [row] * 3, "7 codes": [[(1,) * 7] * 2] * 4}
    for name, codes in cases.items():
        grid.vq_entries = codes
        with pytest.raises(DataError, match="VQ codes") as info:
            grid_stage(grid, params, cfg)
        assert type(info.value) is DataError, name
    grid.vq_entries = [row] * 4
    grid_stage(grid, params, cfg)
    grid.vq_entries = [row, row, [(cfg.codebook_size,) * 8] * 2, row]
    with pytest.raises(BinOutOfVocab):
        grid_stage(grid, params, cfg)


def test_more_tracks_than_track_slots_is_a_data_error(vocab):
    song = make_song(3, 2)
    song.tracks.append(song.tracks[1])
    seqs, grid = tokenize_song(song, vocab), quantize_features(extract_expert_features(song))
    cfg = small_cfg()
    params = init_params(cfg)
    with pytest.raises(DataError):
        model_forward(seqs, grid, params, cfg)
    with pytest.raises(DataError):
        generate(grid, params, cfg, vocab, seed=0, t_max=8)


def test_embed_tokens_guardrails(vocab):
    cfg = small_cfg(t_max=8, b_max=4)
    params = init_params(cfg)

    def seqs_for(ids):
        return build_track_seqs([ids], vocab)

    def embed(seqs):
        return embed_tokens(np.array(seqs.seqs, dtype=np.int64), seqs.bar_index(),
                            np.arange(seqs.n_tracks), 0, params, cfg)

    assert embed(seqs_for([1, 3, 9, 2])).shape == (1, 4, cfg.d)
    with pytest.raises(IdOutOfVocab):
        embed(seqs_for([1, 3, 282, 2]))
    # build_track_seqs rejects a negative id; a hand-built sequence meets
    # the embedding's check
    with pytest.raises(IdOutOfVocab):
        embed(TrackTokenSeqs([[1, 3, -1, 2]], [[]], [4]))
    with pytest.raises(DataError):
        embed(seqs_for(list(range(9))))
    # five bar tokens: the last two positions fall in bar 4 = b_max
    five_bars = seqs_for([1, 3, 9, 9, 9, 9, 9, 2])
    assert five_bars.bar_index()[0, -2:].tolist() == [4, 4]
    with pytest.raises(BarIndexOutOfRange):
        embed(five_bars)


def four_lookups(ids, bar_idx, slots, start, params, cfg):
    """`embed_tokens` as the composition of single ops it replaces: three
    `take` lookups and a constant position table, added left to right."""
    stop = start + ids.shape[1]
    x = take(params["te"], ids)
    x = x + Tensor(sinusoidal_table(cfg.t_max, cfg.d, cfg.dtype)[start:stop])
    x = x + take(params["be"], bar_idx)
    return x + take(params["ie"], slots).reshape(len(slots), 1, cfg.d)


@pytest.mark.parametrize("dtype", ["float64", "float32"])
def test_embed_tokens_matches_four_lookups(vocab, dtype):
    """One node, the value and every table's gradient of the composition
    bit for bit: two stacked songs, and a window of some tracks' positions
    as a cached step embeds it."""
    cfg = small_cfg(dtype=dtype)
    stacked = _stack_seqs([make_pair(vocab, n_bars=2, seed=s)[0] for s in (1, 2)])
    one = make_pair(vocab, n_bars=2, seed=1)[0]

    def window(seqs, tracks, start, stop, songs=1):
        ids = np.array(seqs.seqs, dtype=np.int64)[tracks, start:stop]
        bars = seqs.bar_index()[tracks, start:stop]
        return ids, bars, tracks % (seqs.n_tracks // songs), start

    for args in (window(stacked, np.arange(stacked.n_tracks), 0, stacked.length,
                        songs=2),
                 window(one, np.array([0, 2, 3]), 5, 9),
                 window(one, np.array([1]), 20, 21)):
        runs = []
        for embed in (embed_tokens, four_lookups):
            params = init_params(cfg)
            x = embed(*args, params, cfg)
            x.backward(np.random.default_rng(0).standard_normal(x.shape))
            runs.append((x, params))
        (x, params), (ref, ref_params) = runs
        assert x.op == "embed_tokens" and x.data.dtype == dtype
        assert [p.op for p in x._parents] == ["leaf"] * 3
        assert np.array_equal(x.data, ref.data)
        for name in ("te", "be", "ie"):
            assert np.array_equal(params[name].grad, ref_params[name].grad), name


# -- full forward ------------------------------------------------------------------


def test_initial_loss_is_near_uniform(vocab):
    cfg = small_cfg()
    params = init_params(cfg)
    seqs, grid = make_pair(vocab)
    logits = model_forward(seqs, grid, params, cfg)
    assert logits.shape == (4, seqs.length, cfg.vocab_size)
    loss, count = sequence_loss(logits, seqs)
    per_token = float(loss.data) / count
    assert abs(per_token - np.log(cfg.vocab_size)) < 0.1


def test_sequence_loss_skips_pad_targets(vocab):
    cfg = small_cfg()
    params = init_params(cfg)
    seqs, grid = make_pair(vocab)
    logits = model_forward(seqs, grid, params, cfg)
    _, count = sequence_loss(logits, seqs)
    ids = np.asarray(seqs.seqs)
    assert count == int((ids[:, 1:] != 0).sum())


def test_forward_without_ctt_skips_the_cross_track_layer(vocab):
    cfg = small_cfg(layers_ctt=0)
    params = init_params(small_cfg())  # ctt blocks present, left unused
    seqs, grid = make_pair(vocab)
    logits = model_forward(seqs, grid, params, cfg)

    E = encode_features(embed_conditions(grid, params, cfg), params, cfg)
    memory = {name: _keys_values(E, params, name)
              for name in ("bot0_cross", "top0_cross")}
    bars = seqs.bar_index()
    smat = expand_similarity(bar_similarity(E, params, cfg), bars)
    x = embed_tokens(np.array(seqs.seqs, dtype=np.int64), bars,
                     np.arange(seqs.n_tracks), 0, params, cfg)
    rows = Packing(seqs.lengths, seqs.length)
    O = bottom_decode(rows.pack(x), memory, smat, params, cfg, rows=rows)
    O = top_decode(O, memory, smat, params, cfg, rows=rows)
    expected = project_logits(rows.unpack(O), params)
    assert np.array_equal(logits.data, expected.data)
    # the rows stay packed between the stacks; a padded position's logits
    # are the heads' biases, the projection of a zero row
    padded = np.arange(seqs.length) >= np.array(seqs.lengths)[:, None]
    assert padded.any()
    assert np.array_equal(logits.data[padded],
                          params["heads_b"].data[np.nonzero(padded)[0]])
    with_ctt = model_forward(seqs, grid, params, small_cfg())
    assert not np.array_equal(logits.data, with_ctt.data)

    loss, _ = sequence_loss(logits, seqs)
    loss.backward()
    ctt = [name for name in params if name.startswith("ctt")]
    assert ctt and all(params[name].grad is None for name in ctt)
    assert all(p.grad is not None for name, p in params.items()
               if name.startswith(("bot", "top")))


def loss_and_gradients(seqs, grid, params, cfg):
    for p in params.values():
        p.grad = None
    logits = model_forward(seqs, grid, params, cfg)
    loss, _ = sequence_loss(logits, seqs)
    loss.backward()
    return logits.data, {name: np.array(p.grad) for name, p in params.items()}


def test_extra_pad_columns_change_no_real_row_or_gradient(vocab):
    """A group padded 17 columns past its longest track: the logits of its
    real rows and every gradient stay within 1e-12 of the block's largest
    magnitude (or of 1e-8 of the model's largest gradient, if more). The packed rows are the same; the attention cores see the
    wider layout, whose extra keys no real query reaches."""
    cfg = small_cfg()
    params = init_params(cfg)
    seqs, grid = make_pair(vocab)
    wider = TrackTokenSeqs([ids + [PAD_ID] * 17 for ids in seqs.seqs],
                           seqs.bar_token_positions, seqs.lengths)
    logits, grads = loss_and_gradients(seqs, grid, params, cfg)
    logits_w, grads_w = loss_and_gradients(wider, grid, params, cfg)
    real = np.arange(seqs.length) < np.array(seqs.lengths)[:, None]
    assert logits_w.shape[1] == logits.shape[1] + 17 and not real.all()
    np.testing.assert_allclose(logits_w[:, :seqs.length][real], logits[real],
                               rtol=0, atol=1e-12 * np.abs(logits).max())
    # the attention key biases' true gradient is 0: theirs is rounding
    # noise, compared against the model's largest gradient
    floor = 1e-8 * max(np.abs(g).max() for g in grads.values())
    for name, g in grads.items():
        scale = max(np.abs(g).max(), floor)
        np.testing.assert_allclose(grads_w[name], g, rtol=0, atol=1e-12 * scale,
                                   err_msg=name)


def test_every_decoder_linear_of_a_training_forward_takes_the_real_rows(
        vocab, monkeypatch):
    """Each decoder layer's eight projections (self-attention q, k, v and o,
    cross-attention q and o, both FFN layers) take the packed [N, d_in]
    rows, N the sum of the track lengths; the cross-attention keys and
    values project the feature encoding instead."""
    cfg = small_cfg(layers_bottom=2)
    params = init_params(cfg)
    names = {id(p): name for name, p in params.items()}
    shapes = collections.defaultdict(list)
    real = model_module.linear

    def recording(x, w, b):
        shapes[names[id(w)]].append(x.shape)
        return real(x, w, b)

    monkeypatch.setattr(model_module, "linear", recording)
    seqs, grid = make_pair(vocab)
    model_forward(seqs, grid, params, cfg)
    n = sum(seqs.lengths)
    assert n < seqs.n_tracks * seqs.length
    decoder = {name: got for name, got in shapes.items()
               if name.startswith(("bot", "top"))
               and not name.endswith(("_cross_k_w", "_cross_v_w"))}
    assert len(decoder) == 8 * (cfg.layers_bottom + cfg.layers_top)
    widths = {"ffn2": cfg.ffn}
    assert all(got == [(n, widths.get(name.split("_")[1], cfg.d))]
               for name, got in decoder.items()), decoder


def test_forward_is_deterministic(vocab):
    cfg = small_cfg()
    seqs, grid = make_pair(vocab)
    a = model_forward(seqs, grid, init_params(cfg), cfg)
    b = model_forward(seqs, grid, init_params(cfg), cfg)
    assert np.array_equal(a.data, b.data)


def tape_census(root: Tensor) -> collections.Counter:
    """Op counts of the nodes a backward pass from `root` visits, leaves
    (parameters and constants) left out."""
    ops, seen, stack = collections.Counter(), set(), [root]
    while stack:
        node = stack.pop()
        if id(node) in seen or not node._parents:
            continue
        seen.add(id(node))
        ops[node.op] += 1
        stack.extend(node._parents)
    return ops


@pytest.mark.parametrize("preset,nodes,attention,reshape,transpose",
                         [("toy", 88, 6, 5, 1), ("paper", 192, 18, 5, 1)])
def test_tape_census_of_one_forward_and_loss(vocab, preset, nodes, attention,
                                             reshape, transpose):
    # one `attention` node per attention layer, which splits and merges its
    # heads inside; one `embed_tokens` node; one `add`, of the feature
    # encoder's position table, as each layer norm sums its own residual.
    # The shape ops left: reshapes of the
    # drum and pitched VQ embeddings, the cross-track layer's input and
    # output and the loss's logits, and the key transpose of the bar
    # similarity. `nodes` counts all but the `pack` and `unpack` nodes of
    # the packed decoder rows: each decoder layer unpacks its self-attention
    # queries, keys and values and its cross-attention queries and packs
    # both outputs, and the embedding, the cross-track layer and the heads
    # add two of each (104 nodes in all at toy, 232 at paper)
    cfg = make_config(preset)
    seqs, grid = make_pair(vocab, n_bars=4, seed=1)
    loss, _ = sequence_loss(model_forward(seqs, grid, init_params(cfg), cfg), seqs)
    ops = tape_census(loss)
    decoders = cfg.layers_bottom + cfg.layers_top
    assert (ops["pack"], ops["unpack"]) == (2 * decoders + 2, 4 * decoders + 2)
    assert sum(ops.values()) - ops["pack"] - ops["unpack"] == nodes
    assert (ops["attention"], ops["reshape"], ops["transpose"]) == (
        attention, reshape, transpose)
    layer_norms = 2 * (cfg.layers_enc + cfg.layers_ctt) + 3 * (
        cfg.layers_bottom + cfg.layers_top)
    assert (ops["embed_tokens"], ops["layer_norm_affine"], ops["add"]) == (
        1, layer_norms, 1)


# -- checkpoints -------------------------------------------------------------------


def test_checkpoint_round_trip_bit_exact(vocab, tmp_path):
    seqs, grid = make_pair(vocab)
    for dtype in ("float64", "float32"):
        cfg = small_cfg(seed=5, dtype=dtype)
        params = init_params(cfg)
        blob = dump_checkpoint(params, cfg)
        loaded, cfg2 = load_checkpoint(blob)
        assert cfg2 == cfg
        assert set(loaded) == set(params)
        for name, p in params.items():
            assert loaded[name].data.dtype == p.data.dtype == dtype
            assert loaded[name].data.tobytes() == p.data.tobytes()
            assert loaded[name].requires_grad == p.requires_grad

        a = model_forward(seqs, grid, params, cfg)
        b = model_forward(seqs, grid, loaded, cfg2)
        assert np.array_equal(a.data, b.data)

        path = tmp_path / f"model_{dtype}.ckpt"
        save_checkpoint_file(str(path), params, cfg)
        again, cfg3 = load_checkpoint_file(str(path))
        assert cfg3 == cfg
        assert np.array_equal(again["te"].data, params["te"].data)


def test_params_hold_only_trained_weights():
    cfg = small_cfg()
    params = init_params(cfg)
    params.update(init_vq_params(cfg))
    assert all(p.requires_grad for p in params.values())
    loaded, _ = load_checkpoint(dump_checkpoint(params, cfg))
    assert not {"pe", "pe_bar", "vq_pe", "vq_dec_pe"} & set(loaded)


def test_checkpoint_rejects_garbage():
    with pytest.raises(DataError):
        load_checkpoint(b"NOPE" + b"\x00" * 16)
    cfg = small_cfg()
    blob = dump_checkpoint(init_params(cfg), cfg)
    with pytest.raises(DataError):
        load_checkpoint(blob[:40])
    # version 1 files stored the fixed position tables as blocks, version 2
    # configs had the use_ctt, lr_max and preset keys, and version 3 ones
    # the feature widths, d_latent, n_tracks and lr_min
    for version in (1, 2, 3):
        with pytest.raises(DataError):
            load_checkpoint(blob[:4] + struct.pack("<I", version) + blob[8:])
    with pytest.raises(DataError):
        load_checkpoint(blob.replace(b"d = 16\n", b"d = \xff6\n", 1))
    # one block whose shape header claims 3 floats over a 2-float payload
    one = dump_checkpoint({"w": Tensor(np.zeros(2), requires_grad=True)}, cfg)
    with pytest.raises(DataError):
        load_checkpoint(one[:-24] + struct.pack("<I", 3) + one[-20:])
    # a block name listed twice, and bytes after the last block
    two = dump_checkpoint({name: Tensor(np.zeros(2), requires_grad=True)
                           for name in ("w1", "w2")}, cfg)
    assert set(load_checkpoint(two)[0]) == {"w1", "w2"}
    for bad in (two.replace(b"w2", b"w1"), blob + b"garbage"):
        with pytest.raises(DataError):
            load_checkpoint(bad)


def test_checkpoint_payload_follows_the_config_dtype():
    """A float32 config writes 4-byte payloads; a config block without a
    `dtype` line, as every checkpoint had before the key, reads float64.
    A float32 payload cut short, or a dtype the model does not compute
    in, is a `DataError`."""
    w = np.array([0.1, -2.5, 3.0])
    blobs = {dtype: dump_checkpoint({"w": Tensor(w.astype(dtype))},
                                    small_cfg(dtype=dtype))
             for dtype in ("float32", "float64")}
    assert blobs["float32"].endswith(w.astype("<f4").tobytes())
    assert blobs["float64"].endswith(w.astype("<f8").tobytes())
    line = b"dtype = float64\n"
    old = blobs["float64"].replace(line, b"")
    (n,) = struct.unpack("<I", old[8:12])
    old = old[:8] + struct.pack("<I", n - len(line)) + old[12:]
    params, cfg = load_checkpoint(old)
    assert cfg.dtype == "float64" and params["w"].data.dtype == np.float64
    assert np.array_equal(params["w"].data, w)
    # a 2-float payload under a 3-float shape, and an unsupported dtype
    f32 = blobs["float32"]
    truncated = f32[:-16] + struct.pack("<I", 8) + f32[-12:-4]
    for bad in (truncated, f32.replace(b"dtype = float32", b"dtype = float16")):
        with pytest.raises(DataError):
            load_checkpoint(bad)
