"""Conditional multitrack sequence model.

Stack (per forward pass):
  feature grid -> per-bar condition embeddings C -> feature encoder -> E
  E -> bar-similarity matrices S -> token-resolution tilings S~
  token ids -> token+position+bar+instrument embeddings x~
  x~ -> bottom decoders (similarity-modulated self-attention + cross-attention
  over E) -> cross-track encoder over bar-token states -> top decoders ->
  per-track linear heads -> next-token distributions.

Encoder/decoder weights are shared across tracks; only the instrument
embedding and the output heads are per track slot. A training forward may
stack several songs of the same track and bar counts along the track axis:
every stage but the cross-track layer works per track anyway, and that
layer exchanges bars within each song. Every array follows the config's
`dtype`: parameters are drawn in float64 and cast, position tables and
decode-cache buffers are kept in it, and the local autograd keeps float32
as float32. `paper` computes in float32; float64, the default, is the
exact path. Every linear layer (the per-track heads included), attention
core and affine layer norm is one autograd node (`linear`,
`attention`, `layer_norm_affine`) with a hand-written backward.

`grid_stage` is the one conditioning pass: C, E, S and every decoder
layer's cross-attention keys and values over E (attention reads only
projected keys and values). Each forward derives its bar index once, for
the tiling and the token embedding. Decoding is incremental: with a
`DecodeCache`, the first call runs the grid stage and the cache keeps it;
each call converts, checks and embeds only the positions the cache has not
seen and sends them through both decoder stacks, attending the cached keys
and values; one new position per track needs no causal mask. The tracks
decoded together (a row group) read their rows of S and of the
cross-attention keys and values from the cache, gathered once per set of
tracks; when the set is contiguous, they attend views of the key and value
buffers, and cached rows are not checked for finiteness again. The top
decoder reuses the bottom decoder's tiling of S unless a bar was
exchanged. Only each track's last row is projected to logits. The
cross-track layer mixes tracks within one bar, so bar b's exchange depends
on bar b alone: it runs once, when every track has reached bar b, and the
top decoder is then recomputed for each track from its bar-b token onward,
nothing earlier. The logits equal the matching rows of the full forward to
float rounding.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, fields

import numpy as np

from ..errors import (BarIndexOutOfRange, BinOutOfVocab, DataError,
                      IdOutOfVocab, UsageError)
from ..features import (DRUM_COLS, DRUM_KEYS_FEATURE, FEATURE_SIZES,
                        N_VQ_GROUPS, PITCHED_COLS, PITCHED_KEYS_FEATURE,
                        FeatureGrid)
from ..score import MAX_TRACKS
from ..tokens import PAD_ID, TrackTokenSeqs
from .autograd import (Tensor, attention, concat, cross_entropy_logits,
                       layer_norm, layer_norm_affine, linear, no_grad,
                       put_pairs, softmax, take)


_SIZE_FIELDS = ("d", "heads", "ffn", "b_max", "t_max", "vocab_size", "codebook_size")
_LAYER_FIELDS = ("layers_enc", "layers_bottom", "layers_top", "layers_ctt")
_LR_SCHEDULES = ("constant", "warmup")
_DTYPES = ("float32", "float64")


@dataclass(slots=True)
class ModelConfig:
    """What the presets vary. Feature-embedding and VQ latent widths follow
    `d` (`model_spec`, `vqvae.vq_spec`); a song has at most `score.MAX_TRACKS`
    tracks."""
    d: int = 32
    heads: int = 2
    ffn: int = 64
    layers_enc: int = 1
    layers_bottom: int = 1
    layers_top: int = 1
    layers_ctt: int = 1            # 0: no cross-track layer
    b_max: int = 64
    t_max: int = 512
    vocab_size: int = 282
    codebook_size: int = 16
    lr: float = 1e-3               # the constant rate, or the warmup peak
    lr_schedule: str = "constant"  # "constant" | "warmup"
    seed: int = 0
    dtype: str = "float64"         # "float32" | "float64": what the model computes in

    def __post_init__(self):
        for name in _SIZE_FIELDS:
            if getattr(self, name) < 1:
                raise DataError(f"{name} must be at least 1")
        for name in _LAYER_FIELDS:
            if getattr(self, name) < 0:
                raise DataError(f"{name} must not be negative")
        if not self.lr > 0:  # NaN fails too
            raise DataError("lr must be positive")
        if self.seed < 0:
            raise DataError("seed must not be negative")
        if self.lr_schedule not in _LR_SCHEDULES:
            raise DataError(f"unknown lr_schedule {self.lr_schedule!r}")
        if self.dtype not in _DTYPES:
            raise DataError(f"unsupported dtype {self.dtype!r}")
        if self.d % self.heads:
            raise DataError("model width must divide evenly across heads")
        if self.d % (2 * N_VQ_GROUPS):  # the latent, d/2, splits into 8 groups
            raise DataError(f"model width must be a multiple of {2 * N_VQ_GROUPS}")


_PRESETS = {
    "toy": {},
    "paper": dict(d=256, heads=8, ffn=1024, layers_enc=4, layers_bottom=3,
                  layers_top=3, layers_ctt=2, codebook_size=1024, t_max=4096,
                  lr_schedule="warmup", lr=4e-4, dtype="float32"),
}


def make_config(preset: str = "toy", **overrides) -> ModelConfig:
    if preset not in _PRESETS:
        raise DataError(f"unknown preset {preset!r}")
    kwargs = dict(_PRESETS[preset])
    kwargs.update(overrides)
    return ModelConfig(**kwargs)


def dump_config(config: ModelConfig) -> str:
    lines = []
    for f in fields(ModelConfig):
        lines.append(f"{f.name} = {getattr(config, f.name)}")
    return "\n".join(lines) + "\n"


def load_config(text: str) -> ModelConfig:
    kwargs = {}
    names = {f.name for f in fields(ModelConfig)}
    defaults = ModelConfig()
    for ln in text.splitlines():
        ln = ln.strip()
        if not ln or ln.startswith("#"):
            continue
        if "=" not in ln:
            raise DataError(f"config: bad line {ln!r}")
        key, value = (part.strip() for part in ln.split("=", 1))
        if key not in names:
            raise DataError(f"config: unknown key {key!r}")
        if key in kwargs:
            raise DataError(f"config: repeated key {key!r}")
        current = getattr(defaults, key)
        try:
            if isinstance(current, int):
                kwargs[key] = int(value)
            elif isinstance(current, float):
                kwargs[key] = float(value)
            else:
                kwargs[key] = value
        except ValueError as e:
            raise DataError(f"config: bad value in {ln!r}") from e
    return ModelConfig(**kwargs)


@functools.cache
def sinusoidal_table(length: int, d: int, dtype: str = "float64") -> np.ndarray:
    """Fixed position table [length, d]; built once per shape and dtype (in
    float64, then cast), read-only.

    Callers slice the table built at the configured maximum length, so the
    values do not depend on how many rows a forward pass uses."""
    pos = np.arange(length)[:, None]
    i = np.arange(d)[None, :]
    angle = pos / np.power(10000.0, (2 * (i // 2)) / d)
    table = np.where(i % 2 == 0, np.sin(angle), np.cos(angle))
    table = table.astype(dtype, copy=False)
    table.flags.writeable = False
    return table


# A block's spec is its shape and its initial value: the scale of a normal
# draw, or ZEROS / ONES. Blocks are drawn in spec order from one generator.
ZEROS, ONES = "zeros", "ones"
Spec = dict[str, tuple[tuple[int, ...], "float | str"]]


def _linear_block(spec: Spec, name: str, n_in: int, n_out: int) -> None:
    spec[f"{name}_w"] = ((n_in, n_out), 0.02)
    spec[f"{name}_b"] = ((n_out,), ZEROS)


def _ln_block(spec: Spec, name: str, d: int) -> None:
    spec[f"{name}_g"] = ((d,), ONES)
    spec[f"{name}_b"] = ((d,), ZEROS)


def _attn_block(spec: Spec, name: str, d: int) -> None:
    for proj in ("q", "k", "v", "o"):
        _linear_block(spec, f"{name}_{proj}", d, d)


def _encoder_layer(spec: Spec, name: str, cfg: ModelConfig) -> None:
    _attn_block(spec, f"{name}_attn", cfg.d)
    _ln_block(spec, f"{name}_ln1", cfg.d)
    _linear_block(spec, f"{name}_ffn1", cfg.d, cfg.ffn)
    _linear_block(spec, f"{name}_ffn2", cfg.ffn, cfg.d)
    _ln_block(spec, f"{name}_ln2", cfg.d)


def _decoder_layer(spec: Spec, name: str, cfg: ModelConfig) -> None:
    _attn_block(spec, f"{name}_self", cfg.d)
    _ln_block(spec, f"{name}_ln1", cfg.d)
    _attn_block(spec, f"{name}_cross", cfg.d)
    _ln_block(spec, f"{name}_ln2", cfg.d)
    _linear_block(spec, f"{name}_ffn1", cfg.d, cfg.ffn)
    _linear_block(spec, f"{name}_ffn2", cfg.ffn, cfg.d)
    _ln_block(spec, f"{name}_ln3", cfg.d)


def model_spec(cfg: ModelConfig) -> Spec:
    """The blocks `init_params` draws for `cfg`; feature widths follow d."""
    d = cfg.d
    widths = dict(ct=d, dt=d // 4, dd=d // 2, nd=d // 2, mp=d // 4, md=d // 4,
                  mv=d // 4, vq=d // 4)
    spec: Spec = {}
    for feat, rows in FEATURE_SIZES.items():
        # numeric features add a row for their empty-bar sentinel bin
        spec[f"fe_{feat}"] = ((rows + (feat != "ct"), widths[feat]), 0.02)
    spec["fe_vq"] = ((cfg.codebook_size, widths["vq"]), 0.02)
    vq_width = N_VQ_GROUPS * widths["vq"]
    drum_width = sum(widths[f] for f in DRUM_KEYS_FEATURE) + vq_width
    pitched_width = widths["ct"] + sum(widths[f] for f in PITCHED_KEYS_FEATURE) + vq_width
    _linear_block(spec, "proj_drum", drum_width, d)
    _linear_block(spec, "proj_pitched", pitched_width, d)

    spec["te"] = ((cfg.vocab_size, cfg.d), 0.02)
    spec["be"] = ((cfg.b_max, cfg.d), 0.02)
    spec["ie"] = ((MAX_TRACKS, cfg.d), 0.02)

    for l in range(cfg.layers_enc):
        _encoder_layer(spec, f"enc{l}", cfg)
    spec["sq_w"] = ((cfg.d, cfg.d), 0.02)
    spec["sk_w"] = ((cfg.d, cfg.d), 0.02)
    for l in range(cfg.layers_bottom):
        _decoder_layer(spec, f"bot{l}", cfg)
    for l in range(cfg.layers_ctt):
        _encoder_layer(spec, f"ctt{l}", cfg)
    for l in range(cfg.layers_top):
        _decoder_layer(spec, f"top{l}", cfg)

    spec["heads_w"] = ((MAX_TRACKS, cfg.d, cfg.vocab_size), 0.02)
    spec["heads_b"] = ((MAX_TRACKS, cfg.vocab_size), ZEROS)
    return spec


def draw_params(spec: Spec, seed: int, dtype: str = "float64") -> dict[str, Tensor]:
    """The blocks of `spec`, drawn in float64 and cast to `dtype`: a float32
    block is its float64 draw, rounded."""
    rng = np.random.default_rng(seed)
    params: dict[str, Tensor] = {}
    for name, (shape, init) in spec.items():
        if init == ZEROS:
            value = np.zeros(shape)
        elif init == ONES:
            value = np.ones(shape)
        else:
            value = rng.normal(0.0, init, size=shape)
        params[name] = Tensor(value.astype(dtype, copy=False), requires_grad=True)
    return params


def init_params(cfg: ModelConfig) -> dict[str, Tensor]:
    return draw_params(model_spec(cfg), cfg.seed, cfg.dtype)


def check_blocks(params: dict[str, Tensor], spec: Spec) -> None:
    """Raise `DataError` unless `params` holds every block of `spec`, with
    its shape; other blocks are not looked at, and nothing is drawn."""
    problems = [f"{name}: {params[name].shape if name in params else 'missing'}"
                f", expected {shape}" for name, (shape, _) in spec.items()
                if name not in params or params[name].shape != shape]
    if problems:
        raise DataError(f"parameters do not fit their config ({len(problems)} "
                        f"blocks): {'; '.join(problems[:3])}")


# -- building blocks ------------------------------------------------------------


def _linear(x: Tensor, params: dict, name: str) -> Tensor:
    return linear(x, params[f"{name}_w"], params[f"{name}_b"])


def _ln_affine(x: Tensor, params: dict, name: str) -> Tensor:
    return layer_norm_affine(x, params[f"{name}_g"], params[f"{name}_b"])


def _ffn(x: Tensor, params: dict, name: str) -> Tensor:
    return _linear(_linear(x, params, f"{name}_ffn1").relu(), params, f"{name}_ffn2")


def _keys_values(memory: Tensor, params: dict, name: str) -> tuple[Tensor, Tensor]:
    """Attention layer `name`'s keys and values [batch, Tk, d] of memory."""
    return _linear(memory, params, f"{name}_k"), _linear(memory, params, f"{name}_v")


def multi_head_attention(x: Tensor, k: Tensor, v: Tensor, params: dict,
                         name: str, heads: int, causal: bool = False,
                         smat: Tensor | None = None,
                         past: "_CachedRows | None" = None) -> Tensor:
    """Batched attention of the [batch, Tq, d] queries x over the keys and
    values [batch, Tk, d] that layer `name` projected of its memory
    (`_keys_values`).

    With `smat` [batch, Tq, Tk], raw scores are multiplied elementwise by it
    (shared across heads) before scaling and masking. With `past`, k and v
    hold only the query rows' own positions; they are cached and the
    queries attend every cached position up to their last.
    Under `causal` the queries are the last Tq of the Tk positions, so one
    query row blocks nothing and builds no mask. The projections are
    `linear` nodes; the core between them, from the head split to the head
    merge, is one `attention` node.
    """
    q = _linear(x, params, f"{name}_q")
    if past is not None:
        k, v = past.attend(name, k, v)
    blocked = None
    if causal and q.shape[1] > 1:
        tq, tk = q.shape[1], k.shape[1]
        blocked = np.triu(np.ones((tq, tk), dtype=bool), k=tk - tq + 1)
    return _linear(attention(q, k, v, heads, smat, blocked), params, f"{name}_o")


def _encoder_stack(x: Tensor, params: dict, prefix: str, n_layers: int,
                   cfg: ModelConfig) -> Tensor:
    for l in range(n_layers):
        name = f"{prefix}{l}"
        kv = _keys_values(x, params, f"{name}_attn")
        a = _ln_affine(x + multi_head_attention(x, *kv, params, f"{name}_attn",
                                                cfg.heads), params, f"{name}_ln1")
        x = _ln_affine(a + _ffn(a, params, name), params, f"{name}_ln2")
    return x


# -- the network ------------------------------------------------------------------


def _vq_codes(grid: FeatureGrid) -> np.ndarray:
    """VQ codes [I, B, 8]; code 0 throughout for a grid without them. Codes
    that are not one row per track of one 8-tuple per bar raise `DataError`."""
    shape = (grid.n_tracks, grid.n_bars, N_VQ_GROUPS)
    if grid.vq_entries is None:
        return np.zeros(shape, dtype=np.int64)
    widths = [[len(codes) for codes in row] for row in grid.vq_entries]
    if widths != [[N_VQ_GROUPS] * grid.n_bars] * grid.n_tracks:
        raise DataError(f"VQ codes do not cover {grid.n_tracks} tracks of "
                        f"{grid.n_bars} bars with {N_VQ_GROUPS} codes each")
    return np.array(grid.vq_entries, dtype=np.int64).reshape(shape)


def embed_conditions(grid: FeatureGrid, params: dict, cfg: ModelConfig) -> Tensor:
    """Per-track, per-bar condition vectors C [I, B, d].

    Expert segment: drum tracks concatenate DT and DD embeddings; pitched
    tracks the mean of the four beat-chord embeddings plus ND/MP/MD/MV.
    The 8 VQ-code embeddings follow; a linear map projects to width d.
    Grids without VQ codes embed code 0 throughout. All tracks of one kind
    (drum, pitched) go through each lookup and projection together, so the
    number of ops does not grow with the number of tracks. A grid without
    tracks or bars raises `DataError`.
    """
    if not grid.binned:
        raise DataError("embed_conditions needs a binned grid")
    if not grid.n_tracks or not grid.n_bars:
        raise DataError("a grid without tracks or bars has nothing to condition on")
    if grid.n_bars > cfg.b_max:
        raise DataError(f"{grid.n_bars} bars exceeds b_max {cfg.b_max}")
    B = grid.n_bars
    drum = [ti for ti, inst in enumerate(grid.instruments) if inst == "Drum"]
    pitched = [ti for ti, inst in enumerate(grid.instruments) if inst != "Drum"]
    parts: list[Tensor] = []
    codes = _vq_codes(grid)
    try:
        for kind, tracks, cols, keys in (
                ("drum", drum, DRUM_COLS, DRUM_KEYS_FEATURE),
                ("pitched", pitched, PITCHED_COLS, PITCHED_KEYS_FEATURE)):
            if not tracks:
                continue
            bins = grid.cells[tracks, :, cols]   # the kind's keys, then any ct0-ct3
            segs = []
            if kind == "pitched":
                cts = take(params["fe_ct"], bins[..., len(keys):])
                segs.append(cts.sum(axis=2) * 0.25)
            segs += [take(params[f"fe_{f}"], bins[..., j]) for j, f in enumerate(keys)]
            vq = take(params["fe_vq"], codes[tracks]).reshape(len(tracks), B, -1)
            parts.append(_linear(concat(segs + [vq], axis=-1), params, f"proj_{kind}"))
    except IndexError as e:
        raise BinOutOfVocab(str(e)) from e
    C = parts[0] if len(parts) == 1 else concat(parts, axis=0)
    order = np.argsort(drum + pitched)   # track i's row in C
    if (order != np.arange(len(order))).any():
        C = C[order]
    return C


def encode_features(C: Tensor, params: dict, cfg: ModelConfig) -> Tensor:
    """E [I, B, d]: full self-attention over bars, bar index added as
    sinusoidal position information; weights shared across tracks."""
    B = C.shape[1]
    x = C + Tensor(sinusoidal_table(cfg.b_max, cfg.d, cfg.dtype)[:B])
    return _encoder_stack(x, params, "enc", cfg.layers_enc, cfg)


def embed_tokens(seqs: TrackTokenSeqs, bar_index: np.ndarray, params: dict,
                 cfg: ModelConfig, tracks: np.ndarray | None = None,
                 start: int = 0, stop: int | None = None,
                 songs: int = 1) -> Tensor:
    """x~ [I, T, d]: token + position + bar + instrument embeddings, each
    position's bar read from `bar_index` (`seqs.bar_index()`); with `tracks`,
    `start` and `stop`, only positions start..stop-1 of those tracks. Only
    the embedded ids and bar indices are checked against the vocabulary and
    `b_max` (the cached path checked the earlier positions when they were
    new); the width of `seqs` is checked against `t_max` either way. For
    `songs` stacked songs, track r takes the instrument embedding of its
    slot r % (I / songs) within its song."""
    I = seqs.n_tracks
    tracks = np.arange(I) if tracks is None else tracks
    stop = seqs.length if stop is None else stop
    ids = np.array([seqs.seqs[i][start:stop] for i in tracks], dtype=np.int64)
    bar_idx = bar_index[tracks, start:stop]
    if ids.size and ids.max() >= cfg.vocab_size:
        raise IdOutOfVocab(f"token id {ids.max()} >= vocab {cfg.vocab_size}")
    if seqs.length > cfg.t_max:
        raise DataError(f"sequence length {seqs.length} exceeds t_max {cfg.t_max}")
    if bar_idx.size and bar_idx.max() >= cfg.b_max:
        raise BarIndexOutOfRange(f"bar {bar_idx.max()} >= b_max {cfg.b_max}")
    x = take(params["te"], ids)
    x = x + Tensor(sinusoidal_table(cfg.t_max, cfg.d, cfg.dtype)[start:stop])
    x = x + take(params["be"], bar_idx)
    x = x + take(params["ie"], tracks % (I // songs)).reshape(len(tracks), 1, cfg.d)
    return x


def bar_similarity(E: Tensor, params: dict, cfg: ModelConfig) -> Tensor:
    """S [I, B, B] = row-normalized attention map over bars: softmax of the
    scaled Q K^T scores, then per-row zero-mean unit-variance normalization."""
    q = E @ params["sq_w"]
    k = E @ params["sk_w"]
    scores = (q @ k.transpose(0, 2, 1)) / float(np.sqrt(cfg.d))
    return layer_norm(softmax(scores, axis=-1))


def expand_similarity(S: Tensor, bar_index: np.ndarray, start: int = 0) -> Tensor:
    """S~ [I, T - start, T] tiling bar-level scores over token positions:
    S~[i, t1, t2] = S[i, bar_index[i, start + t1], bar_index[i, t2]]; the
    rows are the query positions from `start` on."""
    if bar_index.size and bar_index.max() >= S.shape[-1]:
        raise BarIndexOutOfRange(
            f"bar index {bar_index.max()} >= {S.shape[-1]} bars")
    tracks = np.arange(bar_index.shape[0])[:, None, None]
    return S[tracks, bar_index[:, start:, None], bar_index[:, None, :]]


def se_attention(x: Tensor, smat: Tensor, params: dict, name: str,
                 cfg: ModelConfig, past: "_CachedRows | None" = None) -> Tensor:
    """Causal self-attention with scores modulated by the tiled similarity."""
    return multi_head_attention(x, *_keys_values(x, params, name), params, name,
                                cfg.heads, causal=True, smat=smat, past=past)


Memory = dict[str, tuple[Tensor, Tensor]]  # cross-attention layer -> K, V [I, B, d]


def grid_stage(grid: FeatureGrid, params: dict, cfg: ModelConfig
               ) -> tuple[Tensor, Memory]:
    """S [I, B, B] and, by layer name, every decoder layer's cross-attention
    keys and values over E. `embed_conditions` checks the grid."""
    E = encode_features(embed_conditions(grid, params, cfg), params, cfg)
    layers = ([f"bot{l}_cross" for l in range(cfg.layers_bottom)]
              + [f"top{l}_cross" for l in range(cfg.layers_top)])
    return (bar_similarity(E, params, cfg),
            {name: _keys_values(E, params, name) for name in layers})


def _decoder_stack(x: Tensor, memory: Memory, smat: Tensor, params: dict,
                   prefix: str, n_layers: int, cfg: ModelConfig,
                   past: "_CachedRows | None") -> Tensor:
    """Decoder layers over x; `memory` holds the cross-attention keys and
    values over the bars of x's tracks."""
    for l in range(n_layers):
        name = f"{prefix}{l}"
        a = _ln_affine(x + se_attention(x, smat, params, f"{name}_self", cfg, past),
                       params, f"{name}_ln1")
        b = _ln_affine(a + multi_head_attention(a, *memory[f"{name}_cross"], params,
                                                f"{name}_cross", cfg.heads),
                       params, f"{name}_ln2")
        x = _ln_affine(b + _ffn(b, params, name), params, f"{name}_ln3")
    return x


def bottom_decode(x: Tensor, memory: Memory, smat: Tensor, params: dict,
                  cfg: ModelConfig, past: "_CachedRows | None" = None) -> Tensor:
    return _decoder_stack(x, memory, smat, params, "bot", cfg.layers_bottom, cfg, past)


def top_decode(x: Tensor, memory: Memory, smat: Tensor, params: dict,
               cfg: ModelConfig, past: "_CachedRows | None" = None) -> Tensor:
    return _decoder_stack(x, memory, smat, params, "top", cfg.layers_top, cfg, past)


def ctt_forward(x: Tensor, bar_token_positions: list[list[int]], params: dict,
                cfg: ModelConfig, songs: int = 1) -> Tensor:
    """Encode bar-token states across the tracks of each song; every other
    position passes through bit-identically.

    x holds `songs` songs of I tracks each, stacked along the track axis;
    bar b of a song is one sequence of its I tracks, so the encoder runs
    over a [songs * B, I, d] batch. The shared prefix of bar tokens (the
    smallest count over tracks) is exchanged, whether or not the counts
    are equal.
    """
    counts = [len(p) for p in bar_token_positions]
    B = min(counts) if counts else 0
    if B == 0:
        return x
    I = x.shape[0] // songs
    # rows in (song, bar, track) order
    idx0 = np.broadcast_to(np.arange(songs * I).reshape(songs, 1, I),
                           (songs, B, I)).reshape(-1)
    idx1 = np.array([p[:B] for p in bar_token_positions], dtype=np.int64)
    idx1 = idx1.reshape(songs, I, B).transpose(0, 2, 1).reshape(-1)
    seq = x[idx0, idx1].reshape(songs * B, I, cfg.d)
    encoded = _encoder_stack(seq, params, "ctt", cfg.layers_ctt, cfg)
    return put_pairs(x, idx0, idx1, encoded.reshape(songs * B * I, cfg.d))


def project_logits(O: Tensor, params: dict, songs: int = 1) -> Tensor:
    """Raw per-track logits [I, T, V]; softmax for the probability form.
    Track r goes through the head of its slot r % (I / songs)."""
    w, b = params["heads_w"], params["heads_b"]
    slots = O.shape[0] // songs
    if slots != w.shape[0]:
        w, b = w[:slots], b[:slots]
    return linear(O, w, b)


class DecodeCache:
    """What incremental decoding keeps between `model_forward` calls: the
    grid and what the first call's `grid_stage` returned for it (S, and each
    decoder layer's cross-attention keys and values over E), the ids each
    track was decoded through (each call appends its new ones), the
    self-attention keys and values of every decoder layer, the top-decoder
    input rows (bottom outputs, cross-track outputs at exchanged bar
    tokens), each track's last top-decoder output and how many bars were
    exchanged. Bar indices are not kept: each call derives them from its
    sequences (`TrackTokenSeqs.bar_index`). Keys, values and top-decoder
    inputs are [I, capacity, d] (heads side by side along d, as the
    projections make them) in the config's dtype, and grow along the
    position axis by doubling.

    `sets` keeps, for every set of tracks a row group has held, their rows
    of S and of every cross-attention key and value (`track_set`), so a
    step over a set seen before gathers none of them; in lockstep decoding
    the set of active tracks changes only when a track halts. A contiguous
    set reads the key and value buffers through views (`_CachedRows`).
    One cache serves one decoded piece; after a call that raised, start a
    new one."""

    def __init__(self):
        self.grid: FeatureGrid | None = None
        self.S: Tensor | None = None
        self.memory: Memory = {}
        self.ids: list[list[int]] = []
        self.bars_exchanged = 0
        self.top_in = np.zeros((0, 0, 0))          # [I, capacity, d]
        self.last = np.zeros((0, 0))               # [I, d]
        self.kv: dict[str, list[np.ndarray]] = {}  # layer -> [K, V] [I, capacity, d]
        self.sets: dict[tuple[int, ...], _TrackSet] = {}

    def _admit(self, seqs: TrackTokenSeqs, cfg: ModelConfig) -> np.ndarray:
        """Check that `seqs` extends the cached prefix of every track, make
        room for its length and return how many positions each track has
        cached."""
        if not self.ids:
            self.ids = [[] for _ in seqs.seqs]
            self.top_in = np.zeros((len(seqs.seqs), seqs.length, cfg.d), cfg.dtype)
            self.last = np.zeros((len(seqs.seqs), cfg.d), cfg.dtype)
        if any(n < len(done) or ids[:len(done)] != done
               for ids, n, done in zip(seqs.seqs, seqs.lengths, self.ids)):
            raise UsageError("sequences do not extend the decode cache's prefix")
        if seqs.length > self.top_in.shape[1]:
            size = max(seqs.length, 2 * self.top_in.shape[1])
            pad = ((0, 0), (0, size - self.top_in.shape[1]), (0, 0))
            self.top_in = np.pad(self.top_in, pad)
            for pair in self.kv.values():
                pair[:] = [np.pad(a, pad) for a in pair]
        return np.array([len(done) for done in self.ids])

    def track_set(self, tracks: tuple[int, ...]) -> "_TrackSet":
        """The state of a set of tracks, gathered the first time a row group
        holds it."""
        found = self.sets.get(tracks)
        if found is None:
            rows = (slice(tracks[0], tracks[-1] + 1)
                    if tracks[-1] - tracks[0] + 1 == len(tracks) else np.array(tracks))
            found = self.sets[tracks] = _TrackSet(
                np.array(tracks), rows, self.S[rows],
                {name: (k[rows], v[rows]) for name, (k, v) in self.memory.items()})
        return found


@dataclass(slots=True)
class _TrackSet:
    """A set of tracks, in track order, as a `DecodeCache` keeps it: the
    index that selects it along the track axis (a slice when its tracks
    are contiguous, so that buffers read through it are views) and its rows
    of S and of every decoder layer's cross-attention keys and values."""
    tracks: np.ndarray
    rows: slice | np.ndarray
    S: Tensor
    memory: Memory


class _CachedRows:
    """Query rows at positions `start`.. of a track set, decoded against a
    cache."""

    __slots__ = ("cache", "rows", "start")

    def __init__(self, cache: DecodeCache, rows: slice | np.ndarray, start: int):
        self.cache, self.rows, self.start = cache, rows, start

    def attend(self, name: str, k: Tensor, v: Tensor) -> tuple[Tensor, Tensor]:
        """Cache layer `name`'s keys and values [n, rows, d] of the query
        rows; return those of positions 0.. through the last query row, as
        views of the buffers for a contiguous set. Every returned row was
        checked for finiteness as a `linear` output when it was new, so the
        rows are not checked again."""
        kv = self.cache.kv
        if name not in kv:
            kv[name] = [np.zeros_like(self.cache.top_in) for _ in range(2)]
        stop = self.start + k.shape[1]
        out = []
        for buf, new in zip(kv[name], (k, v)):
            buf[self.rows, self.start:stop] = new.data
            out.append(Tensor(buf[self.rows, :stop], check=False))
        return out[0], out[1]


def _row_groups(first: np.ndarray, lengths: list[int]):
    """Tracks grouped by the positions first[i]..lengths[i]-1 left to
    compute, as ((start, stop), track indices); tracks with none are left out."""
    groups: dict[tuple[int, int], list[int]] = {}
    for i, (start, stop) in enumerate(zip(first, lengths)):
        if start < stop:
            groups.setdefault((int(start), stop), []).append(i)
    return [(span, tuple(tracks)) for span, tracks in groups.items()]


def _tiled(cache: DecodeCache, bars: np.ndarray, groups):
    """(start, stop, track set, tiling of its query rows) per row group."""
    out = []
    for (start, stop), tracks in groups:
        ts = cache.track_set(tracks)
        out.append((start, stop, ts,
                    expand_similarity(ts.S, bars[ts.rows, :stop], start)))
    return out


def _decode_forward(seqs: TrackTokenSeqs, grid: FeatureGrid, params: dict,
                    cfg: ModelConfig, cache: DecodeCache) -> Tensor:
    """`model_forward` with a cache: see the module docstring."""
    if cache.grid is None:
        cache.S, cache.memory = grid_stage(grid, params, cfg)
        cache.grid = grid
    elif grid is not cache.grid:
        raise UsageError("the decode cache holds another grid")
    seen = cache._admit(seqs, cfg)
    bars = seqs.bar_index()
    steps = _tiled(cache, bars, _row_groups(seen, seqs.lengths))
    for start, stop, ts, smat in steps:
        x = embed_tokens(seqs, bars, params, cfg, ts.tracks, start, stop)
        O = bottom_decode(x, ts.memory, smat, params, cfg,
                          _CachedRows(cache, ts.rows, start))
        cache.top_in[ts.rows, start:stop] = O.data
    if cfg.layers_ctt:
        fresh = [p[cache.bars_exchanged:] for p in seqs.bar_token_positions]
        shared = min(len(p) for p in fresh)
        if shared:
            cache.top_in = ctt_forward(Tensor(cache.top_in), fresh, params,
                                       cfg).data
            cache.bars_exchanged += shared
            # the exchanged bar tokens feed every later top-decoder row
            redo = np.minimum(seen, [p[0] for p in fresh])
            steps = _tiled(cache, bars, _row_groups(redo, seqs.lengths))
    # with no bar exchanged, the top decoder takes the bottom's row groups and tilings
    for start, stop, ts, smat in steps:
        O = top_decode(Tensor(cache.top_in[ts.rows, start:stop]), ts.memory, smat,
                       params, cfg, _CachedRows(cache, ts.rows, start))
        cache.last[ts.rows] = O.data[:, -1]
    for done, ids, n in zip(cache.ids, seqs.seqs, seqs.lengths):
        done += ids[len(done):n]
    return project_logits(Tensor(cache.last[:, None, :]), params)


def model_forward(seqs: TrackTokenSeqs, grid: FeatureGrid, params: dict,
                  cfg: ModelConfig, cache: DecodeCache | None = None,
                  songs: int = 1) -> Tensor:
    """Full stack to logits [I, T, V], for training and scoring.

    `seqs` and `grid` may hold `songs` songs of the same track and bar
    counts, stacked along the track axis (tracks of one song adjacent, all
    padded to one T). Tracks exchange bars only within their song, and take
    the instrument embedding and output head of their slot in it.

    With a `DecodeCache`, for decoding one song: logits [I, 1, V] of each
    track's last position (row lengths[i] - 1 of the full forward),
    computing only the positions earlier calls with the same cache did not
    see. The cached forward records no tape: its logits carry no gradient.

    Both paths check the same inputs first: the tracks split into `songs`
    songs of at most `MAX_TRACKS` tracks, token tracks match grid tracks,
    and a cache serves exactly one song. Tracks may hold unequal bar-token
    counts; both paths exchange their shared prefix (`ctt_forward`)."""
    if seqs.n_tracks % songs:
        raise UsageError(f"{seqs.n_tracks} tracks do not split into {songs} songs")
    if seqs.n_tracks // songs > MAX_TRACKS:
        raise DataError(f"{seqs.n_tracks // songs} tracks per song exceed "
                        f"the {MAX_TRACKS} track slots")
    if seqs.n_tracks != grid.n_tracks:
        raise DataError(f"{seqs.n_tracks} token tracks but {grid.n_tracks} "
                        f"grid tracks")
    if cache is not None:
        if songs != 1:
            raise UsageError(f"a decode cache holds one song, not {songs}")
        with no_grad():
            return _decode_forward(seqs, grid, params, cfg, cache)
    S, memory = grid_stage(grid, params, cfg)
    bars = seqs.bar_index()
    smat = expand_similarity(S, bars)
    x = embed_tokens(seqs, bars, params, cfg, songs=songs)
    O = bottom_decode(x, memory, smat, params, cfg)
    if cfg.layers_ctt:
        O = ctt_forward(O, seqs.bar_token_positions, params, cfg, songs)
    O = top_decode(O, memory, smat, params, cfg)
    return project_logits(O, params, songs)


def sequence_loss(logits: Tensor, seqs: TrackTokenSeqs) -> tuple[Tensor, int]:
    """Summed next-token cross-entropy over non-PAD targets; returns the
    loss tensor and the number of counted positions."""
    ids = np.asarray(seqs.seqs, dtype=np.int64)
    I, T = ids.shape
    V = logits.shape[-1]
    pred = logits[:, :T - 1, :].reshape((I * (T - 1), V))
    targets = ids[:, 1:].reshape(-1)
    mask = targets != PAD_ID
    return cross_entropy_logits(pred, targets, mask)

