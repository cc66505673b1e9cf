"""Conditioned autoregressive generation with top-k sampling.

Tracks are generated in lockstep, each seeded with [Instrument, BOS]. Every
sampled id comes from the renormalized top-k of that track's next-token
distribution (k = 2% of the vocabulary, at least 1). A track halts when a
sampled bar token would push it past the reference bar count (the token is
dropped and EOS emitted), on a sampled EOS, or at the length cap; halted
tracks pad. Output sequences are repaired against the track grammar stated
in the `bandgen.tokens` docstring, so decoding always succeeds, and every
sampling step is recorded in an audit log.

Decoding is incremental and runs without a tape: one `DecodeCache` per call
keeps the grid stage, every decoder layer's keys and values and each track's
bar tokens, and a step feeds `model_forward` only the ids the step before
emitted. The softmax, the top-k order and the draws of all active tracks are
one batched computation per step, in float64 whatever the model computes in;
the draws use the generator in track order. Only the cross-track layer
reaches back: when all tracks have reached bar b, it exchanges bar b once
and the top decoder is recomputed from each track's bar-b token onward, so a
cover of n bars redoes at most n such spans (see `bandgen.neural.model`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..bpe import BpeModel, bpe_decode
from ..errors import DataError, DegenerateVocab, UsageError
from ..features import FeatureGrid
from ..tokens import (BAR_KINDS, BOS_ID, EOS_ID, TrackGrammar, TrackTokenSeqs,
                      Vocab, build_track_seqs)
from .autograd import Tensor
from .model import (DecodeCache, ModelConfig, check_blocks, model_forward,
                    model_spec)


K_FRAC = 0.02  # default top-k share of the vocabulary


def top_k_count(vocab_size: int, k_frac: float = K_FRAC) -> int:
    if not 0.0 <= k_frac <= 1.0:  # NaN fails too
        raise UsageError(f"k_frac must lie in [0, 1], got {k_frac}")
    return max(1, int(vocab_size * k_frac + 0.5))


@dataclass(frozen=True, slots=True)
class SampleEvent:
    track: int
    step: int
    emitted: int
    top_ids: tuple[int, ...]  # empty for rule-forced terminators
    sampled: bool


@dataclass(slots=True)
class GenerationResult:
    seqs: TrackTokenSeqs          # repaired, base-vocabulary ids
    raw_lists: list[list[int]]    # ids as sampled (may contain merged ids)
    audit: list[SampleEvent]
    repairs: int
    wall_seconds: float
    tokens_generated: int
    step_seconds: list[float]     # wall time of each lockstep step


def _topk_sample(probs: np.ndarray, k: int, rng: np.random.Generator
                 ) -> list[tuple[int, tuple[int, ...]]]:
    """Draw one id per row of probs [n, V] (float64) from the row's k most
    probable ids (ties in id order), renormalized, or uniform over them
    when their mass is zero. Returns (id, top ids) per row.

    The draws are those of `rng.choice(ids, p=row)` row after row: one
    uniform per row, in row order, searched (right side) in the row's
    cumulative weights divided by their total."""
    top = np.argsort(-probs, axis=-1, kind="stable")[:, :k]
    weights = probs[np.arange(len(top))[:, None], top]
    total = weights.sum(axis=-1, keepdims=True)
    weights = np.divide(weights, total, where=total > 0,
                        out=np.full(weights.shape, 1.0 / top.shape[1]))
    cdf = weights.cumsum(axis=-1)
    cdf /= cdf[:, -1:]
    picks = (cdf <= rng.random(len(top))[:, None]).sum(axis=-1)
    return [(ids[p], tuple(ids)) for ids, p in zip(top.tolist(), picks)]


def generate(grid: FeatureGrid, params: dict[str, Tensor], cfg: ModelConfig,
             vocab: Vocab, bpe_model: BpeModel | None = None, seed: int = 0,
             k_frac: float = K_FRAC, t_max: int | None = None) -> GenerationResult:
    """Sample a cover of `grid`; `t_max` caps each track's length before its
    final EOS (None: the config's cap; larger values are clipped to it)."""
    if seed < 0:
        raise UsageError(f"seed must not be negative, got {seed}")
    check_blocks(params, model_spec(cfg))
    k = top_k_count(cfg.vocab_size, k_frac)
    if cfg.vocab_size < 3:
        raise DegenerateVocab(f"vocab of {cfg.vocab_size} cannot be sampled")
    decodable = vocab.size if bpe_model is None else bpe_model.vocab_size
    if cfg.vocab_size > decodable:
        raise DataError(f"the model samples {cfg.vocab_size} ids, but only "
                        f"{decodable} can be decoded")
    if t_max is not None and t_max < 3:
        # every track starts with [Instrument, BOS]
        raise UsageError(f"t_max must leave room for a sampled token, got {t_max}")
    if not grid.n_tracks:  # no track would reach the grid stage's check
        raise DataError("a grid without tracks has nothing to cover")
    t_max = cfg.t_max if t_max is None else min(t_max, cfg.t_max)
    rng = np.random.default_rng(seed)
    b_ref = grid.n_bars
    bar_ids = vocab.bar_ids

    raw_lists = [[vocab.id_of("Instrument", inst), BOS_ID] for inst in grid.instruments]
    audit: list[SampleEvent] = []
    step_seconds: list[float] = []
    cache = DecodeCache()
    new_ids = raw_lists  # what the cache has not decoded yet

    start = tick = time.perf_counter()
    while (any(ids[-1] != EOS_ID for ids in raw_lists)
           and max(len(ids) for ids in raw_lists) < t_max):
        seqs = build_track_seqs(new_ids, vocab)
        logits = model_forward(seqs, grid, params, cfg, cache=cache)
        step = len(step_seconds)
        active = [ti for ti, ids in enumerate(raw_lists) if ids[-1] != EOS_ID]
        rows = logits.data[active, 0].astype(np.float64, copy=False)
        probs = np.exp(rows - np.maximum.reduce(rows, axis=-1, keepdims=True))
        probs /= np.add.reduce(probs, axis=-1, keepdims=True)
        new_ids = [[] for _ in raw_lists]
        for ti, (choice, top) in zip(active, _topk_sample(probs, k, rng)):
            if choice in bar_ids and len(cache.bar_token_positions[ti]) >= b_ref:
                # the bar that would exceed the reference stops the track
                choice, top = EOS_ID, ()
            new_ids[ti] = [choice]
            raw_lists[ti].append(choice)
            audit.append(SampleEvent(ti, step, choice, top, sampled=bool(top)))
        tick, last = time.perf_counter(), tick
        step_seconds.append(tick - last)
    for ti, ids in enumerate(raw_lists):
        if ids[-1] != EOS_ID:
            ids.append(EOS_ID)
            audit.append(SampleEvent(ti, len(step_seconds), EOS_ID, (),
                                     sampled=False))
    wall = time.perf_counter() - start

    repaired: list[list[int]] = []
    repairs = 0
    for ti, ids in enumerate(raw_lists):
        base = bpe_decode(ids, bpe_model) if bpe_model is not None else list(ids)
        fixed, n = repair_track_ids(base, b_ref, vocab)
        repaired.append(fixed)
        repairs += n
    seqs = build_track_seqs(repaired, vocab)
    return GenerationResult(seqs, raw_lists, audit, repairs, wall, len(audit),
                            step_seconds)


def repair_track_ids(ids: list[int], b_ref: int, vocab: Vocab
                     ) -> tuple[list[int], int]:
    """Make a sampled id list decodable, one id at a time: a bad head is
    replaced; bars past `b_ref`, tokens the track grammar (`bandgen.tokens`)
    rejects and each id of a note broken off before its Velocity are dropped
    (the breaking token is judged as if the note never opened); missing bars
    are filled with BarEmpty and EOS is enforced. Returns the repaired list
    and how many edits were made; dropped PAD tokens are not counted."""
    repairs = 0
    if ids and vocab.spec_of(ids[0]).kind == "Instrument":
        first = ids[0]
    else:
        first = vocab.id_of("Instrument", "Piano")
        repairs += 1
    out = [first, BOS_ID]
    repairs += 0 if len(ids) > 1 and ids[1] == BOS_ID else 1
    grammar = TrackGrammar(vocab.spec_of(first).value == "Drum")
    for tid in ids[2:] + [EOS_ID]:  # the end of the list reads as EOS
        spec = vocab.spec_of(tid)
        kind = spec.kind
        reason = grammar.reject(spec)
        if reason is not None and grammar.note:
            repairs += len(grammar.note)
            grammar.note = ()
            reason = grammar.reject(spec)
        if kind == "EOS":
            break
        if reason is not None or (kind in BAR_KINDS and grammar.bars >= b_ref):
            repairs += kind != "PAD"
            continue
        out += grammar.take(tid, spec)
    missing = b_ref - grammar.bars
    out += [vocab.id_of("BarEmpty", 0)] * missing + [EOS_ID]
    return out, repairs + missing
