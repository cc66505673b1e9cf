"""Top-k selection, grammar repair, and conditioned generation."""

import hashlib
import json
import random

import numpy as np
import pytest

from bandgen.bpe import learn_bpe
from bandgen.errors import (DataError, DegenerateVocab, MalformedSequence,
                            UsageError)
from bandgen.features import extract_expert_features, quantize_features
from bandgen.neural import sampling
from bandgen.neural.autograd import Tensor
from bandgen.neural.model import init_params, make_config
from bandgen.neural.sampling import (_topk_sample, generate, repair_track_ids,
                                     top_k_count)
from bandgen.score import INSTRUMENTS
from bandgen.synth import make_song
from bandgen.tokens import (BOS_ID, EOS_ID, PAD_ID, build_track_seqs,
                            detokenize, tokenize_song)

RNG = np.random.default_rng(5)


def small_cfg(**overrides):
    kwargs = dict(d=16, heads=2, ffn=16, t_max=64, b_max=16)
    kwargs.update(overrides)
    return make_config("toy", **kwargs)


def test_top_k_count_oracles():
    assert top_k_count(10000) == 200
    assert top_k_count(282) == 6
    assert top_k_count(10) == 1     # rounds to zero, floored at one
    assert top_k_count(50) == 1
    assert top_k_count(75) == 2
    assert top_k_count(100, k_frac=0.5) == 50


def test_topk_sample_picks_from_largest():
    probs = np.array([[0.4, 0.1, 0.35, 0.15]])
    rng = np.random.default_rng(0)
    for _ in range(20):
        [(choice, top)] = _topk_sample(probs, 2, rng)
        assert top == (0, 2)
        assert choice in (0, 2)


def test_topk_sample_stable_tie_order():
    probs = np.array([[0.25, 0.25, 0.25, 0.25]])
    [(_, top)] = _topk_sample(probs, 3, np.random.default_rng(0))
    assert top == (0, 1, 2)


def test_topk_sample_degenerate_mass_falls_back_to_uniform():
    probs = np.zeros((1, 5))
    seen = set()
    rng = np.random.default_rng(0)
    for _ in range(50):
        [(choice, top)] = _topk_sample(probs, 3, rng)
        assert top == (0, 1, 2)
        seen.add(choice)
    assert seen == {0, 1, 2}


def test_topk_sample_rows_of_pure_ties_and_of_zero_mass():
    """Each row keeps its own top-k and fallback: a row of ties takes its
    first k ids, a row without mass draws uniformly over its top k, and
    neither changes the ordinary row between them."""
    probs = np.array([[0.2] * 5, [0.0] * 5, [0.1, 0.5, 0.0, 0.4, 0.0],
                      [1 / 3] * 3 + [0.0] * 2])
    seen = [set() for _ in probs]
    rng = np.random.default_rng(0)
    for _ in range(60):
        picks = _topk_sample(probs, 3, rng)
        assert [top for _, top in picks] == [(0, 1, 2), (0, 1, 2), (1, 3, 0),
                                             (0, 1, 2)]
        for row, (choice, _) in zip(seen, picks):
            row.add(choice)
    assert seen == [{0, 1, 2}, {0, 1, 2}, {0, 1, 3}, {0, 1, 2}]


def test_topk_sample_draws_rows_in_order_as_one_at_a_time():
    """A batch of rows gives the ids and draws of the same rows sampled one
    at a time from one generator, ties and zero-mass rows included."""
    probs = RNG.dirichlet(np.ones(40), size=7)
    probs[2] = 0.0
    probs[4, :10] = probs[4, 10:20]
    for k in (1, 3, 40, 50):
        batched = _topk_sample(probs, k, np.random.default_rng(3))
        rng = np.random.default_rng(3)
        single = [_topk_sample(row[None], k, rng)[0] for row in probs]
        assert batched == single


# -- repair ------------------------------------------------------------------------


def bar_count(ids, vocab):
    return sum(1 for t in ids if vocab.spec_of(t).kind in ("BarNormal", "BarEmpty"))


def test_repair_keeps_valid_tracks_untouched(vocab):
    song = make_song(seed=2, n_bars=3)
    seqs = tokenize_song(song, vocab)
    for ti in range(seqs.n_tracks):
        ids = seqs.seqs[ti][:seqs.lengths[ti]]
        fixed, n = repair_track_ids(list(ids), song.n_bars, vocab)
        assert n == 0
        assert fixed == ids


def test_repair_empty_list_builds_empty_track(vocab):
    fixed, n = repair_track_ids([], 4, vocab)
    assert n >= 1
    assert fixed[0] == vocab.id_of("Instrument", "Piano")
    assert fixed[1] == BOS_ID
    assert bar_count(fixed, vocab) == 4
    assert fixed[-1] == EOS_ID
    # every missing head token and every BarEmpty fill is one edit
    piano = vocab.id_of("Instrument", "Piano")
    for ids, edits in (([], 6), ([piano], 5), ([piano, BOS_ID], 4)):
        assert repair_track_ids(ids, 4, vocab) == (fixed, edits)


def test_repair_replaces_bad_head(vocab):
    pitch = vocab.id_of("Pitch", 60)
    fixed, n = repair_track_ids([pitch, pitch, pitch], 2, vocab)
    assert vocab.spec_of(fixed[0]).kind == "Instrument"
    assert n >= 1
    detokenize_ok(fixed, vocab)


def test_repair_drops_orphan_tokens_and_counts(vocab):
    inst = vocab.id_of("Instrument", "Piano")
    bar = vocab.id_of("BarNormal", 0)
    pos = vocab.id_of("Position", 0)
    pitch = vocab.id_of("Pitch", 60)
    dur = vocab.id_of("Duration", 48)
    vel = vocab.id_of("Velocity", 16)

    # position before any bar is dropped
    fixed, n = repair_track_ids([inst, BOS_ID, pos, bar, EOS_ID], 1, vocab)
    assert fixed == [inst, BOS_ID, bar, EOS_ID]
    assert n == 1

    # pitch lacking duration+velocity is dropped; the complete one stays
    ids = [inst, BOS_ID, bar, pos, pitch, pitch, dur, vel, EOS_ID]
    fixed, n = repair_track_ids(ids, 1, vocab)
    assert fixed == [inst, BOS_ID, bar, pos, pitch, dur, vel, EOS_ID]
    assert n == 1

    # a note broken off before its Velocity loses each of its ids at one edit,
    # and the breaking token is judged as if the note never opened
    pitch2 = vocab.id_of("Pitch", 64)
    head = [inst, BOS_ID, bar, pos]
    for opened in ([pitch], [pitch, dur]):
        edits = len(opened)
        # a Bar under the cap is kept, one past it is dropped too
        assert repair_track_ids(head + opened + [bar, EOS_ID], 2, vocab) == (
            head + [bar, EOS_ID], edits)
        assert repair_track_ids(head + opened + [bar, EOS_ID], 1, vocab) == (
            head + [EOS_ID], edits + 1)
        # EOS and the end of the list end the track; a dropped PAD is free
        for tail in ([EOS_ID, pitch, dur, vel], [], [PAD_ID]):
            assert repair_track_ids(head + opened + tail, 1, vocab) == (
                head + [EOS_ID], edits)
        # a second Pitch opens the note that completes
        assert repair_track_ids(head + opened + [pitch2, dur, vel], 1, vocab) == (
            head + [pitch2, dur, vel, EOS_ID], edits)

    # stray duration and velocity each count
    ids = [inst, BOS_ID, bar, dur, vel, EOS_ID]
    fixed, n = repair_track_ids(ids, 1, vocab)
    assert fixed == [inst, BOS_ID, bar, EOS_ID]
    assert n == 2

    # backwards position within a bar is dropped
    p2 = vocab.id_of("Position", 96)
    ids = [inst, BOS_ID, bar, p2, pitch, dur, vel, pos, EOS_ID]
    fixed, n = repair_track_ids(ids, 1, vocab)
    assert fixed == [inst, BOS_ID, bar, p2, pitch, dur, vel, EOS_ID]
    assert n == 1


def test_repair_enforces_reference_bar_count(vocab):
    inst = vocab.id_of("Instrument", "Piano")
    bar = vocab.id_of("BarNormal", 0)
    empty = vocab.id_of("BarEmpty", 0)

    # too many bars: the extras are dropped
    fixed, n = repair_track_ids([inst, BOS_ID, bar, bar, bar, EOS_ID], 2, vocab)
    assert bar_count(fixed, vocab) == 2
    assert n == 1

    # too few bars: BarEmpty fills the tail
    fixed, n = repair_track_ids([inst, BOS_ID, bar, EOS_ID], 3, vocab)
    assert fixed == [inst, BOS_ID, bar, empty, empty, EOS_ID]
    assert n == 2


def test_repair_drum_and_pitched_token_mixups(vocab):
    drum = vocab.id_of("Instrument", "Drum")
    piano = vocab.id_of("Instrument", "Piano")
    bar = vocab.id_of("BarNormal", 0)
    pos = vocab.id_of("Position", 0)
    pdrum = vocab.id_of("PitchDrum", 36)
    pitch = vocab.id_of("Pitch", 60)
    dur = vocab.id_of("Duration", 48)
    vel = vocab.id_of("Velocity", 16)

    fixed, n = repair_track_ids([piano, BOS_ID, bar, pos, pdrum, EOS_ID], 1, vocab)
    assert fixed == [piano, BOS_ID, bar, pos, EOS_ID]
    assert n == 1

    fixed, n = repair_track_ids([drum, BOS_ID, bar, pos, pitch, dur, vel,
                                 pdrum, EOS_ID], 1, vocab)
    assert fixed == [drum, BOS_ID, bar, pos, pdrum, EOS_ID]
    assert n == 3


def detokenize_ok(ids, vocab):
    from bandgen.tokens import build_track_seqs
    return detokenize(build_track_seqs([ids], vocab), vocab)


def test_repair_makes_any_id_soup_decodable(vocab):
    for trial in range(60):
        length = int(RNG.integers(0, 40))
        soup = [int(t) for t in RNG.integers(0, vocab.size, size=length)]
        b_ref = int(RNG.integers(1, 5))
        fixed, _ = repair_track_ids(soup, b_ref, vocab)
        song = detokenize_ok(fixed, vocab)
        assert bar_count(fixed, vocab) == b_ref


def _id_soup(rng: random.Random, vocab, by_kind: dict) -> tuple[list[int], int]:
    """A seeded id list that mixes valid and invalid heads, whole, partial
    and stray note parts, ends with or without EOS, and a `b_ref` of 1-6."""
    inst = vocab.id_of("Instrument", rng.choice(INSTRUMENTS))
    start = [inst, BOS_ID, by_kind["BarNormal"][0], by_kind["Position"][0]]
    ids = list(rng.choice([start] * 4 + [start[:2]] * 2 + [
        [inst], [], [BOS_ID, inst],
        [rng.randrange(vocab.size), rng.randrange(vocab.size)]]))
    parts = ["BarNormal", "BarEmpty", "Position", "PitchDrum", "Pitch",
             "Pitch Duration", "framing", "any"] + ["Pitch Duration Velocity"] * 4
    for _ in range(rng.randrange(20)):
        ids += [rng.choice(by_kind[kind]) for kind in rng.choice(parts).split()]
    pitch, duration = by_kind["Pitch"][0], by_kind["Duration"][0]
    ids += rng.choice([[EOS_ID], [EOS_ID, PAD_ID], [EOS_ID, pitch], [], [PAD_ID],
                       [pitch], [pitch, duration], [pitch, EOS_ID]])
    return ids, rng.randint(1, 6)


def _decoded(ids, vocab):
    try:
        song = detokenize(build_track_seqs([ids], vocab), vocab)
    except MalformedSequence as e:
        return str(e)
    return [song.n_bars] + [[t.instrument] + [[n.pitch, n.onset, n.duration,
                                               n.velocity] for n in t.notes]
                            for t in song.tracks]


# recorded before `TrackGrammar` read one token at a time, when a Pitch
# looked two ids ahead for its Duration and Velocity
SOUP_DIGEST = "e7996b8fcef816a786d8f404314d99b37f190c3f7cd6f7fe5460d4c2e8c67729"


def _soup_digest(vocab, n=2000) -> str:
    by_kind = {"framing": [PAD_ID, BOS_ID, EOS_ID], "any": range(vocab.size)}
    for i, spec in enumerate(vocab.specs):
        by_kind.setdefault(spec.kind, []).append(i)
    rng = random.Random(2024)
    h = hashlib.sha256()
    for _ in range(n):
        ids, b_ref = _id_soup(rng, vocab, by_kind)
        fixed, edits = repair_track_ids(ids, b_ref, vocab)
        h.update(json.dumps([ids, b_ref, fixed, edits, _decoded(ids, vocab),
                             _decoded(fixed, vocab)]).encode())
    return h.hexdigest()


def test_repair_and_detokenize_match_golden_soup_digest(vocab):
    assert _soup_digest(vocab) == SOUP_DIGEST


# -- generation --------------------------------------------------------------------


@pytest.fixture(scope="module")
def gen_setup(vocab):
    cfg = small_cfg()
    params = init_params(cfg)
    song = make_song(seed=4, n_bars=2)
    grid = quantize_features(extract_expert_features(song))
    return cfg, params, grid


def test_generate_respects_reference_bars_and_grammar(vocab, gen_setup):
    cfg, params, grid = gen_setup
    result = generate(grid, params, cfg, vocab, seed=0)
    assert result.seqs.n_tracks == len(grid.instruments)
    for ti in range(result.seqs.n_tracks):
        ids = result.seqs.seqs[ti][:result.seqs.lengths[ti]]
        assert bar_count(ids, vocab) == grid.n_bars
    decoded = detokenize(result.seqs, vocab)
    assert decoded.n_bars == grid.n_bars
    assert result.wall_seconds > 0
    assert result.tokens_generated == len(result.audit)


def test_generate_audit_stays_inside_top_k(vocab, gen_setup):
    cfg, params, grid = gen_setup
    k = top_k_count(cfg.vocab_size)
    result = generate(grid, params, cfg, vocab, seed=1)
    sampled = [e for e in result.audit if e.sampled]
    forced = [e for e in result.audit if not e.sampled]
    assert sampled, "no sampled events recorded"
    for e in sampled:
        assert len(e.top_ids) == k
        assert e.emitted in e.top_ids
    for e in forced:
        assert e.emitted == EOS_ID
        assert e.top_ids == ()


def test_generate_same_seed_reproduces(vocab, gen_setup):
    cfg, params, grid = gen_setup
    a = generate(grid, params, cfg, vocab, seed=7)
    b = generate(grid, params, cfg, vocab, seed=7)
    assert a.raw_lists == b.raw_lists
    assert a.seqs.seqs == b.seqs.seqs
    assert a.repairs == b.repairs
    c = generate(grid, params, cfg, vocab, seed=8)
    assert c.raw_lists != a.raw_lists


def test_generate_with_merged_vocabulary(vocab, gen_setup):
    _, _, grid = gen_setup
    seq_lists = [tokenize_song(make_song(seed=s, n_bars=2), vocab)
                 for s in range(3)]
    lists = [ids[:n] for seqs in seq_lists
             for ids, n in zip(seqs.seqs, seqs.lengths)]
    model = learn_bpe(lists, vocab, target_size=vocab.size + 20)
    n_merged = vocab.size + len(model.merges)
    cfg = small_cfg(vocab_size=n_merged)
    params = init_params(cfg)
    result = generate(grid, params, cfg, vocab, bpe_model=model, seed=3)
    for ti in range(result.seqs.n_tracks):
        ids = result.seqs.seqs[ti][:result.seqs.lengths[ti]]
        assert all(t < vocab.size for t in ids)
    detokenize(result.seqs, vocab)


def test_generate_rejects_degenerate_vocab(vocab, gen_setup):
    _, _, grid = gen_setup
    cfg = small_cfg(vocab_size=2)
    with pytest.raises(DegenerateVocab):
        generate(grid, init_params(cfg), cfg, vocab)


def test_generate_rejects_a_model_vocab_it_cannot_decode(vocab, monkeypatch):
    """A model that samples ids the vocabulary (and merges) cannot decode is
    refused before the first step, not after the whole cover."""
    def no_step(*args, **kwargs):
        raise AssertionError("model_forward ran")

    monkeypatch.setattr(sampling, "model_forward", no_step)
    grid = quantize_features(extract_expert_features(make_song(seed=4, n_bars=2)))
    cfg = make_config("toy", vocab_size=vocab.size + 200)
    with pytest.raises(DataError):
        generate(grid, init_params(cfg), cfg, vocab)
    seqs = tokenize_song(make_song(seed=1, n_bars=2), vocab)
    model = learn_bpe([ids[:n] for ids, n in zip(seqs.seqs, seqs.lengths)],
                      vocab, target_size=vocab.size + 5)
    cfg = small_cfg(vocab_size=model.vocab_size + 1)
    with pytest.raises(DataError):
        generate(grid, init_params(cfg), cfg, vocab, bpe_model=model)


def test_generate_rejects_parameters_that_do_not_fit_the_config(vocab, gen_setup):
    cfg, params, grid = gen_setup
    with pytest.raises(DataError):
        generate(grid, params | {"te": Tensor(np.zeros((5, 7)))}, cfg, vocab)
    with pytest.raises(DataError):
        generate(grid, {k: p for k, p in params.items() if k != "ie"}, cfg, vocab)


@pytest.mark.parametrize("bad", [dict(seed=-1), dict(k_frac=float("nan")),
                                 dict(k_frac=float("inf")), dict(k_frac=-0.1),
                                 dict(k_frac=1.5)])
def test_generate_rejects_bad_seed_and_k_frac(vocab, gen_setup, bad):
    cfg, params, grid = gen_setup
    with pytest.raises(UsageError):
        generate(grid, params, cfg, vocab, **bad)


def test_generate_accepts_k_frac_bounds(vocab, gen_setup):
    cfg, params, grid = gen_setup
    for k_frac in (0.0, 1.0):
        result = generate(grid, params, cfg, vocab, k_frac=k_frac, t_max=8)
        k = top_k_count(cfg.vocab_size, k_frac)
        assert all(len(e.top_ids) == k for e in result.audit if e.sampled)


@pytest.mark.parametrize("k_frac", [float("nan"), float("inf"), -0.1, 1.5])
def test_top_k_count_rejects_bad_fractions(k_frac):
    with pytest.raises(UsageError):
        top_k_count(282, k_frac)


@pytest.mark.parametrize("t_max", [0, 2, -5])
def test_generate_rejects_t_max_without_room_to_sample(vocab, gen_setup, t_max):
    cfg, params, grid = gen_setup
    with pytest.raises(UsageError):
        generate(grid, params, cfg, vocab, t_max=t_max)


def test_generate_t_max_caps_and_defaults(vocab, gen_setup):
    cfg, params, grid = gen_setup
    # [Instrument, BOS], one sampled id, then EOS if the track did not stop
    shortest = generate(grid, params, cfg, vocab, seed=0, t_max=3)
    assert len(shortest.step_seconds) == 1
    assert all(len(ids) <= 4 for ids in shortest.raw_lists)
    capped = generate(grid, params, cfg, vocab, seed=0, t_max=cfg.t_max + 100)
    default = generate(grid, params, cfg, vocab, seed=0)
    assert capped.raw_lists == default.raw_lists
    assert max(map(len, default.raw_lists)) <= cfg.t_max + 1
