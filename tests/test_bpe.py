"""Position-constrained pair merging against a naive reference learner."""

import numpy as np
import pytest

from bandgen.bpe import (BpeModel, _replace_pair, bpe_decode, bpe_encode,
                         dump_merges, learn_bpe, load_merges, note_units)
from bandgen.errors import DataError, TargetTooSmall, UnknownToken
from bandgen.synth import make_song
from bandgen.tokens import build_vocab, tokenize_song


def naive_learn(corpus_lists, vocab, target_size):
    """Reference learner: full recount of the unit multiset every round."""
    units = {}
    for ids in corpus_lists:
        for u in note_units(ids, vocab):
            units[u] = units.get(u, 0) + 1
    merges = []
    next_id = vocab.size
    while next_id < target_size:
        counts = {}
        for u, m in units.items():
            for pair in zip(u, u[1:]):
                counts[pair] = counts.get(pair, 0) + m
        if not counts:
            break
        best = min(counts, key=lambda p: (-counts[p], p[0], p[1]))
        if counts[best] < 2:
            break
        merges.append((best[0], best[1], next_id))
        new_units = {}
        for u, m in units.items():
            nu = tuple(_replace_pair(list(u), best, next_id))
            new_units[nu] = new_units.get(nu, 0) + m
        units = new_units
        next_id += 1
    return merges


def test_learner_matches_naive_reference(vocab):
    rng = np.random.default_rng(11)
    for trial in range(4):
        songs = [make_song(int(rng.integers(1000)), n_bars=4) for _ in range(3)]
        lists = []
        for s in songs:
            seqs = tokenize_song(s, vocab)
            lists += [ids[:n] for ids, n in zip(seqs.seqs, seqs.lengths)]
        target = vocab.size + int(rng.integers(10, 60))
        model = learn_bpe(lists, vocab, target)
        assert model.merges == naive_learn(lists, vocab, target)


def test_encode_decode_identity_on_corpus(vocab, micro_corpus):
    seq_lists = []
    for song in micro_corpus[:10]:
        seqs = tokenize_song(song, vocab)
        seq_lists += [ids[:n] for ids, n in zip(seqs.seqs, seqs.lengths)]
    model = learn_bpe(seq_lists, vocab, vocab.size + 300)
    assert model.merges
    for ids in seq_lists:
        enc = bpe_encode(ids, model, vocab)
        assert len(enc) <= len(ids)
        assert bpe_decode(enc, model) == ids


def test_metric_tokens_pass_through(vocab):
    song = make_song(4, n_bars=4)
    seqs = tokenize_song(song, vocab)
    lists = [ids[:n] for ids, n in zip(seqs.seqs, seqs.lengths)]
    model = learn_bpe(lists, vocab, vocab.size + 50)
    for ids in lists:
        enc = bpe_encode(ids, model, vocab)
        assert [t for t in enc if not vocab.is_note_id(t)
                and t < vocab.size] == [t for t in ids if not vocab.is_note_id(t)]


def _pitch(vocab, p):
    return vocab.id_of("Pitch", p)


def test_tie_break_prefers_lowest_pair(vocab):
    a, b, c, d = (_pitch(vocab, p) for p in (60, 61, 62, 63))
    bar = vocab.id_of("BarNormal", 0)
    # (c, d) and (a, b) both occur twice; (a, b) is lexicographically lower
    lists = [[c, d, bar, c, d, bar, a, b, bar, a, b]]
    model = learn_bpe(lists, vocab, vocab.size + 2)
    assert model.merges == [(a, b, vocab.size), (c, d, vocab.size + 1)]


def test_stops_when_no_pair_repeats(vocab):
    a, b, c = (_pitch(vocab, p) for p in (60, 61, 62))
    model = learn_bpe([[a, b, vocab.id_of("BarNormal", 0), b, c]], vocab,
                      vocab.size + 10)
    assert model.merges == []


def test_counts_overlap_but_replaces_left_to_right(vocab):
    a = _pitch(vocab, 60)
    # run (a,a,a) twice: pair (a,a) counts 4, replacement leaves (new, a)
    lists = [[a, a, a], [a, a, a]]
    model = learn_bpe(lists, vocab, vocab.size + 1)
    assert model.merges == [(a, a, vocab.size)]
    assert bpe_encode([a, a, a], model, vocab) == [vocab.size, a]


def test_merged_ids_feed_later_merges(vocab):
    a, b, c = (_pitch(vocab, p) for p in (60, 61, 62))
    lists = [[a, b, c]] * 3
    model = learn_bpe(lists, vocab, vocab.size + 5)
    first = vocab.size
    assert model.merges[0] == (a, b, first)
    assert model.merges[1] == (first, c, first + 1)
    assert bpe_encode([a, b, c], model, vocab) == [first + 1]
    assert bpe_decode([first + 1], model) == [a, b, c]


def test_lowest_rank_first_equals_sequential_application(vocab):
    rng = np.random.default_rng(3)
    songs = [make_song(int(rng.integers(1000)), n_bars=4) for _ in range(2)]
    lists = []
    for s in songs:
        seqs = tokenize_song(s, vocab)
        lists += [ids[:n] for ids, n in zip(seqs.seqs, seqs.lengths)]
    model = learn_bpe(lists, vocab, vocab.size + 80)
    for ids in lists:
        sequential = list(ids)
        out = []
        for unit in note_units(ids, vocab):
            seq = list(unit)
            for l, r, new in model.merges:
                seq = _replace_pair(seq, (l, r), new)
            out.append(tuple(seq))
        encoded = [model.encode_unit(u) for u in note_units(ids, vocab)]
        assert encoded == out


def test_target_too_small(vocab):
    with pytest.raises(TargetTooSmall):
        learn_bpe([[]], vocab, vocab.size)


def test_encode_rejects_out_of_base_ids(vocab):
    model = BpeModel([], vocab.size)
    with pytest.raises(UnknownToken):
        bpe_encode([vocab.size + 5], model, vocab)
    with pytest.raises(UnknownToken):
        model.expand_id(vocab.size + 5)


def test_merge_file_round_trip(vocab):
    song = make_song(9, n_bars=4)
    seqs = tokenize_song(song, vocab)
    lists = [ids[:n] for ids, n in zip(seqs.seqs, seqs.lengths)]
    model = learn_bpe(lists, vocab, vocab.size + 40)
    text = dump_merges(model)
    loaded = load_merges(text, vocab.size)
    assert loaded.merges == model.merges
    assert loaded.vocab_size == model.vocab_size
    for ids in lists:
        assert bpe_encode(ids, loaded, vocab) == bpe_encode(ids, model, vocab)


def test_merge_file_validation(vocab):
    with pytest.raises(DataError):
        load_merges("1 2\n", vocab.size)
    with pytest.raises(DataError):
        load_merges(f"1 2 {vocab.size + 1}\n", vocab.size)  # gap in new ids
    with pytest.raises(DataError):
        load_merges(f"{vocab.size + 3} 2 {vocab.size}\n", vocab.size)
