"""Acceptance suite: twelve numbered end-to-end criteria for the pipeline.

Each test aggregates its sub-checks into a single verdict and emits exactly
one pass/fail line carrying the measured quantities. The lines print inline
and repeat in the terminal summary via the conftest hook.
"""

import time
from collections import Counter

import numpy as np
import pytest

from bandgen.bpe import BpeModel, bpe_decode, bpe_encode, learn_bpe
from bandgen.features import extract_expert_features, quantize_features
from bandgen.metrics import evaluate_pair
from bandgen.neural.autograd import Tensor
from bandgen.neural.model import (ctt_forward, expand_similarity, init_params,
                                  make_config, se_attention)
from bandgen.neural.sampling import generate, top_k_count
from bandgen.neural.training import gradient_check, mean_loss, train_model
from bandgen.neural.vqvae import quantize_vectors
from bandgen.score import Note, Song, Track
from bandgen.synth import make_song
from bandgen.tokens import (BOS_ID, EOS_ID, PAD_ID, corpus_stats, detokenize,
                            snap_song, tokenize_remi_plus, tokenize_song)
from scalar_oracles import velocity_bin

SPECIAL_IDS = {PAD_ID, BOS_ID, EOS_ID}


def _verdict(log, num, name, failures, detail):
    ok = not failures
    line = f"[{'PASS' if ok else 'FAIL'}] {num:02d} {name}: " + (
        detail if ok else "; ".join(failures))
    print(line)
    log.append(line)
    assert ok, line


def _content_len(ids):
    return sum(1 for i in ids if i not in SPECIAL_IDS)


def _make_pair(song, vocab):
    return (tokenize_song(song, vocab),
            quantize_features(extract_expert_features(song)))


@pytest.fixture(scope="module")
def trained_toy(vocab, tiny_songs):
    """One 200-step training run on the 8-song toy corpus, shared below."""
    cfg = make_config("toy")
    pairs = [_make_pair(s, vocab) for s in tiny_songs]
    start = time.perf_counter()
    params, history = train_model(pairs, cfg, steps=200)
    elapsed = time.perf_counter() - start
    return cfg, pairs, params, history, elapsed


def test_01_tokenization_round_trip(acceptance_log, vocab, micro_corpus):
    start = time.perf_counter()
    exact = 0
    for song in micro_corpus:
        back = detokenize(tokenize_song(song, vocab), vocab)
        snap = snap_song(song, vocab)
        exact += (back.n_bars == snap.n_bars
                  and len(back.tracks) == len(snap.tracks)
                  and all(a.instrument == b.instrument
                          and Counter(a.notes) == Counter(b.notes)
                          for a, b in zip(back.tracks, snap.tracks)))
    elapsed = time.perf_counter() - start

    failures = []
    if len(micro_corpus) < 50:
        failures.append(f"corpus holds {len(micro_corpus)} songs, need >= 50")
    if exact != len(micro_corpus):
        failures.append(f"{exact}/{len(micro_corpus)} note multisets survive")
    if elapsed >= 10.0:
        failures.append(f"runtime {elapsed:.2f}s >= 10s")
    _verdict(acceptance_log, 1, "tokenization-round-trip", failures,
             f"{exact}/{len(micro_corpus)} songs exact in {elapsed:.2f}s")


def test_02_bpe_identity_and_compression(acceptance_log, vocab, micro_corpus):
    corpus = [tokenize_song(s, vocab) for s in micro_corpus]
    model = learn_bpe(corpus, vocab, target_size=2000)
    n_seqs = mismatches = raw_total = enc_total = 0
    for seqs in corpus:
        for ids, n in zip(seqs.seqs, seqs.lengths):
            raw = ids[:n]
            enc = bpe_encode(raw, model, vocab)
            mismatches += bpe_decode(enc, model) != raw
            raw_total += len(raw)
            enc_total += len(enc)
            n_seqs += 1
    ratio = enc_total / raw_total

    failures = []
    if mismatches:
        failures.append(f"{mismatches}/{n_seqs} sequences break decode(encode)")
    if ratio > 0.8:
        failures.append(f"mean length ratio {ratio:.3f} > 0.8")
    _verdict(acceptance_log, 2, "bpe-identity-and-compression", failures,
             f"{n_seqs} sequences invertible, length ratio {ratio:.3f} "
             f"after {len(model.merges)} merges")


def test_03_parallel_length_advantage(acceptance_log, vocab, micro_corpus):
    four_track = [s for s in micro_corpus if len(s.tracks) == 4]
    notes = [s.note_count() for s in four_track]
    beats = [s.n_bars * 4 for s in four_track]
    parallel = corpus_stats([tokenize_song(s, vocab) for s in four_track],
                            notes, beats, vocab.size)
    flat = corpus_stats([tokenize_remi_plus(s, vocab) for s in four_track],
                        notes, beats, vocab.size)
    ratio = parallel.avg_len / flat.avg_len

    failures = []
    if not four_track:
        failures.append("no 4-track songs in the corpus")
    if ratio > 0.5:
        failures.append(f"avg-length ratio {ratio:.3f} > 0.5")
    _verdict(acceptance_log, 3, "parallel-length-advantage", failures,
             f"avg len {parallel.avg_len:.1f} vs {flat.avg_len:.1f} "
             f"interleaved (ratio {ratio:.3f}, {len(four_track)} songs)")


def test_04_five_note_worked_example(acceptance_log, vocab):
    # five notes on four instruments, all sharing one onset position
    song = Song([
        Track("Drum", [Note(36, 0, 24, 64)]),
        Track("Piano", [Note(60, 0, 48, 64), Note(64, 0, 48, 64)]),
        Track("Bass", [Note(43, 0, 48, 64)]),
        Track("SquareSynth", [Note(72, 0, 48, 64)]),
    ], 1)
    flat_len = _content_len(tokenize_remi_plus(song, vocab))
    seqs = tokenize_song(song, vocab)

    # the illustrated merges collapse every pitched note to one token:
    # the shared Duration+Velocity pair first, then each Pitch onto it
    dur_vel = vocab.size
    merges = [(vocab.id_of("Duration", 48),
               vocab.id_of("Velocity", velocity_bin(64)), dur_vel)]
    for i, pitch in enumerate((60, 64, 43, 72)):
        merges.append((vocab.id_of("Pitch", pitch), dur_vel, vocab.size + 1 + i))
    model = BpeModel(merges, vocab.size)
    merged_lens = [_content_len(bpe_encode(ids[:n], model, vocab))
                   for ids, n in zip(seqs.seqs, seqs.lengths)]

    # the same collapse is learnable once each pair repeats
    learned = learn_bpe([seqs, seqs], vocab, vocab.size + 5)
    learned_lens = [_content_len(bpe_encode(ids[:n], learned, vocab))
                    for ids, n in zip(seqs.seqs, seqs.lengths)]

    failures = []
    if sum(len(t.notes) for t in song.tracks) != 5 or len(song.tracks) != 4:
        failures.append("fixture is not the 5-note 4-instrument layout")
    if flat_len != 20:
        failures.append(f"interleaved encoding has {flat_len} tokens, want 20")
    if max(merged_lens) != 5:
        failures.append(f"longest merged track is {max(merged_lens)}, want 5")
    if learned_lens != merged_lens:
        failures.append(f"learned merges give {learned_lens}, "
                        f"constructed give {merged_lens}")
    _verdict(acceptance_log, 4, "five-note-worked-example", failures,
             f"interleaved {flat_len} tokens, merged track lengths "
             f"{merged_lens} (longest 5)")


def _numpy_causal_attention(x, params, name, heads):
    def lin(v, block):
        return v @ params[f"{block}_w"].data + params[f"{block}_b"].data

    b, t, d = x.shape
    dh = d // heads

    def split(v):
        return v.reshape(b, t, heads, dh).transpose(0, 2, 1, 3)

    q, k, v = (split(lin(x, f"{name}_{p}")) for p in "qkv")
    scores = q @ k.transpose(0, 1, 3, 2) / np.sqrt(dh)
    scores = np.where(np.triu(np.ones((t, t), dtype=bool), 1), -np.inf, scores)
    w = np.exp(scores - scores.max(axis=-1, keepdims=True))
    w = w / w.sum(axis=-1, keepdims=True)
    out = (w @ v).transpose(0, 2, 1, 3).reshape(b, t, d)
    return lin(out, f"{name}_o")


def test_05_modulated_attention_identity(acceptance_log):
    cfg = make_config("toy")  # d=32, heads=2
    params = init_params(cfg)
    rng = np.random.default_rng(5)
    for part in ("q", "k", "v", "o"):
        for suffix in ("w", "b"):
            p = params[f"bot0_self_{part}_{suffix}"]
            p.data = p.data + rng.normal(0.0, 0.3, p.data.shape)
    x = Tensor(rng.normal(size=(3, 64, cfg.d)))
    ones = Tensor(np.ones((3, 64, 64)))
    out = se_attention(x, ones, params, "bot0_self", cfg)
    ref = _numpy_causal_attention(x.data, params, "bot0_self", cfg.heads)
    diff = float(np.abs(out.data - ref).max())

    failures = [] if diff < 1e-12 else [f"max abs diff {diff:.2e} >= 1e-12"]
    _verdict(acceptance_log, 5, "modulated-attention-identity", failures,
             f"all-ones modulation vs plain causal attention, "
             f"max abs diff {diff:.2e} at d=32 T=64")


def test_06_similarity_expansion_exact(acceptance_log):
    rng = np.random.default_rng(6)
    entries = bad = 0
    for _ in range(40):
        n_tracks = int(rng.integers(1, 5))
        n_bars = int(rng.integers(1, 9))
        n_tokens = int(rng.integers(1, 65))
        S = Tensor(rng.normal(size=(n_tracks, n_bars, n_bars)))
        bar_index = rng.integers(0, n_bars, size=(n_tracks, n_tokens))
        tiled = expand_similarity(S, bar_index).data
        for i in range(n_tracks):
            want = S.data[i][bar_index[i][:, None], bar_index[i][None, :]]
            bad += int((tiled[i] != want).sum())
            entries += want.size

    failures = [f"{bad}/{entries} entries differ"] if bad else []
    _verdict(acceptance_log, 6, "similarity-expansion-exact", failures,
             f"{entries} tiled entries exact over 40 random bar maps")


def test_07_cross_track_pass_through(acceptance_log):
    cfg = make_config("toy", d=16, heads=2, ffn=16)
    params = init_params(cfg)
    rng = np.random.default_rng(7)
    for name, p in params.items():
        if name.startswith("ctt"):
            p.data = p.data + rng.normal(0.0, 0.3, p.data.shape)

    leaks = 0
    for _ in range(100):
        n_tracks = int(rng.integers(2, 5))
        n_tokens = int(rng.integers(4, 33))
        n_bars = int(rng.integers(0, min(4, n_tokens // 2) + 1))
        positions = [sorted(rng.choice(n_tokens, size=n_bars,
                                       replace=False).tolist())
                     for _ in range(n_tracks)]
        # flat rows: position t of track i is row i * n_tokens + t
        x = Tensor(rng.normal(size=(n_tracks * n_tokens, cfg.d)))
        out = ctt_forward(x, positions, np.arange(n_tracks) * n_tokens, params,
                          cfg).data
        mask = np.zeros((n_tracks, n_tokens), dtype=bool)
        for i, pos in enumerate(positions):
            mask[i, pos] = True
        leaks += not np.array_equal(out[~mask.reshape(-1)],
                                    x.data[~mask.reshape(-1)])

    worst = 0.0
    for _ in range(10):
        positions = [sorted(rng.choice(24, size=3, replace=False).tolist())
                     for _ in range(4)]
        x = rng.normal(size=(4, 24, cfg.d))
        first = np.arange(4) * 24
        base = ctt_forward(Tensor(x.reshape(96, cfg.d)), positions, first,
                           params, cfg).data.reshape(4, 24, cfg.d)
        perm = rng.permutation(4)
        swapped = ctt_forward(Tensor(x[perm].reshape(96, cfg.d)),
                              [positions[i] for i in perm], first, params,
                              cfg).data.reshape(4, 24, cfg.d)
        worst = max(worst, float(np.abs(swapped - base[perm]).max()))

    failures = []
    if leaks:
        failures.append(f"{leaks}/100 inputs change outside bar tokens")
    if worst >= 1e-10:
        failures.append(f"permutation deviation {worst:.2e} >= 1e-10")
    _verdict(acceptance_log, 7, "cross-track-pass-through", failures,
             f"100/100 inputs bit-identical off bar tokens; permutation "
             f"deviation {worst:.2e}")


def test_08_finite_difference_gradients(acceptance_log, vocab):
    cfg = make_config("toy")
    pair = _make_pair(make_song(seed=3, n_bars=2), vocab)
    params = init_params(cfg)
    # generic evaluation point: zero-init blocks have unresolvably tiny
    # gradients, so every parameter block is nudged off the origin
    rng = np.random.default_rng(8)
    for _, p in sorted(params.items()):
        p.data = p.data + rng.normal(0.0, 0.3, p.data.shape)
    report = gradient_check([pair], params, cfg, h=1e-5, coords_per_block=2)
    worst_block = max(report, key=report.get)
    worst = report[worst_block]

    failures = []
    if worst >= 1e-4:
        over = {k: f"{v:.2e}" for k, v in sorted(report.items()) if v >= 1e-4}
        failures.append(f"blocks over 1e-4: {over}")
    _verdict(acceptance_log, 8, "finite-difference-gradients", failures,
             f"{len(report)} parameter blocks, worst rel err {worst:.2e} "
             f"({worst_block})")


def test_09_training_smoke(acceptance_log, trained_toy):
    cfg, pairs, params, history, elapsed = trained_toy
    ln_v = float(np.log(cfg.vocab_size))
    init_loss = mean_loss(pairs, init_params(cfg), cfg)
    final_loss = mean_loss(pairs, params, cfg)
    _, rerun = train_model(pairs, cfg, steps=200)

    failures = []
    if abs(init_loss - ln_v) > 0.1:
        failures.append(f"init loss {init_loss:.3f} not near ln V {ln_v:.3f}")
    if final_loss >= 0.5 * ln_v:
        failures.append(f"loss {final_loss:.3f} >= half of ln V after 200 steps")
    if rerun != history:
        failures.append("rerun with the same seed diverges")
    if elapsed >= 300.0:
        failures.append(f"runtime {elapsed:.0f}s >= 300s")
    _verdict(acceptance_log, 9, "training-smoke", failures,
             f"loss/token {init_loss:.3f} -> {final_loss:.3f} "
             f"(ln V {ln_v:.3f}) in {elapsed:.0f}s, rerun identical")


def test_10_top_k_sampling_contract(acceptance_log, vocab, trained_toy):
    cfg, _, params, _, _ = trained_toy
    k = top_k_count(cfg.vocab_size)
    audit_bad = bars_ok = 0
    for i in range(20):
        ref = make_song(seed=300 + i, n_bars=2)
        grid = quantize_features(extract_expert_features(ref))
        res = generate(grid, params, cfg, vocab, seed=i, t_max=128)
        audit_bad += sum(1 for ev in res.audit if ev.sampled
                         and (len(ev.top_ids) != k or ev.emitted not in ev.top_ids))
        bar_kinds = ("BarNormal", "BarEmpty")
        bars_ok += (detokenize(res.seqs, vocab).n_bars == ref.n_bars
                    and all(sum(vocab.spec_of(t).kind in bar_kinds
                                for t in ids[:n]) == ref.n_bars
                            for ids, n in zip(res.seqs.seqs, res.seqs.lengths)))

    failures = []
    if top_k_count(10000) != 200:
        failures.append(f"k for vocab 10000 is {top_k_count(10000)}, want 200")
    if audit_bad:
        failures.append(f"{audit_bad} sampled tokens outside their top-k")
    if bars_ok != 20:
        failures.append(f"{bars_ok}/20 covers match the reference bar count")
    _verdict(acceptance_log, 10, "top-k-sampling-contract", failures,
             f"k(10000)=200, audit clean, {bars_ok}/20 covers at the "
             f"reference bar count (k={k})")


def test_11_metric_self_identity_and_ranges(acceptance_log, micro_corpus):
    off_identity = 0
    for song in micro_corpus:
        r = evaluate_pair(song, song)
        off_identity += not (r.nde == 0.0 and r.ssmd == 0.0
                             and (r.oap, r.oad, r.oav, r.ccs, r.gcs, r.ca)
                             == (1.0,) * 6)

    rng = np.random.default_rng(11)

    def random_song():
        n_bars = int(rng.integers(1, 5))
        tracks = [Track(inst, [Note(int(rng.integers(0, 128)),
                                    int(rng.integers(0, n_bars * 192)),
                                    int(rng.integers(1, 500)),
                                    int(rng.integers(1, 128)))
                               for _ in range(int(rng.integers(0, 30)))])
                  for inst in ("Piano", "Drum", "Bass") if rng.random() < 0.7]
        return Song(tracks or [Track("Piano", [])], n_bars)

    out_of_range = 0
    for _ in range(1000):
        r = evaluate_pair(random_song(), random_song())
        bounded = (r.oap, r.oad, r.oav, r.ccs, r.gcs, r.ca, r.ssmd)
        out_of_range += not (np.isfinite(r.nde) and r.nde >= 0.0
                             and all(0.0 <= v <= 1.0 for v in bounded))

    failures = []
    if off_identity:
        failures.append(f"{off_identity} songs miss exact self-identity")
    if out_of_range:
        failures.append(f"{out_of_range}/1000 random pairs leave the ranges")
    _verdict(acceptance_log, 11, "metric-self-identity-and-ranges", failures,
             f"{len(micro_corpus)} songs exactly self-identical; 1000 random "
             f"pairs within declared ranges")


def test_12_vq_nearest_neighbor_oracle(acceptance_log):
    rng = np.random.default_rng(12)
    n_codes, n_groups, width = 16, 8, 4
    codebook = rng.normal(size=(n_codes, width))
    z = rng.normal(size=(1000, n_groups * width))
    codes, z_q = quantize_vectors(z, codebook)

    bad = 0
    for i in range(len(z)):
        for g in range(n_groups):
            seg = z[i, g * width:(g + 1) * width]
            best, best_d = 0, np.inf
            for c in range(n_codes):
                d = float(((seg - codebook[c]) ** 2).sum())
                if d < best_d:
                    best, best_d = c, d
            bad += (codes[i, g] != best
                    or not np.array_equal(z_q[i, g * width:(g + 1) * width],
                                          codebook[best]))

    failures = [f"{bad} group assignments differ from the scan"] if bad else []
    _verdict(acceptance_log, 12, "vq-nearest-neighbor-oracle", failures,
             "1000 vectors x 8 groups match the exhaustive scan, K=16")
