"""End-to-end command-line pipeline on a synthetic MIDI corpus."""

import json
import os
import shutil

import numpy as np
import pytest

from bandgen import cli
from bandgen.cli import is_test_song, main
from bandgen.midi import load_midi_file, save_midi_file
from bandgen.neural.autograd import Tensor
from bandgen.neural.checkpoint import load_checkpoint_file, save_checkpoint_file
from bandgen.features import (dump_feature_corpus, extract_expert_features,
                              quantize_features)
from bandgen.score import Song, Track, dump_song
from bandgen.synth import make_song
from bandgen.tokens import (build_vocab, dump_token_corpus, dump_vocab,
                            load_token_corpus, load_vocab, tokenize_song)


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    """Run the whole pipeline once; tests inspect the artifacts."""
    root = tmp_path_factory.mktemp("cli")
    midi_dir = root / "midis"
    midi_dir.mkdir()
    for i in range(3):
        save_midi_file(make_song(seed=20 + i, n_bars=40),
                       str(midi_dir / f"s{i}.mid"))

    songs = root / "songs"
    assert main(["preprocess", "--in", str(midi_dir), "--out", str(songs),
                 "--min-bars", "4", "--max-bars", "4", "--stride", "8"]) == 0

    tokens = root / "tokens.txt"
    vocab_file = root / "vocab.txt"
    assert main(["tokenize", "--in", str(songs), "--out", str(tokens),
                 "--vocab", str(vocab_file)]) == 0

    merges = root / "merges.txt"
    assert main(["bpe-train", "--corpus", str(tokens), "--vocab",
                 str(vocab_file), "--vocab-size", "312",
                 "--out", str(merges)]) == 0

    feats = root / "features.txt"
    assert main(["features", "--in", str(songs), "--out", str(feats)]) == 0

    ckpt = root / "model.ckpt"
    assert main(["train", "--tokens", str(tokens), "--vocab", str(vocab_file),
                 "--features", str(feats), "--out", str(ckpt),
                 "--steps", "2", "--vq-steps", "2", "--seed", "0"]) == 0

    ref_mid = root / "ref.mid"
    save_midi_file(make_song(seed=99, n_bars=2), str(ref_mid))
    out_mid = root / "cover.mid"
    assert main(["generate", "--checkpoint", str(ckpt), "--vocab",
                 str(vocab_file), "--reference", str(ref_mid),
                 "--out", str(out_mid), "--seed", "1", "--no-filter"]) == 0

    refs = root / "refs"
    covs = root / "covs"
    refs.mkdir()
    covs.mkdir()
    for i in range(2):
        p = refs / f"p{i}.mid"
        save_midi_file(make_song(seed=40 + i, n_bars=2), str(p))
        shutil.copy(p, covs / p.name)
    report = root / "report.csv"
    assert main(["evaluate", "--ref", str(refs), "--cov", str(covs),
                 "--out", str(report)]) == 0

    return root


def test_preprocess_writes_windows_and_manifest(work):
    songs = work / "songs"
    names = sorted(os.listdir(songs))
    windows = [n for n in names if n.endswith(".song")]
    assert len(windows) >= 9
    assert all("_w" in n for n in windows)
    manifest = json.loads((songs / "preprocess.manifest.json").read_text())
    assert manifest["command"] == "preprocess"
    assert manifest["songs_kept"] == 3
    assert manifest["windows"] == len(windows)


def test_no_temp_files_left_anywhere(work):
    for dirpath, _, filenames in os.walk(work):
        for name in filenames:
            assert not name.startswith(".tmp-"), os.path.join(dirpath, name)


def test_tokenize_outputs_round_trip(work):
    corpus = load_token_corpus((work / "tokens.txt").read_text())
    vocab = load_vocab((work / "vocab.txt").read_text())
    assert vocab.size == 282
    assert len(corpus) >= 9
    for name, tracks in corpus:
        assert len(tracks) == 4
        assert all(t < vocab.size for ids in tracks for t in ids)


def test_bpe_manifest_reports_merges(work):
    manifest = json.loads((work / "merges.txt.manifest.json").read_text())
    assert manifest["vocab_size"] == 312
    assert manifest["merges"] == 30


def test_train_manifest_and_checkpoint(work):
    params, cfg = load_checkpoint_file(str(work / "model.ckpt"))
    assert cfg.vocab_size == 282  # trained without --merges
    assert "vq_codebook" in params and "te" in params
    manifest = json.loads((work / "model.ckpt.manifest.json").read_text())
    assert manifest["seed"] == 0
    assert manifest["steps"] == 2
    assert (manifest["preset"], manifest["dtype"]) == ("toy", "float64")
    assert manifest["final_loss_per_token"] > 0


def test_generate_outputs(work):
    out = work / "cover.mid"
    song = load_midi_file(str(out))
    assert song.tracks
    tokens_text = (out.with_suffix(".mid.tokens.txt")).read_text()
    assert tokens_text.startswith("#SONG")
    manifest = json.loads((work / "cover.mid.manifest.json").read_text())
    assert manifest["bars"] == 2
    assert manifest["dtype"] == "float64"
    assert manifest["tokens_generated"] > 0
    assert 0 < manifest["step_ms_p50"] <= manifest["step_ms_p90"]


def test_evaluate_report_is_perfect_for_copies(work):
    lines = (work / "report.csv").read_text().splitlines()
    assert lines[0].startswith("pair,")
    assert len(lines) == 4
    assert lines[-1].startswith("MEAN,")
    header = lines[0].split(",")
    mean = dict(zip(header, lines[-1].split(",")))
    assert float(mean["nde"]) == 0.0
    assert float(mean["oap"]) == 1.0
    assert float(mean["ca"]) == 1.0


def test_rerun_is_byte_identical(work, tmp_path):
    tokens2 = tmp_path / "tokens2.txt"
    vocab2 = tmp_path / "vocab2.txt"
    assert main(["tokenize", "--in", str(work / "songs"), "--out",
                 str(tokens2), "--vocab", str(vocab2)]) == 0
    assert tokens2.read_bytes() == (work / "tokens.txt").read_bytes()
    assert vocab2.read_bytes() == (work / "vocab.txt").read_bytes()


def test_stats_table(work, capsys):
    assert main(["stats", "--in", str(work / "songs"),
                 "--reps", "remi_track,remi_plus,remi_track_bpe",
                 "--merges", str(work / "merges.txt")]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].split()[:2] == ["representation", "voc"]
    assert len(out) == 4
    assert out[1].split()[0] == "remi_track"
    assert out[3].split()[1] == "312"


def test_stats_bpe_without_merges_is_usage_error(work):
    assert main(["stats", "--in", str(work / "songs"),
                 "--reps", "remi_track_bpe"]) == 1


def test_stats_unknown_representation(work):
    assert main(["stats", "--in", str(work / "songs"),
                 "--reps", "remi_weird"]) == 1


# -- error paths -------------------------------------------------------------------


def test_missing_input_dir_is_usage_error(tmp_path):
    assert main(["preprocess", "--in", str(tmp_path / "nope"),
                 "--out", str(tmp_path / "out")]) == 1


def test_empty_song_dir_is_usage_error(tmp_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["tokenize", "--in", str(empty), "--out",
                 str(tmp_path / "t.txt"), "--vocab",
                 str(tmp_path / "v.txt")]) == 1


def _garbage_case(kind: str, work, tmp_path) -> tuple[bytes, list[str]]:
    """A malformed file of one kind, and the command line that reads it."""
    bad = str(tmp_path / "bad.song")
    vocab, out = str(work / "vocab.txt"), str(tmp_path / "out")
    ckpt = (work / "model.ckpt").read_bytes()
    feats = (work / "features.txt").read_bytes()
    specs = (work / "vocab.txt").read_bytes().split(b"\n")
    # ids stay dense, but two kind:value entries trade places
    swapped = specs[:3] + [b"3 " + specs[4].split()[1],
                           b"4 " + specs[3].split()[1]] + specs[5:]
    first_cell = feats.index(b"\nF ") + 1
    bpe = ["bpe-train", "--corpus", str(work / "tokens.txt"), "--vocab", vocab,
           "--vocab-size", "300", "--out", out]
    train = ["train", "--tokens", str(work / "tokens.txt"), "--vocab", vocab,
             "--features", str(work / "features.txt"), "--out", out,
             "--steps", "1", "--vq-steps", "1"]
    tokenize = ["tokenize", "--in", str(tmp_path), "--out", out,
                "--vocab", str(tmp_path / "v.txt")]
    generate = ["generate", "--checkpoint", str(work / "model.ckpt"),
                "--vocab", vocab, "--reference", str(work / "ref.mid"),
                "--out", out, "--no-filter"]
    cases = {
        "corpus_header": (b"not a corpus\n", bpe[:2] + [bad] + bpe[3:]),
        "corpus_ids": (b"#SONG a\n3 1 x 2\n", bpe[:2] + [bad] + bpe[3:]),
        "corpus_utf8": (b"#SONG a\n3 \xff 2\n", bpe[:2] + [bad] + bpe[3:]),
        "corpus_song_header": (b"#SONG\n3 1 2\n", bpe[:2] + [bad] + bpe[3:]),
        "vocab": (b"0 Pad\n", bpe[:4] + [bad] + bpe[5:]),
        "vocab_layout": (b"\n".join(swapped), bpe[:4] + [bad] + bpe[5:]),
        "vocab_value": (b"\n".join(specs[:20] + [b"20 Pitch:999"] + specs[21:]),
                        bpe[:4] + [bad] + bpe[5:]),
        "merges": (b"282 1 q\n", generate + ["--merges", bad]),
        "features": (b"#SONG a\nGRID n_bars=zz\n", train[:6] + [bad] + train[7:]),
        "features_header": (feats.replace(b"#SONG ", b"#SONG \n#SONG ", 1),
                            train[:6] + [bad] + train[7:]),
        "features_cells": (feats[:first_cell] + feats[feats.index(b"\n", first_cell) + 1:],
                           train[:6] + [bad] + train[7:]),
        "song": (b"SONG n_bars=1\nT0 Piano 0 x 1 1\n", tokenize),
        "song_utf8": (b"SONG n_bars=1\nT0 Pi\xffno\n", tokenize),
        "checkpoint_config": (ckpt.replace(b"d = 32\n", b"d = xx\n", 1),
                              generate[:2] + [bad] + generate[3:]),
        "checkpoint_utf8": (ckpt.replace(b"d = 32\n", b"d = \xff2\n", 1),
                            generate[:2] + [bad] + generate[3:]),
    }
    return cases[kind]


@pytest.mark.parametrize("kind", ["corpus_header", "corpus_ids", "corpus_utf8",
                                  "corpus_song_header", "vocab", "vocab_layout",
                                  "vocab_value", "merges", "features",
                                  "features_header", "features_cells", "song",
                                  "song_utf8", "checkpoint_config",
                                  "checkpoint_utf8"])
def test_garbage_corpus_is_data_error(tmp_path, work, kind):
    data, argv = _garbage_case(kind, work, tmp_path)
    (tmp_path / "bad.song").write_bytes(data)
    assert main(argv) == 2


def test_failed_rename_leaves_no_output(tmp_path, work, monkeypatch):
    """preprocess, train and generate write through a temp file and a
    rename, so a failed write leaves neither a partial output nor a temp."""
    def refuse(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr(os, "replace", refuse)
    songs = tmp_path / "songs"
    assert main(["preprocess", "--in", str(work / "midis"), "--out", str(songs),
                 "--min-bars", "4", "--max-bars", "4", "--stride", "8"]) == 1
    assert os.listdir(songs) == []
    assert main(["train", "--tokens", str(work / "tokens.txt"),
                 "--vocab", str(work / "vocab.txt"),
                 "--features", str(work / "features.txt"),
                 "--out", str(tmp_path / "m.ckpt"), "--steps", "1",
                 "--vq-steps", "1"]) == 1
    assert main(["generate", "--checkpoint", str(work / "model.ckpt"),
                 "--vocab", str(work / "vocab.txt"),
                 "--reference", str(work / "ref.mid"),
                 "--out", str(tmp_path / "cover.mid"), "--no-filter"]) == 1
    assert os.listdir(tmp_path) == ["songs"]


def test_negative_seed_is_rejected(tmp_path, work):
    assert main(["train", "--tokens", str(work / "tokens.txt"),
                 "--vocab", str(work / "vocab.txt"),
                 "--features", str(work / "features.txt"),
                 "--out", str(tmp_path / "m.ckpt"), "--steps", "1",
                 "--vq-steps", "1", "--seed", "-1"]) == 2
    for bad in (["--seed", "-1"], ["--k-frac", "nan"]):
        assert main(["generate", "--checkpoint", str(work / "model.ckpt"),
                     "--vocab", str(work / "vocab.txt"),
                     "--reference", str(work / "ref.mid"),
                     "--out", str(tmp_path / "cover.mid"), "--no-filter",
                     *bad]) == 1
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("flag", ["--steps", "--vq-steps"])
def test_negative_steps_are_a_usage_error(tmp_path, work, flag):
    steps = {"--steps": "1", "--vq-steps": "1", flag: "-1"}
    assert main(["train", "--tokens", str(work / "tokens.txt"),
                 "--vocab", str(work / "vocab.txt"),
                 "--features", str(work / "features.txt"),
                 "--out", str(tmp_path / "m.ckpt"),
                 *[x for kv in steps.items() for x in kv]]) == 1
    assert os.listdir(tmp_path) == []


def test_mismatched_corpora_is_data_error(tmp_path, work):
    feats = tmp_path / "wrong.txt"
    text = (work / "features.txt").read_text()
    feats.write_text(text.replace("#SONG ", "#SONG renamed_", 1))
    assert main(["train", "--tokens", str(work / "tokens.txt"),
                 "--vocab", str(work / "vocab.txt"), "--features", str(feats),
                 "--out", str(tmp_path / "m.ckpt"), "--steps", "1",
                 "--vq-steps", "1"]) == 2


def test_train_checks_pairs_before_vq_training(tmp_path, monkeypatch):
    """2-bar token files against same-named 4-bar grids fail on the pair
    rule before any VQ-VAE training is spent on them."""
    for bars in (2, 4):
        d = tmp_path / f"bars{bars}"
        d.mkdir()
        for i in range(4):
            (d / f"s{i}.song").write_text(dump_song(make_song(seed=60 + i,
                                                              n_bars=bars)))
    tokens, vocab = tmp_path / "tokens.txt", tmp_path / "vocab.txt"
    feats = tmp_path / "features.txt"
    assert main(["tokenize", "--in", str(tmp_path / "bars2"), "--out",
                 str(tokens), "--vocab", str(vocab)]) == 0
    assert main(["features", "--in", str(tmp_path / "bars4"),
                 "--out", str(feats)]) == 0

    def no_vq(*args, **kwargs):
        raise AssertionError("VQ-VAE trained before the pairs were checked")

    monkeypatch.setattr(cli, "train_vqvae", no_vq)
    assert main(["train", "--tokens", str(tokens), "--vocab", str(vocab),
                 "--features", str(feats), "--out", str(tmp_path / "m.ckpt"),
                 "--steps", "1"]) == 2
    assert not (tmp_path / "m.ckpt").exists()


def test_train_rejects_five_tracks_before_vq_training(tmp_path, monkeypatch):
    """Songs with a fifth track, aligned with their grids, fail on the pair
    rule before any VQ-VAE training is spent on them."""
    songs = tmp_path / "songs"
    songs.mkdir()
    for i in range(4):
        song = make_song(seed=60 + i, n_bars=2)
        song.tracks.append(song.tracks[1])
        (songs / f"s{i}.song").write_text(dump_song(song))
    tokens, vocab = tmp_path / "tokens.txt", tmp_path / "vocab.txt"
    feats = tmp_path / "features.txt"
    assert main(["tokenize", "--in", str(songs), "--out", str(tokens),
                 "--vocab", str(vocab)]) == 0
    assert main(["features", "--in", str(songs), "--out", str(feats)]) == 0

    def no_vq(*args, **kwargs):
        raise AssertionError("VQ-VAE trained before the pairs were checked")

    monkeypatch.setattr(cli, "train_vqvae", no_vq)
    assert main(["train", "--tokens", str(tokens), "--vocab", str(vocab),
                 "--features", str(feats), "--out", str(tmp_path / "m.ckpt"),
                 "--steps", "1"]) == 2
    assert not (tmp_path / "m.ckpt").exists()


@pytest.mark.parametrize("case", ["zero_bars", "no_tracks", "reversed_tracks",
                                  "id_past_vocab", "negative_id"])
def test_train_rejects_unusable_pairs_before_vq_training(tmp_path, monkeypatch,
                                                         case):
    """A song without bars or without tracks, token tracks in another order
    than the grid's, or a token id outside the vocabulary fails before any
    VQ-VAE training is spent on it."""
    vocab = build_vocab()
    songs = [make_song(seed=60 + i, n_bars=2) for i in range(4)]
    if case == "zero_bars":
        songs[1] = Song([Track("Drum", []), Track("Piano", [])], 0)
    elif case == "no_tracks":
        songs[1] = Song([], 2)
    token_lists = [[ids[:n] for ids, n in zip(seqs.seqs, seqs.lengths)]
                   for seqs in (tokenize_song(song, vocab) for song in songs)]
    if case == "reversed_tracks":
        token_lists[1].reverse()
    elif case in ("id_past_vocab", "negative_id"):
        token_lists[1][1].insert(2, vocab.size + 5 if case == "id_past_vocab" else -3)
    names = [f"s{i}" for i in range(len(songs))]
    tokens, vocab_file = tmp_path / "tokens.txt", tmp_path / "vocab.txt"
    feats = tmp_path / "features.txt"
    tokens.write_text(dump_token_corpus(list(zip(names, token_lists))))
    vocab_file.write_text(dump_vocab(vocab))
    feats.write_text(dump_feature_corpus(
        [(name, quantize_features(extract_expert_features(song)))
         for name, song in zip(names, songs)]))

    def no_vq(*args, **kwargs):
        raise AssertionError("VQ-VAE trained before the pairs were checked")

    monkeypatch.setattr(cli, "train_vqvae", no_vq)
    assert main(["train", "--tokens", str(tokens), "--vocab", str(vocab_file),
                 "--features", str(feats), "--out", str(tmp_path / "m.ckpt"),
                 "--steps", "1"]) == 2
    assert not (tmp_path / "m.ckpt").exists()


def test_preprocess_stride_zero_is_usage_error(tmp_path, work):
    assert main(["preprocess", "--in", str(work / "midis"), "--out",
                 str(tmp_path / "songs"), "--min-bars", "4", "--max-bars", "4",
                 "--stride", "0"]) == 1


def test_generate_vocab_mismatch_is_data_error(tmp_path, work):
    assert main(["generate", "--checkpoint", str(work / "model.ckpt"),
                 "--vocab", str(work / "vocab.txt"),
                 "--merges", str(work / "merges.txt"),
                 "--reference", str(work / "ref.mid"),
                 "--out", str(tmp_path / "x.mid")]) == 2


@pytest.mark.parametrize("damage", ["no_vq_blocks", "misshapen_te"])
def test_generate_checks_checkpoint_blocks(tmp_path, work, damage):
    """A checkpoint whose blocks do not fit its config (the model-only file
    `train_model` params make, or a table of the wrong shape) is a data
    error, not a traceback from inside the sampler."""
    params, cfg = load_checkpoint_file(str(work / "model.ckpt"))
    if damage == "no_vq_blocks":
        params = {k: p for k, p in params.items() if not k.startswith("vq_")}
    else:
        params["te"] = Tensor(np.zeros((5, 7)), requires_grad=True)
    bad = tmp_path / "bad.ckpt"
    save_checkpoint_file(str(bad), params, cfg)
    assert main(["generate", "--checkpoint", str(bad),
                 "--vocab", str(work / "vocab.txt"),
                 "--reference", str(work / "ref.mid"),
                 "--out", str(tmp_path / "x.mid"), "--no-filter"]) == 2
    assert os.listdir(tmp_path) == ["bad.ckpt"]


def test_generate_filter_rejects_short_reference(tmp_path, work):
    assert main(["generate", "--checkpoint", str(work / "model.ckpt"),
                 "--vocab", str(work / "vocab.txt"),
                 "--reference", str(work / "ref.mid"),
                 "--out", str(tmp_path / "x.mid")]) == 2


def test_unknown_subcommand(capsys):
    assert main(["frobnicate"]) == 1
    capsys.readouterr()


def test_help_and_version_exit_zero(capsys):
    assert main(["--help"]) == 0
    assert main(["--version"]) == 0
    capsys.readouterr()


def test_is_test_song_split_is_stable_and_sparse():
    ids = [f"song_{i}_w{j}" for i in range(200) for j in range(5)]
    flags = [is_test_song(s) for s in ids]
    assert flags == [is_test_song(s) for s in ids]
    frac = sum(flags) / len(flags)
    assert 0.05 < frac < 0.15
