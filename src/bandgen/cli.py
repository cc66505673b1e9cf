"""Subcommand front end wiring the pipeline stages together.

preprocess -> tokenize -> bpe-train -> features -> train -> generate ->
evaluate, plus a corpus stats table. Exit codes: 0 ok, 1 usage error,
2 data error, 3 numeric error. Every command writes outputs atomically
(temp file, then rename) and drops a JSON run manifest next to its primary
output, so identical inputs and seed reproduce identical artifacts.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile
import time

import numpy as np

from . import __version__
from .bpe import bpe_encode, dump_merges, learn_bpe, load_merges
from .errors import (BandgenError, DataError, IdOutOfVocab, MissingInput,
                     NumericError, PairMismatch, UsageError)
from .features import (dump_feature_corpus, extract_expert_features,
                       load_feature_corpus, quantize_features)
from .metrics import evaluate_pair, mean_report, report_csv, report_text
from .midi import load_midi_file, write_midi
from .neural.checkpoint import dump_checkpoint, load_checkpoint_file
from .neural.model import check_blocks, make_config, model_spec
from .neural.sampling import K_FRAC, generate
from .neural.training import check_pair, mean_loss, train_model
from .neural.vqvae import assign_codes, train_vqvae, vq_spec
from .score import (Song, compress_instruments, dedupe_corpus, dump_song,
                    filter_song, load_song, quantize_song, split_windows)
from .tokens import (build_track_seqs, build_vocab, corpus_stats, detokenize,
                     dump_token_corpus, dump_vocab, load_token_corpus, load_vocab,
                     tokenize_remi_plus, tokenize_song)

_TEST_FRACTION_MOD = 10  # 1 in 10 songs held out


def _atomic_write(path: str, data) -> None:
    mode = "wb" if isinstance(data, bytes) else "w"
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-")
    try:
        with os.fdopen(fd, mode) as f:
            f.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _manifest(path: str, command: str, inputs: list[str], outputs: list[str],
              seed: int | None, started: float, extra: dict | None = None) -> None:
    doc = {
        "command": command,
        "inputs": sorted(inputs),
        "outputs": sorted(outputs),
        "seed": seed,
        "version": __version__,
        "wall_seconds": round(time.time() - started, 3),
    }
    if extra:
        doc.update(extra)
    _atomic_write(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _step_ms_percentiles(step_seconds: list[float]) -> dict:
    """Median and 90th percentile of generate's per-step wall time, in ms."""
    if not step_seconds:
        return {"step_ms_p50": None, "step_ms_p90": None}
    p50, p90 = np.percentile(1000.0 * np.asarray(step_seconds), [50, 90])
    return {"step_ms_p50": round(float(p50), 3), "step_ms_p90": round(float(p90), 3)}


def _require_dir(path: str, flag: str) -> str:
    if not os.path.isdir(path):
        raise MissingInput(f"{flag}: not a directory: {path}")
    return path


def _require_file(path: str, flag: str) -> str:
    if not os.path.isfile(path):
        raise MissingInput(f"{flag}: no such file: {path}")
    return path


def _read_text(path: str, flag: str) -> str:
    with open(_require_file(path, flag), encoding="utf-8") as f:
        try:
            return f.read()
        except UnicodeDecodeError as e:
            raise DataError(f"{flag}: not UTF-8 text: {path}") from e


def _listdir(path: str, suffixes: tuple[str, ...]) -> list[str]:
    names = sorted(n for n in os.listdir(path)
                   if n.lower().endswith(suffixes))
    return [os.path.join(path, n) for n in names]


def _load_song_dir(path: str, flag: str) -> list[tuple[str, Song]]:
    files = _listdir(_require_dir(path, flag), (".song",))
    if not files:
        raise MissingInput(f"{flag}: no .song files in {path}")
    return [(os.path.splitext(os.path.basename(f))[0],
             load_song(_read_text(f, flag))) for f in files]


def is_test_song(song_id: str) -> bool:
    digest = hashlib.sha1(song_id.encode("utf-8")).digest()
    return digest[-1] % _TEST_FRACTION_MOD == 0


# -- commands --------------------------------------------------------------------


def cmd_preprocess(args) -> int:
    started = time.time()
    midis = _listdir(_require_dir(args.in_dir, "--in"), (".mid", ".midi"))
    if not midis:
        raise MissingInput(f"--in: no .mid files in {args.in_dir}")
    os.makedirs(args.out_dir, exist_ok=True)

    named: list[tuple[str, Song]] = []
    kept = skipped = 0
    for path in midis:
        stem = os.path.splitext(os.path.basename(path))[0]
        song = compress_instruments(quantize_song(load_midi_file(path)))
        verdict = filter_song(song)
        if not verdict.accepted:
            print(f"skip {stem}: {', '.join(verdict.reasons)}", file=sys.stderr)
            skipped += 1
            continue
        kept += 1
        for j, window in enumerate(split_windows(song, args.min_bars,
                                                 args.max_bars, args.stride)):
            named.append((f"{stem}_w{j}", window))

    retained = dedupe_corpus([s for _, s in named])
    keep_ids = {id(s) for s in retained}
    outputs = []
    for name, window in named:
        if id(window) not in keep_ids:
            continue
        out = os.path.join(args.out_dir, f"{name}.song")
        _atomic_write(out, dump_song(window))
        outputs.append(out)
    _manifest(os.path.join(args.out_dir, "preprocess.manifest.json"),
              "preprocess", midis, outputs, None, started,
              {"songs_kept": kept, "songs_skipped": skipped,
               "windows": len(outputs)})
    print(f"{kept} songs kept, {skipped} skipped, {len(outputs)} windows written")
    return 0


def cmd_tokenize(args) -> int:
    started = time.time()
    songs = _load_song_dir(args.in_dir, "--in")
    vocab = build_vocab()
    entries = [(name, tokenize_song(song, vocab).seqs) for name, song in songs]
    _atomic_write(args.out, dump_token_corpus(entries))
    _atomic_write(args.vocab, dump_vocab(vocab))
    _manifest(args.out + ".manifest.json", "tokenize", [args.in_dir],
              [args.out, args.vocab], None, started,
              {"songs": len(entries), "vocab_size": vocab.size})
    print(f"{len(entries)} songs tokenized, vocab size {vocab.size}")
    return 0


def cmd_bpe_train(args) -> int:
    started = time.time()
    corpus = load_token_corpus(_read_text(args.corpus, "--corpus"))
    vocab = load_vocab(_read_text(args.vocab, "--vocab"))
    lists = [ids for _, tracks in corpus for ids in tracks]
    model = learn_bpe(lists, vocab, args.vocab_size)
    _atomic_write(args.out, dump_merges(model))
    _manifest(args.out + ".manifest.json", "bpe-train",
              [args.corpus, args.vocab], [args.out], None, started,
              {"merges": len(model.merges), "vocab_size": model.vocab_size})
    print(f"{len(model.merges)} merges learned, vocab size {model.vocab_size}")
    return 0


def cmd_features(args) -> int:
    started = time.time()
    songs = _load_song_dir(args.in_dir, "--in")
    entries = [(name, quantize_features(extract_expert_features(song)))
               for name, song in songs]
    _atomic_write(args.out, dump_feature_corpus(entries))
    _manifest(args.out + ".manifest.json", "features", [args.in_dir],
              [args.out], None, started, {"songs": len(entries)})
    print(f"{len(entries)} feature grids written")
    return 0


def cmd_train(args) -> int:
    started = time.time()
    corpus = load_token_corpus(_read_text(args.tokens, "--tokens"))
    vocab = load_vocab(_read_text(args.vocab, "--vocab"))
    grids = load_feature_corpus(_read_text(args.features, "--features"))
    if [n for n, _ in corpus] != [n for n, _ in grids]:
        raise PairMismatch("token corpus and feature corpus list different songs")
    for name, tracks in corpus:
        if any(ids and (min(ids) < 0 or max(ids) >= vocab.size) for ids in tracks):
            raise IdOutOfVocab(f"song {name}: a token id outside the vocabulary "
                               f"of {vocab.size}")
    raw_seqs = [build_track_seqs(tracks, vocab) for _, tracks in corpus]
    for seqs, (_, grid) in zip(raw_seqs, grids):
        check_pair(seqs, grid)

    bpe_model = None
    vocab_size = vocab.size
    if args.merges:
        bpe_model = load_merges(_read_text(args.merges, "--merges"),
                                vocab.size)
        vocab_size = bpe_model.vocab_size

    train_ids = [i for i, (name, _) in enumerate(corpus)
                 if not is_test_song(name)]
    test_ids = [i for i, (name, _) in enumerate(corpus) if is_test_song(name)]
    if not train_ids:
        raise DataError("hash split left no training songs")

    cfg = make_config(args.preset, vocab_size=vocab_size, seed=args.seed)

    vq_params, _ = train_vqvae([raw_seqs[i] for i in train_ids], cfg,
                               steps=args.vq_steps, log=print)
    codes = assign_codes(raw_seqs, vq_params)
    pairs = []
    for i, (_, grid) in enumerate(grids):
        grid.vq_entries = codes[i]
        tracks = corpus[i][1]
        if bpe_model is not None:
            tracks = [bpe_encode(ids, bpe_model, vocab) for ids in tracks]
        pairs.append((build_track_seqs(tracks, vocab), grid))

    params, history = train_model([pairs[i] for i in train_ids], cfg,
                                  args.steps, log=print)
    if test_ids:
        held = mean_loss([pairs[i] for i in test_ids], params, cfg)
        print(f"held-out loss/token {held:.4f} over {len(test_ids)} songs")
    params.update(vq_params)
    _atomic_write(args.out, dump_checkpoint(params, cfg))
    _manifest(args.out + ".manifest.json", "train",
              [args.tokens, args.vocab, args.features] +
              ([args.merges] if args.merges else []),
              [args.out], args.seed, started,
              {"steps": args.steps, "preset": args.preset, "dtype": cfg.dtype,
               "train_songs": len(train_ids), "test_songs": len(test_ids),
               "final_loss_per_token": history[-1] if history else None})
    print(f"checkpoint written to {args.out}")
    return 0


def cmd_generate(args) -> int:
    started = time.time()
    params, cfg = load_checkpoint_file(_require_file(args.checkpoint,
                                                     "--checkpoint"))
    # fail on a checkpoint that does not fit its config before reading the rest
    check_blocks(params, model_spec(cfg) |
                 vq_spec(cfg.vocab_size, cfg.d, cfg.codebook_size))
    vocab = load_vocab(_read_text(args.vocab, "--vocab"))
    bpe_model = None
    if args.merges:
        bpe_model = load_merges(_read_text(args.merges, "--merges"),
                                vocab.size)
    expected = bpe_model.vocab_size if bpe_model else vocab.size
    if cfg.vocab_size != expected:
        raise DataError(f"checkpoint vocab {cfg.vocab_size} != "
                        f"{expected} from --vocab/--merges")

    ref = compress_instruments(quantize_song(
        load_midi_file(_require_file(args.reference, "--reference"))))
    verdict = filter_song(ref)
    if not verdict.accepted and not args.no_filter:
        raise DataError(f"reference rejected: {', '.join(verdict.reasons)}")
    if ref.n_bars > cfg.b_max:
        raise DataError(f"reference has {ref.n_bars} bars, model caps at {cfg.b_max}")

    grid = quantize_features(extract_expert_features(ref))
    grid.vq_entries = assign_codes([tokenize_song(ref, vocab)], params)[0]
    result = generate(grid, params, cfg, vocab, bpe_model=bpe_model,
                      seed=args.seed, k_frac=args.k_frac)
    song = detokenize(result.seqs, vocab)

    _atomic_write(args.out, write_midi(song))
    tokens_out = args.out + ".tokens.txt"
    _atomic_write(tokens_out, dump_token_corpus([("generated", result.seqs.seqs)]))
    _manifest(args.out + ".manifest.json", "generate",
              [args.checkpoint, args.vocab, args.reference] +
              ([args.merges] if args.merges else []),
              [args.out, tokens_out], args.seed, started,
              {"dtype": cfg.dtype, "bars": song.n_bars, "repairs": result.repairs,
               "tokens_generated": result.tokens_generated,
               "tokens_per_second": (result.tokens_generated /
                                     result.wall_seconds
                                     if result.wall_seconds > 0 else None),
               **_step_ms_percentiles(result.step_seconds)})
    print(f"generated {song.n_bars} bars -> {args.out} "
          f"({result.tokens_generated} tokens, {result.repairs} repairs)")
    return 0


def cmd_evaluate(args) -> int:
    started = time.time()
    refs = _listdir(_require_dir(args.ref_dir, "--ref"), (".mid", ".midi"))
    if not refs:
        raise MissingInput(f"--ref: no .mid files in {args.ref_dir}")
    rows = []
    for ref_path in refs:
        name = os.path.basename(ref_path)
        cov_path = os.path.join(args.cov_dir, name)
        if not os.path.isfile(cov_path):
            raise PairMismatch(f"no cover for {name} in {args.cov_dir}")
        ref = quantize_song(load_midi_file(ref_path))
        cov = quantize_song(load_midi_file(cov_path))
        rows.append((os.path.splitext(name)[0], evaluate_pair(ref, cov)))
    _atomic_write(args.out, report_csv(rows))
    _manifest(args.out + ".manifest.json", "evaluate",
              [args.ref_dir, args.cov_dir], [args.out], None, started,
              {"pairs": len(rows)})
    print(report_text(mean_report([r for _, r in rows])), end="")
    return 0


_REPRESENTATIONS = ("remi_track", "remi_plus", "remi_track_bpe", "remi_plus_bpe")


def cmd_stats(args) -> int:
    songs = _load_song_dir(args.in_dir, "--in")
    reps = [r.strip() for r in args.reps.split(",") if r.strip()]
    for rep in reps:
        if rep not in _REPRESENTATIONS:
            raise UsageError(f"unknown representation {rep!r}; "
                             f"choose from {', '.join(_REPRESENTATIONS)}")
    bpe_model = None
    if any(rep.endswith("_bpe") for rep in reps):
        if not args.merges:
            raise UsageError("bpe representations need --merges")
        bpe_model = load_merges(_read_text(args.merges, "--merges"),
                                build_vocab().size)

    vocab = build_vocab()
    notes = [song.note_count() for _, song in songs]
    beats = [song.n_bars * 4 for _, song in songs]
    header = f"{'representation':<16} {'voc':>6} {'tok/beat':>9} " \
             f"{'tok/note':>9} {'avg_len':>9} {'songs':>6}"
    print(header)
    for rep in reps:
        if rep.startswith("remi_track"):
            corpus: list = [tokenize_song(song, vocab) for _, song in songs]
        else:
            corpus = [tokenize_remi_plus(song, vocab) for _, song in songs]
        voc = vocab.size
        if rep.endswith("_bpe"):
            voc = bpe_model.vocab_size
            if rep.startswith("remi_track"):
                corpus = [build_track_seqs(
                    [bpe_encode(s.seqs[t][:s.lengths[t]], bpe_model, vocab)
                     for t in range(s.n_tracks)], vocab) for s in corpus]
            else:
                corpus = [bpe_encode(ids, bpe_model, vocab) for ids in corpus]
        st = corpus_stats(corpus, notes, beats, voc)
        print(f"{rep:<16} {st.voc_size:>6} {st.tok_per_beat:>9.2f} "
              f"{st.tok_per_note:>9.2f} {st.avg_len:>9.2f} {st.n_songs:>6}")
    return 0


# -- parser ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bandgen",
        description="steerable multitrack music generation pipeline")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("preprocess", help="MIDI dir -> filtered song windows")
    p.add_argument("--in", dest="in_dir", required=True)
    p.add_argument("--out", dest="out_dir", required=True)
    p.add_argument("--min-bars", type=int, default=16)
    p.add_argument("--max-bars", type=int, default=16)
    p.add_argument("--stride", type=int, default=8)
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("tokenize", help="song dir -> token corpus + vocab")
    p.add_argument("--in", dest="in_dir", required=True)
    p.add_argument("--out", required=True, help="token corpus file")
    p.add_argument("--vocab", required=True, help="vocab file to write")
    p.set_defaults(func=cmd_tokenize)

    p = sub.add_parser("bpe-train", help="learn merges over a token corpus")
    p.add_argument("--corpus", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--vocab-size", type=int, default=10000)
    p.add_argument("--out", required=True, help="merge file to write")
    p.set_defaults(func=cmd_bpe_train)

    p = sub.add_parser("features", help="song dir -> binned feature grids")
    p.add_argument("--in", dest="in_dir", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_features)

    p = sub.add_parser("train", help="fit the conditional model")
    p.add_argument("--tokens", required=True, help="raw token corpus")
    p.add_argument("--vocab", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--merges", help="optional merge file; model then trains "
                                    "on the merged vocabulary")
    p.add_argument("--out", required=True, help="checkpoint file")
    p.add_argument("--preset", choices=("toy", "paper"), default="toy")
    p.add_argument("--steps", type=int, default=200)
    p.add_argument("--vq-steps", type=int, default=60)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("generate", help="cover a reference piece")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--merges")
    p.add_argument("--reference", required=True, help="reference .mid")
    p.add_argument("--out", required=True, help="output .mid")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--k-frac", type=float, default=K_FRAC)
    p.add_argument("--no-filter", action="store_true",
                   help="accept references that fail corpus quality rules")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("evaluate", help="pairwise fidelity metrics over dirs")
    p.add_argument("--ref", dest="ref_dir", required=True)
    p.add_argument("--cov", dest="cov_dir", required=True)
    p.add_argument("--out", required=True, help="CSV report")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("stats", help="token statistics table")
    p.add_argument("--in", dest="in_dir", required=True)
    p.add_argument("--reps", default="remi_track,remi_plus",
                   help="comma list: " + ", ".join(_REPRESENTATIONS))
    p.add_argument("--merges")
    p.set_defaults(func=cmd_stats)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 0 if e.code in (0, None) else 1
    try:
        return args.func(args)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except NumericError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except BandgenError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
