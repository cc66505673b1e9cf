"""Seeded inputs, the three stages of bandgen's pipeline, and the workloads.

A workload is one caller running one iteration after another until its time
is up. One iteration runs the three stages in turn, each under its own root
spans: corpus passes (MIDI to windows, tokens, BPE, features, metrics), a
train path (VQ-VAE, toy training, checkpoint dump, one paper-preset step)
and a cover (the `bandgen generate` library path). Workloads differ only in
the `Shape` of their inputs, so every workload reports every metric.
`setup` builds the inputs from the seed; each stage times its block, then
checks its outputs outside the timed region; `end_to_end` and `per_layer`
turn the iteration records and the recorded spans into metrics.

bandgen is called through module attributes (`midi.parse_midi`, ...) so the
tracer's wrappers see the benchmark's calls as well as bandgen's own.
"""

from __future__ import annotations

import math
import statistics
import time
from collections import Counter
from contextlib import nullcontext
from typing import NamedTuple

import numpy as np

from bandgen import bpe, features, metrics, midi, score, synth, tokens
from bandgen.neural import checkpoint, model, optim, sampling, training, vqvae

from tracing import Span, SpanIndex

_SONG_SEED_LIMIT = 2**31 - 1


# -- machine-speed probe ----------------------------------------------------------
#
# Shared cloud hosts change speed under the benchmark. On the 2-vCPU VM this
# benchmark was tuned on, the probe kernel below takes about 4 ms in the fast
# state and 6-7 ms in the slow one. Short slow spells come every few seconds,
# and the host can also stay mostly slow for minutes. Raw medians of whole
# runs spread by up to 37%. So the kernel (interpreter-bound dict and sort
# work plus small matmuls, no bandgen code) is timed before and after every
# timed block, and timings are converted to seconds at the speed where the
# kernel takes PROBE_REF_S (`reference_median`):
#
# - a block shorter than a slow spell (median under SHORT_BLOCK_S: a set-up,
#   the corpus blocks, a short cover) is multiplied by PROBE_REF_S over the
#   mean of the two probes right around it;
# - a longer block (a long cover, a train path, a paper step) outlasts speed
#   switches that its own two probes do not see, so it is multiplied by one
#   factor per run: PROBE_REF_S over the run's mean probe time.

PROBE_REF_S = 0.004
SHORT_BLOCK_S = 0.6
_PROBE_MATRIX = np.random.default_rng(0).standard_normal((96, 96))
_probe_times: list[float] = []


def _probe_kernel() -> None:
    counts: dict[int, int] = {}
    for i in range(15000):
        k = (i * 7919) % 1009
        counts[k] = counts.get(k, 0) + i
    sorted(counts.items(), key=lambda kv: -kv[1])
    a = _PROBE_MATRIX
    for _ in range(60):
        a = (a @ _PROBE_MATRIX) * 0.01


def probe() -> float:
    """Time the probe kernel now (best of three runs), log and return it."""
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        _probe_kernel()
        best = min(best, time.perf_counter() - t0)
    _probe_times.append(best)
    return best


def block_scale(before: float, after: float) -> float:
    """Reference seconds per measured second for a block between two probes."""
    return 2 * PROBE_REF_S / (before + after)


def take_speed_scale() -> tuple[float, list[float]]:
    """(reference seconds per measured second, the probe times) over the
    probes logged since the last call; clears the log."""
    times = _probe_times[:]
    _probe_times.clear()
    return PROBE_REF_S / statistics.fmean(times), times


def reference_median(records: list[dict], key: str, scale: float | None) -> float:
    """Median time of block `key` over the records, in reference seconds:
    scaled by each block's own probes if the median block is short, else by
    the run's `scale`. With `scale` None, in measured seconds."""
    measured = statistics.median(r[key] for r in records)
    if scale is None:
        return measured
    if measured < SHORT_BLOCK_S:
        return statistics.median(r[key] * r["block_scale"][key] for r in records)
    return scale * measured


def _song_seeds(seed: int, tag: int, n: int) -> list[int]:
    rng = np.random.default_rng([seed, tag])
    return [int(s) for s in rng.integers(0, _SONG_SEED_LIMIT, n)]


def _root(tracer, name: str):
    return tracer.span(name) if tracer is not None else nullcontext()


def _named(spans: list[Span], name: str) -> list[Span]:
    return [s for s in spans if s.name == name]


def _total_ms(spans: list[Span], name: str) -> float:
    return 1000.0 * sum(s.duration for s in spans if s.name == name)


def _per_call_ms(spans: list[Span], name: str) -> float:
    calls = _named(spans, name)
    if not calls:
        raise LookupError(f"no {name!r} spans on the measured path")
    return _total_ms(calls, name) / len(calls)


_STAGES = ("embed_conditions", "encode_features", "bar_similarity",
           "expand_similarity", "embed_tokens", "bottom_decode", "ctt",
           "top_decode", "project_logits")
_GRID_ONLY = ("embed_conditions", "encode_features", "bar_similarity")


def _model_metrics(index: SpanIndex, spans: list[Span], per_unit: int) -> dict:
    """model.* per forward call; forward_calls per unit of work."""
    fwd = _named(spans, "model.forward")
    n = len(fwd)
    out = {"model.forward_ms": _total_ms(fwd, "model.forward") / n,
           "model.forward_calls": n / per_unit}
    for stage in _STAGES:
        out[f"model.{stage}_ms"] = _total_ms(spans, f"model.{stage}") / n
    out["model.forward_residual_ms"] = 1000.0 * sum(
        index.self_time(s) for s in fwd) / n
    grid_only = sum(out[f"model.{s}_ms"] for s in _GRID_ONLY)
    out["model.grid_only_share"] = grid_only / out["model.forward_ms"]
    return out


def _feature_grid(song) -> features.FeatureGrid:
    return features.quantize_features(features.extract_expert_features(song))


def _same_arrays(a: dict, b: dict) -> bool:
    return (sorted(a) == sorted(b)
            and all(a[k].data.dtype == b[k].data.dtype
                    and a[k].data.shape == b[k].data.shape
                    and a[k].data.tobytes() == b[k].data.tobytes() for k in a))


def layer_unit(name: str) -> str:
    """Unit of a per-layer metric, read off its name."""
    if name.endswith("_pct"):
        return "%"
    if "_ms" in name:
        return "ms"
    if name.endswith(("_share", "_used")):
        return "ratio"
    return "count"


class Shape(NamedTuple):
    """Input sizes of one workload."""

    cover_bars: int                 # reference length
    t_max: int                      # generate length cap
    train_bars: tuple[int, int]     # training-song lengths, alternating
    steps: int                      # VQ-VAE and toy steps (the self-tests lower it)
    corpus_bars: int                # corpus song length (filter_song needs > 16)


SHAPES = {
    "long": Shape(cover_bars=16, t_max=256, train_bars=(2, 4), steps=10,
                  corpus_bars=40),
    "short": Shape(cover_bars=4, t_max=64, train_bars=(1, 2), steps=10,
                   corpus_bars=24),
}


# -- cover ---------------------------------------------------------------------


MODEL_SEED = 0          # init_params / init_vq_params seed
GENERATE_SEED = 0       # the `bandgen generate` default


class Cover:
    """The `bandgen generate` library path, one cover of the same reference
    per iteration. Every cover samples with the same seed, so from the
    second one on each must repeat the first one's ids exactly."""

    def __init__(self, seed: int, shape: Shape):
        self.seed = seed
        self.shape = shape
        self.first_ids: list[list[int]] | None = None

    def inputs(self) -> bytes:
        """The reference MIDI file, a function of the seed alone."""
        [song_seed] = _song_seeds(self.seed, 1, 1)
        return midi.write_midi(synth.make_song(song_seed, n_bars=self.shape.cover_bars))

    def setup(self) -> None:
        self.vocab = tokens.build_vocab()
        cfg = model.make_config("toy", vocab_size=self.vocab.size,
                                seed=MODEL_SEED)
        params = model.init_params(cfg)
        params.update(vqvae.init_vq_params(cfg))
        self.blob = checkpoint.dump_checkpoint(params, cfg)
        self.ref = self.inputs()

    def run(self, tracer) -> dict:
        vocab = self.vocab
        p0 = probe()
        with _root(tracer, "cover"):
            t0 = time.perf_counter()
            params, cfg = checkpoint.load_checkpoint(self.blob)
            ref = score.compress_instruments(score.quantize_song(
                midi.parse_midi(self.ref)))
            score.filter_song(ref)
            grid = _feature_grid(ref)
            grid.vq_entries = vqvae.assign_codes(
                [tokens.tokenize_song(ref, vocab)], params)[0]
            t1 = time.perf_counter()
            result = sampling.generate(grid, params, cfg, vocab, seed=GENERATE_SEED,
                                       t_max=self.shape.t_max)
            t2 = time.perf_counter()
            song = tokens.detokenize(result.seqs, vocab)
            midi.write_midi(song)
            metrics.evaluate_pair(ref, song)
            t3 = time.perf_counter()
        scale = block_scale(p0, probe())

        problems = []
        if song.n_bars != ref.n_bars:
            problems.append(f"cover has {song.n_bars} bars, reference {ref.n_bars}")
        if self.first_ids is None:
            self.first_ids = result.raw_lists
        elif result.raw_lists != self.first_ids:
            problems.append("same-seed generate changed its ids")
        if checkpoint.dump_checkpoint(params, cfg) != self.blob:
            problems.append("checkpoint load -> dump is not bit-exact")
        return {"problems": problems, "cover_s": t3 - t0, "gen_s": t2 - t1,
                "block_scale": {"cover_s": scale, "gen_s": scale},
                "emitted": result.tokens_generated, "repairs": result.repairs}

    def end_to_end(self, records: list[dict], scale: float | None) -> dict:
        # every cover emits the same tokens with the same repairs
        first = records[0]
        return {
            "cover_s": (reference_median(records, "cover_s", scale), "s"),
            "cover_tok_per_s": (first["emitted"] / reference_median(
                records, "gen_s", scale), "tok/s"),
            "repair_rate": (first["repairs"] / first["emitted"], "edits/tok"),
        }

    def per_layer(self, index: SpanIndex) -> dict:
        """The model and sampling layers as generate drives them, and the
        layers only the cover path runs in its timed block."""
        roots = index.roots("cover")
        spans = index.under(roots)
        out = _model_metrics(index, spans, len(roots))

        gens = _named(spans, "sampling.generate")
        step_ms, select_ms = [], []
        rows_used = rows_slots = repairs = 0
        for gen in gens:
            kids = index.children[gen.id]
            n_steps = 0
            for j, kid in enumerate(kids):
                if kid.name != "model.forward":
                    continue
                before, after = kids[j - 1], kids[j + 1]
                if before.name != "tokens.build_track_seqs":
                    raise LookupError("generate step without build_track_seqs")
                step = after.start - before.start
                step_ms.append(1000.0 * step)
                select_ms.append(1000.0 * (step - before.duration - kid.duration))
                n_steps += 1
            rows_used += sum(gen.attrs["events_per_step"][:n_steps])
            rows_slots += n_steps * gen.attrs["tracks"]
            repairs += gen.attrs["repairs"]
        rows_computed = sum(s.attrs["rows"] for s in _named(spans, "model.project_logits"))
        deciles = statistics.quantiles(step_ms, n=10)
        out.update({
            "model.logit_rows_used": rows_used / rows_computed,
            "sampling.step_ms_p50": statistics.median(step_ms),
            "sampling.step_ms_p90": deciles[8],
            "sampling.select_ms": statistics.fmean(select_ms),
            "sampling.repair_ms": _total_ms(spans, "sampling.repair") / len(gens),
            "sampling.steps": len(step_ms) / len(gens),
            "sampling.repairs": repairs / len(gens),
            "sampling.active_track_share": rows_used / rows_slots,
            "checkpoint.load_ms": _per_call_ms(spans, "checkpoint.load"),
            "tokens.build_track_seqs_ms": _per_call_ms(spans, "tokens.build_track_seqs"),
            "tokens.detokenize_ms": _per_call_ms(spans, "tokens.detokenize"),
            "midi.write_ms": _per_call_ms(spans, "midi.write"),
        })
        return out


# -- train ---------------------------------------------------------------------


TRAIN_SONGS = 6


class Train:
    """The `bandgen train` library path on a fixed synthetic corpus of mixed
    lengths, then one paper-preset step on one song of each length."""

    def __init__(self, seed: int, shape: Shape):
        self.seed = seed
        self.shape = shape
        self.first_history: list[float] | None = None

    def inputs(self) -> list:
        seeds = _song_seeds(self.seed, 2, TRAIN_SONGS)
        return [synth.make_song(s, n_bars=self.shape.train_bars[j % 2])
                for j, s in enumerate(seeds)]

    def setup(self) -> None:
        self.vocab = tokens.build_vocab()
        songs = self.inputs()
        self.seqs = [tokens.tokenize_song(s, self.vocab) for s in songs]
        self.grids = [_feature_grid(s) for s in songs]
        self.pairs = list(zip(self.seqs, self.grids))
        # sequence_loss counts every non-PAD next-token target
        self.targets = sum(n - 1 for q in self.seqs for n in q.lengths)
        self.cfg = model.make_config("toy", vocab_size=self.vocab.size)
        self.paper_cfg = model.make_config("paper", vocab_size=self.vocab.size)
        self.paper_params = model.init_params(self.paper_cfg)
        self.paper_opt = optim.Adam(self.paper_params, lr=self.paper_cfg.lr)
        self.paper_pairs = self.pairs[:2]

    def warm_up(self) -> None:
        """One untimed paper step: the first one runs about 1.3x slower."""
        self._paper_step()

    def _paper_step(self) -> float:
        return training.train_step(self.paper_pairs, self.paper_params,
                                   self.paper_cfg, self.paper_opt,
                                   self.paper_cfg.lr)

    def run(self, tracer) -> dict:
        cfg, steps = self.cfg, self.shape.steps
        p0 = probe()
        with _root(tracer, "train.path"):
            t0 = time.perf_counter()
            vq_params, _ = vqvae.train_vqvae(self.seqs, cfg, steps=steps)
            for grid, codes in zip(self.grids, vqvae.assign_codes(self.seqs, vq_params)):
                grid.vq_entries = codes
            t1 = time.perf_counter()
            params, history = training.train_model(self.pairs, cfg, steps)
            t2 = time.perf_counter()
            params.update(vq_params)
            blob = checkpoint.dump_checkpoint(params, cfg)
            t3 = time.perf_counter()
        p1 = probe()
        with _root(tracer, "paper.step"):
            t4 = time.perf_counter()
            paper_loss = self._paper_step()
            t5 = time.perf_counter()
        p2 = probe()

        problems = []
        loaded, loaded_cfg = checkpoint.load_checkpoint(blob)
        if loaded_cfg != cfg or not _same_arrays(loaded, params):
            problems.append("checkpoint dump -> load is not bit-exact")
        if not all(math.isfinite(x) for x in history + [paper_loss]):
            problems.append("non-finite training loss")
        if self.first_history is None:
            self.first_history = history
        elif history != self.first_history:
            problems.append("toy loss trace differs from the first iteration")
        train_scale = block_scale(p0, p1)
        return {"problems": problems, "train_s": t3 - t0, "toy_s": t2 - t1,
                "paper_s": t5 - t4, "train_loss": history[-1],
                "block_scale": {"train_s": train_scale, "toy_s": train_scale,
                                "paper_s": block_scale(p1, p2)}}

    def end_to_end(self, records: list[dict], scale: float | None) -> dict:
        def median_s(key: str) -> float:
            return reference_median(records, key, scale)

        return {
            "train_s": (median_s("train_s"), "s"),
            "train_tok_per_s": (self.targets * self.shape.steps / median_s("toy_s"),
                                "tok/s"),
            "train_loss": (records[-1]["train_loss"], "nats/tok"),
            "paper_step_ms": (1000.0 * median_s("paper_s"), "ms"),
        }

    def per_layer(self, index: SpanIndex) -> dict:
        spans = index.under(index.roots("train.path"))
        toy = index.under(_named(spans, "training.train_model"))
        nodes = sum(s.attrs["nodes"] for s in _named(toy, "autograd.backward"))
        vq_runs = _named(spans, "vqvae.train")
        paper = index.roots("paper.step")
        paper_spans = index.under(paper)
        return {
            "autograd.backward_ms": _per_call_ms(toy, "autograd.backward"),
            "autograd.nodes_per_forward": nodes / len(_named(toy, "model.forward")),
            "optim.step_ms": _per_call_ms(toy, "optim.step"),
            "vqvae.train_step_ms": _total_ms(vq_runs, "vqvae.train")
                                   / sum(s.attrs["steps"] for s in vq_runs),
            "vqvae.assign_codes_ms": _per_call_ms(spans, "vqvae.assign_codes"),
            "checkpoint.dump_ms": _per_call_ms(spans, "checkpoint.dump"),
            "paper.forward_ms": _total_ms(paper_spans, "model.forward") / len(paper),
            "paper.backward_ms": _total_ms(paper_spans, "autograd.backward") / len(paper),
            "paper.optim_ms": _total_ms(paper_spans, "optim.step") / len(paper),
        }


# -- corpus --------------------------------------------------------------------


WINDOW = 16             # split_windows min = max bars
STRIDE = 8
MERGES = 200            # learn_bpe target = base vocabulary + merges
CORPUS_SONGS = 2
PASSES = 3              # a pass is short, so each iteration runs several


class Corpus:
    """MIDI bytes to windows, tokens, BPE and features; then evaluate_pair
    over each window and the next one. Runs PASSES passes per iteration."""

    def __init__(self, seed: int, shape: Shape):
        self.seed = seed
        self.shape = shape

    def inputs(self) -> list[bytes]:
        return [midi.write_midi(synth.make_song(s, n_bars=self.shape.corpus_bars))
                for s in _song_seeds(self.seed, 3, CORPUS_SONGS)]

    def setup(self) -> None:
        self.vocab = tokens.build_vocab()
        self.blobs = self.inputs()
        self.notes = sum(midi.parse_midi(b).note_count() for b in self.blobs)

    def run(self, tracer) -> dict:
        passes = [self._pass(tracer) for _ in range(PASSES)]
        return {"problems": [p for q in passes for p in q.pop("problems")],
                "pass_s": sum(q["pass_s"] for q in passes),
                "corpus_passes": passes, "block_scale": {}}

    def _pass(self, tracer) -> dict:
        vocab = self.vocab
        p0 = probe()
        with _root(tracer, "corpus.pass"):
            t0 = time.perf_counter()
            windows, rejected = [], 0
            for blob in self.blobs:
                with _root(tracer, "corpus.song"):
                    song = score.compress_instruments(score.quantize_song(
                        midi.parse_midi(blob)))
                    if not score.filter_song(song).accepted:
                        rejected += 1
                        continue
                    windows += score.split_windows(song, WINDOW, WINDOW, STRIDE)
            kept = score.dedupe_corpus(windows)
            seqs = [tokens.tokenize_song(w, vocab) for w in kept]
            raw = [ids[:n] for q in seqs for ids, n in zip(q.seqs, q.lengths)]
            merges = bpe.learn_bpe(seqs, vocab, vocab.size + MERGES)
            encoded = [bpe.bpe_encode(ids, merges, vocab) for ids in raw]
            for w in kept:
                _feature_grid(w)
            t1 = time.perf_counter()
            p1 = probe()
            t2 = time.perf_counter()
            for j, ref in enumerate(kept):
                metrics.evaluate_pair(ref, kept[(j + 1) % len(kept)])
            t3 = time.perf_counter()
        p2 = probe()

        problems = []
        if rejected:
            problems.append(f"{rejected} input songs rejected by filter_song")
        if any(bpe.bpe_decode(e, merges) != r for e, r in zip(encoded, raw)):
            problems.append("bpe_decode(bpe_encode(x)) != x")
        for w, q in zip(kept, seqs):
            back, snap = tokens.detokenize(q, vocab), tokens.snap_song(w, vocab)
            if back.n_bars != snap.n_bars or any(
                    a.instrument != b.instrument or Counter(a.notes) != Counter(b.notes)
                    for a, b in zip(back.tracks, snap.tracks)):
                problems.append("tokenize -> detokenize lost notes")
                break
        return {"problems": problems, "pass_s": (t1 - t0) + (t3 - t2),
                "prep_s": t1 - t0, "eval_s": t3 - t2, "pairs": len(kept),
                "block_scale": {"prep_s": block_scale(p0, p1),
                                "eval_s": block_scale(p1, p2)}}

    def end_to_end(self, records: list[dict], scale: float | None) -> dict:
        passes = [q for r in records for q in r["corpus_passes"]]

        def median_s(key: str) -> float:
            return reference_median(passes, key, scale)

        # the windows, and so the pairs, are the same in every pass
        return {
            "corpus_notes_per_s": (self.notes / median_s("prep_s"), "notes/s"),
            "eval_pairs_per_s": (passes[0]["pairs"] / median_s("eval_s"), "pairs/s"),
        }

    def per_layer(self, index: SpanIndex) -> dict:
        spans = index.under(index.roots("corpus.pass"))
        parses = len(_named(spans, "midi.parse"))
        learns = _named(spans, "bpe.learn")
        return {
            "midi.parse_ms": _per_call_ms(spans, "midi.parse"),
            "score.prepare_ms": _total_ms(spans, "score.prepare") / parses,
            "score.split_ms": _per_call_ms(spans, "score.split"),
            "score.dedupe_ms": _per_call_ms(spans, "score.dedupe"),
            "tokens.tokenize_ms": _per_call_ms(spans, "tokens.tokenize"),
            "bpe.learn_ms": _per_call_ms(spans, "bpe.learn"),
            "bpe.encode_ms": _per_call_ms(spans, "bpe.encode"),
            "bpe.merges": sum(s.attrs["merges"] for s in learns) / len(learns),
            "features.extract_ms": (_total_ms(spans, "features.extract")
                                    + _total_ms(spans, "features.quantize"))
                                   / len(_named(spans, "features.extract")),
            "metrics.evaluate_pair_ms": _per_call_ms(spans, "metrics.evaluate_pair"),
        }


# -- workloads -----------------------------------------------------------------


# Stage times that add up to one iteration.
_ITERATION_PARTS = ("pass_s", "train_s", "paper_s", "cover_s")


class Pipeline:
    """One workload: the corpus, train and cover stages of one shape, run in
    turn as one iteration. Each stage opens its own root spans."""

    root = "cover"          # one per iteration
    root_names = ("corpus.pass", "train.path", "paper.step", "cover")
    time_key = "iteration_s"
    min_iterations = 3                  # the first, then repeats to check
    min_traced = 1                      # per half of a traced run

    def __init__(self, seed: int, shape: Shape):
        self.train = Train(seed, shape)
        self.stages = (Corpus(seed, shape), self.train, Cover(seed, shape))

    def inputs(self) -> list:
        return [stage.inputs() for stage in self.stages]

    def setup(self) -> None:
        for stage in self.stages:
            stage.setup()

    def warm_up(self) -> None:
        """Untimed work between the last set-up and the first iteration."""
        self.train.warm_up()

    def iterate(self, tracer) -> dict:
        record = {"problems": [], "block_scale": {}}
        for stage in self.stages:
            part = stage.run(tracer)
            record["problems"] += part.pop("problems")
            record["block_scale"].update(part.pop("block_scale"))
            record.update(part)
        record["iteration_s"] = sum(record[k] for k in _ITERATION_PARTS)
        return record

    def end_to_end(self, records: list[dict], scale: float | None) -> dict:
        """Metrics from the iteration records. `scale` is the run's speed
        scale (see `probe`); None reports measured times, unscaled."""
        return _merged(stage.end_to_end(records, scale) for stage in self.stages)

    def per_layer(self, index: SpanIndex) -> dict:
        return _merged(stage.per_layer(index) for stage in self.stages)


def _merged(parts) -> dict:
    out: dict = {}
    for part in parts:
        if out.keys() & part.keys():
            raise KeyError(f"metrics reported twice: {out.keys() & part.keys()}")
        out.update(part)
    return out
