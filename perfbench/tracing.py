"""Spans around the public functions of bandgen, recorded from outside.

`Tracer.install()` replaces module attributes (and two methods) with timing
wrappers; `Tracer.restore()` puts the originals back. The program under test
is not edited: every wrapped name is looked up at call time by its caller,
either in the defining module's globals (the `model_forward` stages), in the
importing module's globals (`sampling.model_forward`,
`training.model_forward`, `sampling.build_track_seqs`, ...), or on a class
(`Tensor.backward`, `Adam.step`). The benchmark itself calls bandgen through
module attributes, so its own calls pass through the wrappers too.

A `Span` holds id, name, start, end, parent, unit and attrs: times are
`perf_counter` seconds, `parent` is the enclosing span's id, and `unit` is
the id of the enclosing cover, train step or song, so all spans of one unit
of work share it. Spans stay in memory until `write_jsonl`.
"""

from __future__ import annotations

import importlib
import itertools
import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import NamedTuple


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    unit: int | None
    attrs: dict

    @property
    def duration(self) -> float:
        return self.end - self.start


# Hooks turn a wrapped call's arguments and result into span attributes.

def _rows_out(args, result):
    return {"rows": int(result.shape[0] * result.shape[1])}


def _generate_out(args, result):
    per_step = Counter(e.step for e in result.audit)
    return {"emitted": result.tokens_generated, "repairs": result.repairs,
            "tracks": len(result.raw_lists),
            "events_per_step": [per_step[s] for s in range(max(per_step) + 1)]}


def _graph_nodes(args, result):
    """Nodes the backward pass visits: every requires-grad tensor reachable
    from the loss through parent links (the same walk `backward` makes)."""
    seen: set[int] = set()
    stack = [args[0]]
    while stack:
        node = stack.pop()
        if id(node) in seen or not node.requires_grad:
            continue
        seen.add(id(node))
        stack.extend(node._parents)
    return {"nodes": len(seen)}


def _history_out(args, result):
    return {"steps": len(result[1])}


def _merges_out(args, result):
    return {"merges": len(result.merges)}


# (module, attribute, span name, attrs hook). "Class.method" attributes are
# patched on the class. One span name may cover several attributes: the same
# function imported into several modules, or stages a metric groups together.
TARGETS: tuple[tuple[str, str, str, object], ...] = (
    ("bandgen.neural.sampling", "model_forward", "model.forward", None),
    ("bandgen.neural.training", "model_forward", "model.forward", None),
    ("bandgen.neural.model", "embed_conditions", "model.embed_conditions", None),
    ("bandgen.neural.model", "encode_features", "model.encode_features", None),
    ("bandgen.neural.model", "bar_similarity", "model.bar_similarity", None),
    ("bandgen.neural.model", "expand_similarity", "model.expand_similarity", None),
    ("bandgen.neural.model", "embed_tokens", "model.embed_tokens", None),
    ("bandgen.neural.model", "bottom_decode", "model.bottom_decode", None),
    ("bandgen.neural.model", "ctt_forward", "model.ctt", None),
    ("bandgen.neural.model", "top_decode", "model.top_decode", None),
    ("bandgen.neural.model", "project_logits", "model.project_logits", _rows_out),
    ("bandgen.neural.sampling", "generate", "sampling.generate", _generate_out),
    ("bandgen.neural.sampling", "repair_track_ids", "sampling.repair", None),
    ("bandgen.neural.sampling", "build_track_seqs", "tokens.build_track_seqs", None),
    ("bandgen.neural.training", "train_model", "training.train_model", None),
    ("bandgen.neural.training", "train_step", "training.train_step", None),
    ("bandgen.neural.autograd", "Tensor.backward", "autograd.backward", _graph_nodes),
    ("bandgen.neural.optim", "Adam.step", "optim.step", None),
    ("bandgen.neural.vqvae", "train_vqvae", "vqvae.train", _history_out),
    ("bandgen.neural.vqvae", "assign_codes", "vqvae.assign_codes", None),
    ("bandgen.neural.checkpoint", "dump_checkpoint", "checkpoint.dump", None),
    ("bandgen.neural.checkpoint", "load_checkpoint", "checkpoint.load", None),
    ("bandgen.tokens", "tokenize_song", "tokens.tokenize", None),
    ("bandgen.tokens", "build_track_seqs", "tokens.build_track_seqs", None),
    ("bandgen.tokens", "detokenize", "tokens.detokenize", None),
    ("bandgen.midi", "parse_midi", "midi.parse", None),
    ("bandgen.midi", "write_midi", "midi.write", None),
    ("bandgen.score", "quantize_song", "score.prepare", None),
    ("bandgen.score", "compress_instruments", "score.prepare", None),
    ("bandgen.score", "filter_song", "score.prepare", None),
    ("bandgen.score", "split_windows", "score.split", None),
    ("bandgen.score", "dedupe_corpus", "score.dedupe", None),
    ("bandgen.bpe", "learn_bpe", "bpe.learn", _merges_out),
    ("bandgen.bpe", "bpe_encode", "bpe.encode", None),
    ("bandgen.features", "extract_expert_features", "features.extract", None),
    ("bandgen.features", "quantize_features", "features.quantize", None),
    ("bandgen.metrics", "evaluate_pair", "metrics.evaluate_pair", None),
)

# Span names that start a unit of work; their descendants carry their id.
UNIT_NAMES = frozenset({"cover", "training.train_step", "corpus.song"})


def _owner(module_name: str, attribute: str):
    """(object holding the attribute, attribute name) for a target."""
    owner = importlib.import_module(module_name)
    if "." in attribute:
        cls, attribute = attribute.split(".")
        owner = getattr(owner, cls)
    return owner, attribute


def current_targets() -> list[object]:
    """What each target attribute holds right now, in TARGETS order."""
    out = []
    for module_name, attribute, _, _ in TARGETS:
        owner, attr = _owner(module_name, attribute)
        out.append(vars(owner)[attr])
    return out


class Tracer:
    """In-memory span recorder; see the module docstring."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._stack: list[tuple[int, int]] = []   # (span id, unit id)
        self._saved: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        """Record the enclosed block as one span."""
        sid, parent, unit = self._open(name)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append(Span(sid, name, start, end, parent, unit, {}))

    def _open(self, name: str) -> tuple[int, int | None, int | None]:
        sid = next(self._ids)
        parent, unit = self._stack[-1] if self._stack else (None, None)
        if name in UNIT_NAMES:
            unit = sid
        self._stack.append((sid, unit))
        return sid, parent, unit

    def _wrap(self, fn, name: str, hook):
        tracer = self

        def traced(*args, **kwargs):
            sid, parent, unit = tracer._open(name)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
            attrs = hook(args, result) if hook else {}
            tracer.spans.append(Span(sid, name, start, end, parent, unit, attrs))
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every target; `restore` undoes it."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        for module_name, attribute, name, hook in TARGETS:
            owner, attr = _owner(module_name, attribute)
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, hook))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.restore()

    def write_jsonl(self, path: str) -> None:
        with open(path, "w") as f:
            for span in sorted(self.spans, key=lambda s: s.start):
                f.write(json.dumps(span._asdict()) + "\n")


class SpanIndex:
    """Queries over recorded spans: roots, descendants, self time."""

    def __init__(self, spans: list[Span]):
        self.spans = sorted(spans, key=lambda s: s.start)
        self.children: dict[int, list[Span]] = defaultdict(list)
        for s in self.spans:
            if s.parent is not None:
                self.children[s.parent].append(s)

    def roots(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.parent is None and s.name == name]

    def under(self, roots: list[Span]) -> list[Span]:
        """Every descendant of the given spans, in start order."""
        out, stack = [], list(roots)
        while stack:
            kids = self.children.get(stack.pop().id, [])
            out.extend(kids)
            stack.extend(kids)
        return sorted(out, key=lambda s: s.start)

    def self_time(self, span: Span) -> float:
        return span.duration - sum(k.duration for k in self.children.get(span.id, []))


def self_time_table(index: SpanIndex, roots: list[Span]) -> list[tuple[str, float, float]]:
    """(layer, self seconds, share of root time) per module under the roots;
    the roots' own self time is listed under the root's name."""
    totals: dict[str, float] = defaultdict(float)
    for s in roots + index.under(roots):
        layer = s.name.split(".")[0] if s.parent is not None else s.name
        totals[layer] += index.self_time(s)
    whole = sum(r.duration for r in roots) or 1.0
    return sorted(((k, v, v / whole) for k, v in totals.items()),
                  key=lambda row: -row[1])


def format_table(rows: list[tuple[str, float, float]], n_roots: int) -> str:
    lines = [f"{'layer':<14}{'self ms/iter':>14}{'share':>9}"]
    for layer, seconds, share in rows:
        lines.append(f"{layer:<14}{1000 * seconds / max(1, n_roots):>14.3f}"
                     f"{100 * share:>8.1f}%")
    return "\n".join(lines)
