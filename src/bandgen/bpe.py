"""Byte-pair encoding over note-token runs.

Merges are learned and applied only inside maximal runs of note-related
tokens (Pitch/PitchDrum/Duration/Velocity) between metric tokens, so Bar,
Position, Instrument, BOS and EOS survive encoding unchanged and in order.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

from .errors import DataError, TargetTooSmall, UnknownToken
from .tokens import TrackTokenSeqs, Vocab


@dataclass(slots=True)
class BpeModel:
    merges: list[tuple[int, int, int]]  # (left, right, new), in learned order
    base_vocab_size: int
    _ranks: dict[tuple[int, int], tuple[int, int]] = field(init=False, default_factory=dict)
    _expand: dict[int, tuple[int, int]] = field(init=False, default_factory=dict)
    _cache: dict[tuple[int, ...], tuple[int, ...]] = field(init=False, default_factory=dict)

    def __post_init__(self):
        self._ranks = {(l, r): (rank, new) for rank, (l, r, new) in enumerate(self.merges)}
        self._expand = {new: (l, r) for l, r, new in self.merges}

    @property
    def vocab_size(self) -> int:
        return self.base_vocab_size + len(self.merges)

    def encode_unit(self, unit: tuple[int, ...]) -> tuple[int, ...]:
        cached = self._cache.get(unit)
        if cached is not None:
            return cached
        seq = list(unit)
        while len(seq) > 1:
            best = None
            for pair in zip(seq, seq[1:]):
                entry = self._ranks.get(pair)
                if entry is not None and (best is None or entry[0] < best[0]):
                    best = (entry[0], pair, entry[1])
            if best is None:
                break
            seq = _replace_pair(seq, best[1], best[2])
        out = tuple(seq)
        self._cache[unit] = out
        return out

    def expand_id(self, token_id: int) -> list[int]:
        if not 0 <= token_id < self.vocab_size:
            raise UnknownToken(f"id {token_id} outside vocab of {self.vocab_size}")
        if token_id < self.base_vocab_size:
            return [token_id]
        out: list[int] = []
        stack = [token_id]
        while stack:
            tid = stack.pop()
            if tid < self.base_vocab_size:
                out.append(tid)
            else:
                l, r = self._expand[tid]
                stack.append(r)
                stack.append(l)
        return out


def _replace_pair(seq: list[int], pair: tuple[int, int], new_id: int) -> list[int]:
    """Replace non-overlapping occurrences left to right."""
    out: list[int] = []
    i = 0
    while i < len(seq):
        if i + 1 < len(seq) and seq[i] == pair[0] and seq[i + 1] == pair[1]:
            out.append(new_id)
            i += 2
        else:
            out.append(seq[i])
            i += 1
    return out


def note_units(ids: list[int], vocab: Vocab) -> list[tuple[int, ...]]:
    """Maximal runs of note-related ids; metric tokens and PAD break runs."""
    units: list[tuple[int, ...]] = []
    run: list[int] = []
    for tid in ids:
        if vocab.is_note_id(tid):
            run.append(tid)
        elif run:
            units.append(tuple(run))
            run = []
    if run:
        units.append(tuple(run))
    return units


def _unit_pairs(unit: tuple[int, ...]):
    return zip(unit, unit[1:])


def learn_bpe(corpus: list, vocab: Vocab, target_size: int) -> BpeModel:
    """Greedy pair merging over the corpus's note-run multiset.

    Most frequent adjacent pair wins each round; ties break on (left id,
    right id). Stops at target_size or when no pair occurs twice.
    """
    if target_size <= vocab.size:
        raise TargetTooSmall(f"target {target_size} <= base vocab {vocab.size}")

    unit_counts: dict[tuple[int, ...], int] = {}
    for entry in corpus:
        lists = entry.seqs if isinstance(entry, TrackTokenSeqs) else [entry]
        lengths = entry.lengths if isinstance(entry, TrackTokenSeqs) else [len(entry)]
        for ids, n in zip(lists, lengths):
            for unit in note_units(ids[:n], vocab):
                unit_counts[unit] = unit_counts.get(unit, 0) + 1

    pair_counts: dict[tuple[int, int], int] = {}
    pair_units: dict[tuple[int, int], set[tuple[int, ...]]] = {}
    heap: list[tuple[int, int, int]] = []

    def bump(pair: tuple[int, int], delta: int, unit: tuple[int, ...]) -> None:
        c = pair_counts.get(pair, 0) + delta
        if c <= 0:
            pair_counts.pop(pair, None)
        else:
            pair_counts[pair] = c
            heapq.heappush(heap, (-c, pair[0], pair[1]))
        members = pair_units.setdefault(pair, set())
        if delta > 0:
            members.add(unit)

    for unit, m in unit_counts.items():
        for pair in _unit_pairs(unit):
            bump(pair, m, unit)

    merges: list[tuple[int, int, int]] = []
    next_id = vocab.size
    while next_id < target_size and heap:
        neg, l, r = heapq.heappop(heap)
        pair = (l, r)
        if pair_counts.get(pair) != -neg:
            continue  # stale heap entry
        if -neg < 2:
            break
        merges.append((l, r, next_id))
        for unit in list(pair_units.get(pair, ())):
            m = unit_counts.pop(unit, None)
            if m is None:
                continue
            for p in _unit_pairs(unit):
                bump(p, -m, unit)
                pair_units.get(p, set()).discard(unit)
            new_unit = tuple(_replace_pair(list(unit), pair, next_id))
            unit_counts[new_unit] = unit_counts.get(new_unit, 0) + m
            for p in _unit_pairs(new_unit):
                bump(p, m, new_unit)
        pair_units.pop(pair, None)
        pair_counts.pop(pair, None)
        next_id += 1
    return BpeModel(merges, vocab.size)


def bpe_encode(ids: list[int], model: BpeModel, vocab: Vocab) -> list[int]:
    """Apply learned merges inside note runs; metric tokens pass through."""
    out: list[int] = []
    run: list[int] = []
    for tid in ids:
        if not 0 <= tid < model.base_vocab_size:
            raise UnknownToken(f"id {tid} outside base vocab")
        if vocab.is_note_id(tid):
            run.append(tid)
        else:
            if run:
                out.extend(model.encode_unit(tuple(run)))
                run = []
            out.append(tid)
    if run:
        out.extend(model.encode_unit(tuple(run)))
    return out


def bpe_decode(ids: list[int], model: BpeModel) -> list[int]:
    out: list[int] = []
    for tid in ids:
        out.extend(model.expand_id(tid))
    return out


def dump_merges(model: BpeModel) -> str:
    lines = [f"{l} {r} {new}" for l, r, new in model.merges]
    return "\n".join(lines) + ("\n" if lines else "")


def load_merges(text: str, base_vocab_size: int) -> BpeModel:
    merges: list[tuple[int, int, int]] = []
    expected = base_vocab_size
    for ln in text.splitlines():
        if not ln.strip():
            continue
        parts = ln.split()
        if len(parts) != 3:
            raise DataError(f"merge file: bad line {ln!r}")
        try:
            l, r, new = (int(x) for x in parts)
        except ValueError as e:
            raise DataError(f"merge file: bad line {ln!r}") from e
        if new != expected:
            raise DataError(f"merge file: expected new id {expected}, got {new}")
        if not (0 <= l < new and 0 <= r < new):
            raise DataError(f"merge file: operands of {new} not yet defined")
        merges.append((l, r, new))
        expected += 1
    return BpeModel(merges, base_vocab_size)
