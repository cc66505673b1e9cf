"""Track-parallel token representation of songs.

Each track becomes its own sequence: Instrument, BOS, a body, then EOS and
PAD up to the longest track. The vocabulary is fixed: onsets snap to a
`POSITION_GRID`-tick grid (48 positions per bar) and durations to the 32
values of `DURATION_MESH`. `TrackGrammar` reads the body grammar per token:

- a Bar token (BarNormal or BarEmpty) may come anywhere and opens a bar;
- a Position needs a Bar before it and never goes back within its bar
  (an equal Position is allowed);
- a note needs a Position: one PitchDrum on a drum track, otherwise a Pitch
  then its Duration and its Velocity; any other token breaks the note off;
- Duration, Velocity, Instrument, BOS and PAD never stand alone;
- EOS, or the end of the list, may end the body anywhere but inside a note.

A single-sequence interleaved form (tokenize_remi_plus) is kept for length
statistics only.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

import numpy as np

from .errors import DataError, EmptyCorpus, MalformedSequence, NoteOutOfRange
from .score import (DRUM_DURATION, DRUM_VELOCITY, INSTRUMENTS, TICKS_PER_BAR,
                    Note, Song, Track, dump_records, load_records, note_columns,
                    sorted_unique_notes)

PAD_ID = 0
BOS_ID = 1
EOS_ID = 2

NOTE_KINDS = frozenset({"Pitch", "PitchDrum", "Duration", "Velocity"})
BAR_KINDS = frozenset({"BarNormal", "BarEmpty"})

# 31 percussion keys: GM 35-59 plus a folded low-range group
DRUM_KEYS = tuple(sorted(set(range(35, 60)) | {25, 26, 27, 28, 29, 31}))
# nearest listed drum key per raw pitch, ties to the lower key
_DRUM_MAP = tuple(min(DRUM_KEYS, key=lambda k: (abs(k - p), k)) for p in range(128))
_DRUM_KEY = np.array(_DRUM_MAP)

POSITION_GRID = 4
DURATION_MESH = tuple(
    list(range(4, 49, 4)) + list(range(60, 193, 12)) + list(range(216, 385, 24)))

VELOCITY_BINS = 32


def velocity_bin(velocity: int) -> int:
    return min(velocity // 4, VELOCITY_BINS - 1)


# velocity_bin of each velocity 0-127, its array form
VELOCITY_BIN = np.array([velocity_bin(v) for v in range(128)])


def velocity_decode(bin_idx: int) -> int:
    return 4 * bin_idx + 2


def snap_to_mesh(duration: int) -> int:
    """Nearest DURATION_MESH value; equidistant ties take the smaller one."""
    i = bisect.bisect_left(DURATION_MESH, duration)
    if i == 0:
        return DURATION_MESH[0]
    if i == len(DURATION_MESH):
        return DURATION_MESH[-1]
    lo, hi = DURATION_MESH[i - 1], DURATION_MESH[i]
    return lo if duration - lo <= hi - duration else hi


_MESH_MIDPOINTS = (np.array(DURATION_MESH[:-1]) + DURATION_MESH[1:]) / 2


def mesh_index(durations: np.ndarray) -> np.ndarray:
    """Array form of snap_to_mesh, as indices into DURATION_MESH: a left
    search of the midpoints takes the nearest value, ties the smaller."""
    return np.searchsorted(_MESH_MIDPOINTS, durations)


def snap_position(tick_in_bar: int) -> int:
    pos = int(tick_in_bar / POSITION_GRID + 0.5) * POSITION_GRID
    return min(pos, TICKS_PER_BAR - POSITION_GRID)


def drum_key(pitch: int) -> int:
    return _DRUM_MAP[min(max(pitch, 0), 127)]


@dataclass(frozen=True, slots=True)
class TokenSpec:
    kind: str
    value: str  # payload rendered as text; numeric for all kinds but Instrument


class Vocab:
    """Dense token-id table. Ids 0/1/2 are PAD/BOS/EOS."""

    def __init__(self):
        specs = [TokenSpec("PAD", "0"), TokenSpec("BOS", "0"), TokenSpec("EOS", "0")]
        specs += [TokenSpec("Instrument", name) for name in INSTRUMENTS]
        specs += [TokenSpec("BarNormal", "0"), TokenSpec("BarEmpty", "0")]
        specs += [TokenSpec("Position", str(p))
                  for p in range(0, TICKS_PER_BAR, POSITION_GRID)]
        specs += [TokenSpec("Pitch", str(p)) for p in range(128)]
        specs += [TokenSpec("PitchDrum", str(k)) for k in DRUM_KEYS]
        specs += [TokenSpec("Duration", str(d)) for d in DURATION_MESH]
        specs += [TokenSpec("Velocity", str(b)) for b in range(VELOCITY_BINS)]
        self.specs = tuple(specs)
        self.index = {(s.kind, s.value): i for i, s in enumerate(specs)}
        self.size = len(specs)
        self._note_mask = tuple(s.kind in NOTE_KINDS for s in specs)
        self.bar_ids = frozenset(i for i, s in enumerate(specs) if s.kind in BAR_KINDS)

        def ids(kind: str, values) -> np.ndarray:
            return np.array([self.index[(kind, str(v))] for v in values])

        # the array tokenizer's id tables, indexed by value, bin or mesh index
        self.position_ids = ids("Position", range(0, TICKS_PER_BAR, POSITION_GRID))
        self.pitch_ids = ids("Pitch", range(128))
        self.drum_ids = ids("PitchDrum", _DRUM_MAP)  # by raw pitch
        self.duration_ids = ids("Duration", DURATION_MESH)
        self.velocity_ids = ids("Velocity", range(VELOCITY_BINS))

    def id_of(self, kind: str, value) -> int:
        try:
            return self.index[(kind, str(value))]
        except KeyError:
            raise DataError(f"no token {kind}:{value}") from None

    def spec_of(self, token_id: int) -> TokenSpec:
        if not 0 <= token_id < self.size:
            raise DataError(f"token id {token_id} out of vocab")
        return self.specs[token_id]

    def is_note_id(self, token_id: int) -> bool:
        return 0 <= token_id < self.size and self._note_mask[token_id]


def build_vocab() -> Vocab:
    return Vocab()


@dataclass(slots=True)
class TrackTokenSeqs:
    """Parallel per-track id sequences padded to a common length T, with
    the positions of each track's bar tokens; `bar_index` derives every
    position's bar from them."""
    seqs: list[list[int]]
    bar_token_positions: list[list[int]]  # indices of Bar* tokens, per track
    lengths: list[int]                    # unpadded lengths

    @property
    def n_tracks(self) -> int:
        return len(self.seqs)

    @property
    def length(self) -> int:
        return len(self.seqs[0]) if self.seqs else 0

    def bar_index(self) -> np.ndarray:
        """The bar of every position, int64 [I, T]. Framing tokens before the
        first bar token belong to bar 0; every later position, padding
        included, belongs to its latest bar token."""
        marks = np.zeros((self.n_tracks, self.length), dtype=np.int64)
        for row, bars in zip(marks, self.bar_token_positions):
            row[bars[1:]] = 1
        return marks.cumsum(axis=1)


def _bar_notes(track: Track, n_bars: int) -> list[list[Note]]:
    bars: list[list[Note]] = [[] for _ in range(n_bars)]
    for n in track.notes:
        b = n.onset // TICKS_PER_BAR
        if n.onset < 0 or b >= n_bars:
            raise NoteOutOfRange(f"onset {n.onset} outside {n_bars} bars")
        bars[b].append(n)
    return bars


def _note_ids(n: Note, is_drum: bool, vocab: Vocab) -> list[int]:
    if is_drum:
        return [vocab.id_of("PitchDrum", drum_key(n.pitch))]
    return [vocab.id_of("Pitch", n.pitch),
            vocab.id_of("Duration", snap_to_mesh(n.duration)),
            vocab.id_of("Velocity", velocity_bin(n.velocity))]


def _body_ids(song: Song, vocab: Vocab) -> list[list[int]]:
    """Each track's bar groups (no framing tokens), from the song's note
    columns. Notes sort by (track, bar, position, pitch, duration,
    velocity); the first of each (track, bar, position, key) stays, where
    the key is the pitch, or on a drum track the drum key (monotone in the
    pitch, so equal keys are neighbours). The ids are written into one flat
    array, (track, bar) cell after cell: its bar token, then per note a
    Position token if it opens its position, and the note's one or three
    ids."""
    cols = note_columns(song)
    n_bars = song.n_bars
    bar, tick = np.divmod(cols.onset, TICKS_PER_BAR)
    if (bar >= n_bars).any():
        raise NoteOutOfRange(f"onset {cols.onset[bar >= n_bars].max()} "
                             f"outside {n_bars} bars")
    position = np.minimum((tick + POSITION_GRID // 2) // POSITION_GRID,
                          len(vocab.position_ids) - 1)
    pitched = cols.pitched
    cell = np.repeat(np.arange(len(song.tracks)) * n_bars,
                     [len(t.notes) for t in song.tracks]) + bar
    key = np.where(pitched, cols.pitch, _DRUM_KEY[cols.pitch])
    order = np.lexsort((cols.velocity, cols.duration, cols.pitch, position, cell))
    cell, position, key, pitched = (a[order] for a in (cell, position, key, pitched))
    slot = cell * len(vocab.position_ids) + position
    first = np.ones(len(order), bool)
    first[1:] = (slot[1:] != slot[:-1]) | (key[1:] != key[:-1])
    order, cell, position, pitched, slot = (
        a[first] for a in (order, cell, position, pitched, slot))
    opens = np.ones(len(order), bool)
    opens[1:] = slot[1:] != slot[:-1]
    # a note's block: its Position if it opens one, then its one or three ids
    width = opens + np.where(pitched, 3, 1)
    ends = np.cumsum(width)
    # a cell's bar token follows the bar tokens and blocks of all earlier
    # cells; one more entry past the last cell is the total length
    cells = np.arange(len(song.tracks) * n_bars + 1)
    before = np.searchsorted(cell, cells)  # kept notes in earlier cells
    bar_at = cells + np.concatenate(([0], ends))[before]
    out = np.empty(bar_at[-1], np.int64)
    out[bar_at[:-1]] = np.where(before[1:] > before[:-1], vocab.id_of("BarNormal", 0),
                                vocab.id_of("BarEmpty", 0))
    at = ends - width + cell + 1  # each block's start, after its cell's bar token
    out[at[opens]] = vocab.position_ids[position[opens]]
    at = at + opens
    note = order[~pitched]
    out[at[~pitched]] = vocab.drum_ids[cols.pitch[note]]
    note, at = order[pitched], at[pitched]
    out[at] = vocab.pitch_ids[cols.pitch[note]]
    out[at + 1] = vocab.duration_ids[mesh_index(cols.duration[note])]
    out[at + 2] = vocab.velocity_ids[VELOCITY_BIN[cols.velocity[note]]]
    flat = out.tolist()
    bounds = bar_at[::n_bars].tolist() if n_bars else [0] * (len(song.tracks) + 1)
    return [flat[a:b] for a, b in zip(bounds, bounds[1:])]


def tokenize_song(song: Song, vocab: Vocab) -> TrackTokenSeqs:
    """Track-parallel ids of a song on the canonical grid. A song off the
    grid, or with a pitch or velocity outside 0-127, is a DataError; a note
    outside the song's bars is NoteOutOfRange."""
    lists = [[vocab.id_of("Instrument", t.instrument), BOS_ID] + body + [EOS_ID]
             for t, body in zip(song.tracks, _body_ids(song, vocab))]
    return build_track_seqs(lists, vocab)


def build_track_seqs(lists: list[list[int]], vocab) -> TrackTokenSeqs:
    """Assemble padded parallel sequences from raw id lists. Works over
    extended (BPE) vocabularies: ids >= vocab.size are note runs, never bar
    tokens."""
    width = max(map(len, lists), default=0)
    seqs, bar_positions = [], []
    bar_ids = vocab.bar_ids
    for ids in lists:
        if ids and min(ids) < 0:
            raise DataError(f"token id {min(ids)} out of vocab")
        bar_positions.append([k for k, tid in enumerate(ids) if tid in bar_ids])
        seqs.append(ids + [PAD_ID] * (width - len(ids)))
    return TrackTokenSeqs(seqs, bar_positions, [len(ids) for ids in lists])


class TrackGrammar:
    """Per-token automaton for the module docstring's body grammar: the caller
    passes each token's spec to `reject` and, if allowed, to `take`. Inside a
    note only its next part is allowed; clearing `note` breaks the note off."""

    __slots__ = ("is_drum", "bars", "position", "note")

    def __init__(self, is_drum: bool):
        self.is_drum = is_drum
        self.bars = 0                     # Bar tokens taken so far
        self.position: int | None = None  # last Position in the current bar
        self.note: tuple[int, ...] = ()   # ids of the open note

    def reject(self, spec: TokenSpec) -> str | None:
        """Why a token of `spec` cannot come next; None if it can."""
        kind = spec.kind
        if self.note:
            if kind != ("Duration", "Velocity")[len(self.note) - 1]:
                return "Pitch without Duration+Velocity"
        elif kind == "Pitch":
            if self.position is None:
                return "note token before any Position"
            if self.is_drum:
                return "Pitch on a drum track"
        elif kind == "Position":
            if not self.bars:
                return "Position before any Bar"
            if self.position is not None and int(spec.value) < self.position:
                return "Position goes back within its bar"
        elif kind == "PitchDrum":
            if self.position is None:
                return "drum token before any Position"
            if not self.is_drum:
                return "PitchDrum on a pitched track"
        elif kind not in BAR_KINDS and kind != "EOS":
            return f"unexpected {kind} token"
        return None

    def take(self, token_id: int, spec: TokenSpec) -> tuple[int, ...]:
        """Consume an allowed token; returns the ids it completes: none
        while a note is open, the note's three at its Velocity, else itself."""
        kind = spec.kind
        if kind in ("Pitch", "Duration"):
            self.note += (token_id,)
            return ()
        if kind == "Velocity":
            done, self.note = self.note + (token_id,), ()
            return done
        if kind in BAR_KINDS:
            self.bars += 1
            self.position = None
        elif kind == "Position":
            self.position = int(spec.value)
        return (token_id,)


def detokenize(seqs: TrackTokenSeqs, vocab: Vocab) -> Song:
    tracks: list[Track] = []
    n_bars = 0
    for ti, ids in enumerate(seqs.seqs):
        if not ids or vocab.spec_of(ids[0]).kind != "Instrument":
            raise MalformedSequence("expected Instrument token", ti, 0)
        inst = vocab.spec_of(ids[0]).value
        if len(ids) < 2 or ids[1] != BOS_ID:
            raise MalformedSequence("expected BOS token", ti, 1)
        grammar = TrackGrammar(inst == "Drum")
        notes: list[Note] = []
        for k, tid in enumerate(ids[2:] + [EOS_ID], 2):  # the end reads as EOS
            spec = vocab.spec_of(tid)
            reason = grammar.reject(spec)
            if reason is not None:  # a broken-off note is reported at its Pitch
                raise MalformedSequence(reason, ti, k - len(grammar.note))
            if spec.kind == "EOS":
                for j in range(k + 1, len(ids)):
                    if ids[j] != PAD_ID:
                        raise MalformedSequence("content after EOS", ti, j)
                break
            done = grammar.take(tid, spec)
            if len(done) == 3:
                onset = (grammar.bars - 1) * TICKS_PER_BAR + grammar.position
                pitch, duration, vbin = (int(vocab.specs[i].value) for i in done)
                notes.append(Note(pitch, onset, duration, velocity_decode(vbin)))
            elif spec.kind == "PitchDrum":
                onset = (grammar.bars - 1) * TICKS_PER_BAR + grammar.position
                notes.append(Note(int(spec.value), onset, DRUM_DURATION, DRUM_VELOCITY))
        tracks.append(Track(inst, sorted_unique_notes(notes), is_melody=inst == "SquareSynth"))
        n_bars = max(n_bars, grammar.bars)
    return Song(tracks, n_bars)


def snap_song(song: Song, vocab: Vocab) -> Song:
    """The tokenizer's quantization as a Song->Song map: onsets to the
    position grid, durations to the mesh, velocities to bin midpoints.
    detokenize(tokenize_song(s)) == snap_song(s) for well-formed songs."""
    tracks = []
    for t in song.tracks:
        notes = []
        for n in t.notes:
            bar, tick = divmod(n.onset, TICKS_PER_BAR)
            onset = bar * TICKS_PER_BAR + snap_position(tick)
            if t.instrument == "Drum":
                notes.append(Note(drum_key(n.pitch), onset,
                                  DRUM_DURATION, DRUM_VELOCITY))
            else:
                notes.append(Note(n.pitch, onset, snap_to_mesh(n.duration),
                                  velocity_decode(velocity_bin(n.velocity))))
        tracks.append(Track(t.instrument, sorted_unique_notes(notes),
                            t.program, t.name, t.is_melody))
    return Song(tracks, song.n_bars, song.resolution)


def tokenize_remi_plus(song: Song, vocab: Vocab) -> list[int]:
    """Single interleaved sequence: Bar, Position, then per note either
    Instrument+Pitch+Duration+Velocity or Instrument+PitchDrum."""
    per_bar: list[dict[int, list[tuple[int, int, Note]]]] = [
        {} for _ in range(song.n_bars)]
    for ti, t in enumerate(song.tracks):
        for b, notes in enumerate(_bar_notes(t, song.n_bars)):
            for n in notes:
                pos = snap_position(n.onset % TICKS_PER_BAR)
                per_bar[b].setdefault(pos, []).append((ti, n.pitch, n))
    ids = [BOS_ID]
    for b, groups in enumerate(per_bar):
        ids.append(vocab.id_of("BarNormal", 0))
        for pos in sorted(groups):
            ids.append(vocab.id_of("Position", pos))
            for ti, _, n in sorted(groups[pos], key=lambda x: (x[0], x[1])):
                inst = song.tracks[ti].instrument
                ids.append(vocab.id_of("Instrument", inst))
                ids += _note_ids(n, inst == "Drum", vocab)
    ids.append(EOS_ID)
    return ids


@dataclass(frozen=True, slots=True)
class TokStats:
    voc_size: int
    tok_per_beat: float
    tok_per_note: float
    avg_len: float
    n_songs: int


def corpus_stats(corpus: list, note_counts: list[int], beat_counts: list[int],
                 voc_size: int) -> TokStats:
    """Token statistics over a corpus of TrackTokenSeqs or flat id lists.

    For parallel sequences, a song's length is its longest track (unpadded)
    and its token count sums all tracks without padding.
    """
    if not corpus:
        raise EmptyCorpus("no corpus entries")
    if len(corpus) != len(note_counts) or len(corpus) != len(beat_counts):
        raise DataError("corpus and count lists differ in length")
    total_tokens = 0
    total_len = 0
    for entry in corpus:
        if isinstance(entry, TrackTokenSeqs):
            total_tokens += sum(entry.lengths)
            total_len += max(entry.lengths, default=0)
        else:
            total_tokens += len(entry)
            total_len += len(entry)
    return TokStats(voc_size,
                    total_tokens / max(1, sum(beat_counts)),
                    total_tokens / max(1, sum(note_counts)),
                    total_len / len(corpus),
                    len(corpus))


# -- corpus / vocab files ------------------------------------------------------


def dump_token_corpus(entries: list[tuple[str, list[list[int]]]]) -> str:
    return dump_records([(song_id, "".join(" ".join(map(str, ids)) + "\n"
                                           for ids in tracks))
                         for song_id, tracks in entries])


def load_token_corpus(text: str) -> list[tuple[str, list[list[int]]]]:
    try:
        return [(song_id, [[int(x) for x in ln.split()] for ln in lines])
                for song_id, lines in load_records(text, "token corpus")]
    except ValueError as e:
        raise DataError(f"token corpus: bad id line ({e})") from e


def dump_vocab(vocab: Vocab) -> str:
    return "\n".join(f"{i} {s.kind}:{s.value}" for i, s in enumerate(vocab.specs)) + "\n"


def load_vocab(text: str) -> Vocab:
    """The fixed vocabulary, if every non-blank line of `text` is the line
    `dump_vocab` writes for it."""
    vocab = build_vocab()
    expected = dump_vocab(vocab).splitlines()
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    for i, (got, want) in enumerate(zip(lines, expected)):
        if got != want:
            raise DataError(f"vocab file: line {i + 1} reads {got!r}, expected {want!r}")
    if len(lines) != len(expected):
        raise DataError(f"vocab file: {len(lines)} entries, expected {len(expected)}")
    return vocab
