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

Each quantization rule has one form, over whole arrays; the tests keep the
scalar forms as oracles.

A single-sequence interleaved form (tokenize_remi_plus) is kept for length
statistics only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, EmptyCorpus, MalformedSequence, NoteOutOfRange
from .score import (DRUM_DURATION, DRUM_VELOCITY, INSTRUMENTS, TICKS_PER_BAR,
                    Note, NoteColumns, Song, Track, dump_records, load_records,
                    note_columns, sorted_unique_notes)

PAD_ID = 0
BOS_ID = 1
EOS_ID = 2

NOTE_KINDS = frozenset({"Pitch", "PitchDrum", "Duration", "Velocity"})
BAR_KINDS = frozenset({"BarNormal", "BarEmpty"})

# 31 percussion keys: GM 35-59 plus a folded low-range group
DRUM_KEYS = tuple(sorted(set(range(35, 60)) | {25, 26, 27, 28, 29, 31}))
# nearest listed drum key per raw pitch 0-127, ties to the lower key
_DRUM_KEY = np.array([min(DRUM_KEYS, key=lambda k: (abs(k - p), k)) for p in range(128)])

POSITION_GRID = 4
DURATION_MESH = tuple(
    list(range(4, 49, 4)) + list(range(60, 193, 12)) + list(range(216, 385, 24)))

VELOCITY_BINS = 32
# the bin of each velocity 0-127
VELOCITY_BIN = np.minimum(np.arange(128) // 4, VELOCITY_BINS - 1)


def velocity_decode(bin_idx: int | np.ndarray) -> int | np.ndarray:
    """A bin's midpoint velocity; takes an int or an int array."""
    return 4 * bin_idx + 2


_MESH = np.array(DURATION_MESH)
_MESH_MIDPOINTS = (_MESH[:-1] + _MESH[1:]) / 2


def mesh_index(durations: np.ndarray) -> np.ndarray:
    """Each duration's nearest DURATION_MESH value, as an index into it: a
    left search of the midpoints takes the nearest value, ties the smaller."""
    return np.searchsorted(_MESH_MIDPOINTS, durations)


def _slot(tick: np.ndarray) -> np.ndarray:
    """Each tick-in-bar's position slot: the nearest POSITION_GRID multiple,
    ties up, with the ticks past the last slot in the last."""
    return np.minimum((tick + POSITION_GRID // 2) // POSITION_GRID,
                      TICKS_PER_BAR // POSITION_GRID - 1)


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
        self.drum_ids = ids("PitchDrum", _DRUM_KEY)  # by raw pitch
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


def bar_of(bar_token_positions: list[int], positions: np.ndarray) -> np.ndarray:
    """The bar of each of `positions` in a track whose bar tokens sit at the
    ascending `bar_token_positions`, int64: 0 before the first bar token (the
    framing tokens), else that of the latest bar token, padding included."""
    return np.maximum(np.searchsorted(bar_token_positions, positions, "right") - 1, 0)


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
        """The bar of every position, int64 [I, T], by `bar_of`."""
        positions = np.arange(self.length)
        return np.array([bar_of(bars, positions) for bars in self.bar_token_positions],
                        dtype=np.int64).reshape(self.n_tracks, self.length)


def _placed(song: Song) -> tuple[NoteColumns, np.ndarray, np.ndarray, np.ndarray]:
    """The song's note columns and each note's track, bar and position slot.
    A note outside the song's bars is NoteOutOfRange."""
    cols = note_columns(song)
    bar, tick = np.divmod(cols.onset, TICKS_PER_BAR)
    if (bar >= song.n_bars).any():
        raise NoteOutOfRange(f"onset {cols.onset[bar >= song.n_bars].max()} "
                             f"outside {song.n_bars} bars")
    track = np.repeat(np.arange(len(song.tracks)), [len(t.notes) for t in song.tracks])
    return cols, track, bar, _slot(tick)


def _lay_out(cols: NoteColumns, note: np.ndarray, cell: np.ndarray, slot: np.ndarray,
             n_cells: int, vocab: Vocab, empty_bar: int,
             lead: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Write notes into one flat id array of `n_cells` cells. Each cell opens
    with a bar token: BarNormal, or `empty_bar` if it holds no note. Then
    come its notes, in the order of `note` (indices into `cols`, sorted by
    `cell` and `slot`): a Position token if the note opens its (cell, slot),
    its `lead` id if given, and its one or three ids. Returns the ids and
    each cell's bar-token index, with the total length after the last."""
    pitched = cols.pitched[note]
    opens = np.ones(len(note), bool)
    opens[1:] = (cell[1:] != cell[:-1]) | (slot[1:] != slot[:-1])
    width = opens + np.where(pitched, 3, 1) + int(lead is not None)
    ends = np.cumsum(width)
    # a cell's bar token follows the bar tokens and notes of all earlier
    # cells; one more entry past the last cell is the total length
    cells = np.arange(n_cells + 1)
    before = np.searchsorted(cell, cells)  # notes in earlier cells
    bar_at = cells + np.concatenate(([0], ends))[before]
    out = np.empty(bar_at[-1], np.int64)
    out[bar_at[:-1]] = np.where(before[1:] > before[:-1], vocab.id_of("BarNormal", 0),
                                empty_bar)
    at = ends - width + cell + 1  # each note's start, after its cell's bar token
    out[at[opens]] = vocab.position_ids[slot[opens]]
    at = at + opens
    if lead is not None:
        out[at] = lead
        at = at + 1
    out[at[~pitched]] = vocab.drum_ids[cols.pitch[note[~pitched]]]
    note, at = note[pitched], at[pitched]
    out[at] = vocab.pitch_ids[cols.pitch[note]]
    out[at + 1] = vocab.duration_ids[mesh_index(cols.duration[note])]
    out[at + 2] = vocab.velocity_ids[VELOCITY_BIN[cols.velocity[note]]]
    return out, bar_at


def tokenize_song(song: Song, vocab: Vocab) -> TrackTokenSeqs:
    """Track-parallel ids of a song on the canonical grid. A song off the
    grid, or with a pitch or velocity outside 0-127, is a DataError; a note
    outside the song's bars is NoteOutOfRange.

    Notes sort by (track, bar, position, pitch, duration, velocity); the
    first of each (track, bar, position, key) stays, where the key is the
    pitch, or on a drum track the drum key (monotone in the pitch, so equal
    keys are neighbours). Each (track, bar) is one cell of `_lay_out`, whose
    bar-token indices give each track's bar positions."""
    cols, track, bar, slot = _placed(song)
    n_tracks, n_bars = len(song.tracks), song.n_bars
    cell = track * n_bars + bar
    key = np.where(cols.pitched, cols.pitch, _DRUM_KEY[cols.pitch])
    order = np.lexsort((cols.velocity, cols.duration, cols.pitch, slot, cell))
    cell, slot, key = cell[order], slot[order], key[order]
    first = np.ones(len(order), bool)
    first[1:] = (cell[1:] != cell[:-1]) | (slot[1:] != slot[:-1]) | (key[1:] != key[:-1])
    out, bar_at = _lay_out(cols, order[first], cell[first], slot[first],
                           n_tracks * n_bars, vocab, vocab.id_of("BarEmpty", 0))
    starts = bar_at[::n_bars] if n_bars else np.zeros(n_tracks + 1, np.int64)
    # each track's bar tokens follow its Instrument and BOS
    bars = bar_at[:-1].reshape(n_tracks, n_bars) - starts[:-1, None] + 2
    flat, bounds = out.tolist(), starts.tolist()
    return _padded([[vocab.id_of("Instrument", t.instrument), BOS_ID] + flat[a:b] + [EOS_ID]
                    for t, a, b in zip(song.tracks, bounds, bounds[1:])], bars.tolist())


def build_track_seqs(lists: list[list[int]], vocab) -> TrackTokenSeqs:
    """Assemble padded parallel sequences from raw id lists. Works over
    extended (BPE) vocabularies: ids >= vocab.size are note runs, never bar
    tokens."""
    bar_ids = vocab.bar_ids
    bar_positions = []
    for ids in lists:
        if ids and min(ids) < 0:
            raise DataError(f"token id {min(ids)} out of vocab")
        bar_positions.append([k for k, tid in enumerate(ids) if tid in bar_ids])
    return _padded(lists, bar_positions)


def _padded(lists: list[list[int]], bar_positions: list[list[int]]) -> TrackTokenSeqs:
    width = max(map(len, lists), default=0)
    return TrackTokenSeqs([ids + [PAD_ID] * (width - len(ids)) for ids in lists],
                          bar_positions, [len(ids) for ids in lists])


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
    position grid, durations to the mesh, velocities to bin midpoints and
    drum pitches to drum keys; each track keeps one note per (onset, key),
    the one `tokenize_song` keeps: the first by raw pitch, duration and
    velocity. detokenize(tokenize_song(s)) == snap_song(s) for well-formed
    songs. It refuses the songs that tokenize_song refuses."""
    cols, track, bar, slot = _placed(song)
    pitched = cols.pitched
    onset = bar * TICKS_PER_BAR + slot * POSITION_GRID
    key = np.where(pitched, cols.pitch, _DRUM_KEY[cols.pitch])
    order = np.lexsort((cols.velocity, cols.duration, cols.pitch, key, onset, track))
    track, onset, pitch = track[order], onset[order], key[order]
    duration = np.where(pitched, _MESH[mesh_index(cols.duration)], DRUM_DURATION)[order]
    velocity = np.where(pitched, velocity_decode(VELOCITY_BIN[cols.velocity]),
                        DRUM_VELOCITY)[order]
    keep = np.ones(len(order), bool)
    keep[1:] = ((track[1:] != track[:-1]) | (onset[1:] != onset[:-1])
                | (pitch[1:] != pitch[:-1]))
    notes = list(map(Note, *(c[keep].tolist() for c in (pitch, onset, duration, velocity))))
    bounds = np.searchsorted(track[keep], np.arange(len(song.tracks) + 1)).tolist()
    return Song([Track(t.instrument, notes[a:b], t.program, t.name, t.is_melody)
                 for t, a, b in zip(song.tracks, bounds, bounds[1:])],
                song.n_bars, song.resolution)


def tokenize_remi_plus(song: Song, vocab: Vocab) -> list[int]:
    """Single interleaved sequence: BOS, then per bar a BarNormal (an empty
    bar too) and per position a Position, then its notes in (track, pitch)
    order, each as Instrument+Pitch+Duration+Velocity or Instrument+PitchDrum;
    then EOS. Every note is kept, and ties keep their track's note order.
    Each bar is one cell of `_lay_out`."""
    cols, track, bar, slot = _placed(song)
    order = np.lexsort((cols.pitch, track, slot, bar))  # stable
    instrument_ids = np.array([vocab.id_of("Instrument", t.instrument)
                               for t in song.tracks], np.int64)
    out, _ = _lay_out(cols, order, bar[order], slot[order], song.n_bars, vocab,
                      vocab.id_of("BarNormal", 0), lead=instrument_ids[track[order]])
    return [BOS_ID] + out.tolist() + [EOS_ID]


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
