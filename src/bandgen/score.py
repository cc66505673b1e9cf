"""Canonical multitrack score model and preprocessing.

A Song is a list of instrument tracks holding notes on an integer tick grid.
The canonical grid is 48 ticks per quarter note (192 per 4/4 bar); parsers may
produce songs at native MIDI resolution, which quantize_song snaps down.

Pipeline order: parse -> quantize -> compress instruments -> filter ->
window -> dedupe.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

import numpy as np

from .errors import (DataError, NoDrumTrack, NoMelodyTrack, NoteOutOfRange,
                     UsageError)

TICKS_PER_QUARTER = 48
TICKS_PER_BAR = 192
DRUM_DURATION = 24
DRUM_VELOCITY = 64

INSTRUMENTS = ("Drum", "Piano", "Guitar", "Bass", "Strings", "SquareSynth")
MAX_TRACKS = 4  # Drum, melody and the two largest other classes

# General-MIDI program ranges -> instrument class (non-melody tracks only;
# a melody track always becomes SquareSynth, drums always Drum).
_PROGRAM_CLASS_RANGES = (
    (0, 15, "Piano"),
    (16, 23, "Strings"),
    (24, 31, "Guitar"),
    (32, 39, "Bass"),
    (40, 103, "Strings"),
    (104, 127, "Strings"),
)

FILTER_MIN_TRACKS = 4
FILTER_MIN_BARS = 16      # strict: songs must have more bars than this
FILTER_MIN_NOTES = 512    # strict: songs must have more notes than this
FILTER_MAX_EMPTY_BARS = 4


@dataclass(frozen=True, slots=True)
class Note:
    pitch: int      # 0-127; drum-key number on drum tracks
    onset: int      # ticks from song start
    duration: int   # ticks, >= 1
    velocity: int   # 1-127


# the one note order: sorted_unique_notes, dump_song and the MIDI reader use it
NOTE_ORDER = operator.attrgetter("onset", "pitch", "duration", "velocity")


@dataclass(slots=True)
class Track:
    instrument: str
    notes: list[Note] = field(default_factory=list)
    program: int = 0        # GM program before compression
    name: str = ""
    is_melody: bool = False


@dataclass(slots=True)
class Song:
    tracks: list[Track] = field(default_factory=list)
    n_bars: int = 0
    resolution: int = TICKS_PER_QUARTER  # ticks per quarter note

    @property
    def ticks_per_bar(self) -> int:
        return self.resolution * 4

    def note_count(self) -> int:
        return sum(len(t.notes) for t in self.tracks)


@dataclass(frozen=True, slots=True)
class NoteColumns:
    """One song's notes as parallel int64 columns, track after track."""
    onset: np.ndarray
    duration: np.ndarray
    pitch: np.ndarray
    velocity: np.ndarray
    pitched: np.ndarray  # bool, False on drum tracks


def note_columns(song: Song) -> NoteColumns:
    """The columns that the tokenizer, the feature grid, the metrics and
    empty_bar_count read. A song off the canonical grid is a DataError, and
    so is a pitch or velocity outside 0-127; a negative onset is
    NoteOutOfRange. Onsets past the song's bars are kept: each reader
    rejects or skips them."""
    if song.resolution != TICKS_PER_QUARTER:
        raise DataError(f"song at {song.resolution} ticks per quarter; "
                        f"quantize it to {TICKS_PER_QUARTER} first")
    flat = [v for t in song.tracks for n in t.notes
            for v in (n.onset, n.duration, n.pitch, n.velocity)]
    table = np.fromiter(flat, np.int64, len(flat)).reshape(-1, 4)
    onset, duration, pitch, velocity = table.T
    if (onset < 0).any():
        raise NoteOutOfRange(f"note onset {onset.min()} before the song start")
    if ((pitch < 0) | (pitch > 127) | (velocity < 0) | (velocity > 127)).any():
        raise DataError("note pitch or velocity outside 0-127")
    pitched = np.repeat(np.array([t.instrument != "Drum" for t in song.tracks], bool),
                        [len(t.notes) for t in song.tracks])
    return NoteColumns(onset, duration, pitch, velocity, pitched)


@dataclass(frozen=True, slots=True)
class FilterVerdict:
    accepted: bool
    reasons: tuple[str, ...]


def program_to_class(program: int) -> str:
    for lo, hi, cls in _PROGRAM_CLASS_RANGES:
        if lo <= program <= hi:
            return cls
    raise DataError(f"program out of range: {program}")


def sorted_unique_notes(notes: list[Note]) -> list[Note]:
    """Sort by (onset, pitch, duration, velocity) and drop same-onset+pitch dups."""
    out: list[Note] = []
    seen: set[tuple[int, int]] = set()
    for n in sorted(notes, key=NOTE_ORDER):
        key = (n.onset, n.pitch)
        if key in seen:
            continue
        seen.add(key)
        out.append(n)
    return out


def _bars_spanned(tracks: list[Track], ticks_per_bar: int) -> int:
    last = -1
    for t in tracks:
        for n in t.notes:
            if n.onset > last:
                last = n.onset
    return 0 if last < 0 else last // ticks_per_bar + 1


def quantize_song(song: Song) -> Song:
    """Snap onsets/durations to the 48-per-quarter grid; normalize drums.

    Rounding is half-up on the scaled coordinate; durations floor at 1 tick.
    Idempotent on already-canonical songs.
    """
    scale = TICKS_PER_QUARTER / song.resolution
    tracks: list[Track] = []
    for t in song.tracks:
        notes: list[Note] = []
        for n in t.notes:
            onset = int(n.onset * scale + 0.5)
            if t.instrument == "Drum":
                dur, vel = DRUM_DURATION, DRUM_VELOCITY
            else:
                dur = max(1, int(n.duration * scale + 0.5))
                vel = min(127, max(1, n.velocity))
            notes.append(Note(n.pitch, onset, dur, vel))
        tracks.append(Track(t.instrument, sorted_unique_notes(notes),
                            t.program, t.name, t.is_melody))
    return Song(tracks, _bars_spanned(tracks, TICKS_PER_BAR), TICKS_PER_QUARTER)


def monophonic_ratio(track: Track) -> float:
    """Fraction of onset groups that are single notes not overlapped by the previous one."""
    if not track.notes:
        return 0.0
    groups: dict[int, list[Note]] = {}
    for n in track.notes:
        groups.setdefault(n.onset, []).append(n)
    onsets = sorted(groups)
    mono = 0
    prev_end = 0
    for o in onsets:
        g = groups[o]
        if len(g) == 1 and o >= prev_end:
            mono += 1
        prev_end = max(prev_end, max(n.onset + n.duration for n in g))
    return mono / len(onsets)


def find_melody_index(song: Song) -> int:
    """Melody track: explicit flag wins; else highest mean pitch among
    non-drum tracks that are >= 90% monophonic."""
    for i, t in enumerate(song.tracks):
        if t.is_melody and t.instrument != "Drum":
            return i
    best = -1
    best_pitch = -1.0
    for i, t in enumerate(song.tracks):
        if t.instrument == "Drum" or not t.notes:
            continue
        if monophonic_ratio(t) < 0.9:
            continue
        mp = sum(n.pitch for n in t.notes) / len(t.notes)
        if mp > best_pitch:
            best, best_pitch = i, mp
    if best < 0:
        raise NoMelodyTrack("no track qualifies as melody")
    return best


def compress_instruments(song: Song) -> Song:
    """Map tracks to the six classes, merge same-class tracks, and keep
    Drum + melody (SquareSynth) + the largest remaining classes, up to
    MAX_TRACKS in all."""
    if not any(t.instrument == "Drum" and t.notes for t in song.tracks):
        raise NoDrumTrack("no drum track with notes")
    melody_idx = find_melody_index(song)

    merged: dict[str, list[Note]] = {}
    for i, t in enumerate(song.tracks):
        if t.instrument == "Drum":
            cls = "Drum"
        elif i == melody_idx:
            cls = "SquareSynth"
        else:
            cls = program_to_class(t.program)
        merged.setdefault(cls, []).extend(t.notes)

    keep = {c for c in ("Drum", "SquareSynth") if c in merged}
    rest = [c for c in merged if c not in ("Drum", "SquareSynth")]
    # largest note count wins; ties break by class enum order
    rest.sort(key=lambda c: (-len(merged[c]), INSTRUMENTS.index(c)))
    keep.update(rest[:MAX_TRACKS - len(keep)])

    tracks = [Track(c, sorted_unique_notes(merged[c]), is_melody=(c == "SquareSynth"))
              for c in INSTRUMENTS if c in keep]
    return Song(tracks, _bars_spanned(tracks, song.ticks_per_bar), song.resolution)


def empty_bar_count(song: Song) -> int:
    """Bars in which no note starts. The song must be on the canonical grid
    (see `note_columns`); a note past its bars is NoteOutOfRange."""
    onset = note_columns(song).onset
    past = onset >= song.n_bars * TICKS_PER_BAR
    if past.any():
        raise NoteOutOfRange(f"note onset {onset[past].max()} outside {song.n_bars} bars")
    occupied = np.bincount(onset // TICKS_PER_BAR, minlength=song.n_bars)
    return int(np.count_nonzero(occupied == 0))


def filter_song(song: Song) -> FilterVerdict:
    """Quality rules over a quantized, compressed song; all violations listed."""
    reasons: list[str] = []
    if len(song.tracks) < FILTER_MIN_TRACKS:
        reasons.append("MinTracks")
    if not any(t.instrument == "Drum" for t in song.tracks):
        reasons.append("NoDrumTrack")
    if not any(t.instrument == "SquareSynth" for t in song.tracks):
        reasons.append("NoMelodyTrack")
    if song.n_bars <= FILTER_MIN_BARS:
        reasons.append("MinBars")
    if song.note_count() <= FILTER_MIN_NOTES:
        reasons.append("MinNotes")
    if song.n_bars and empty_bar_count(song) > FILTER_MAX_EMPTY_BARS:
        reasons.append("MaxEmptyBars")
    return FilterVerdict(not reasons, tuple(reasons))


def _slice_window(song: Song, start_bar: int, end_bar: int) -> Song:
    tpb = song.ticks_per_bar
    lo, hi = start_bar * tpb, end_bar * tpb
    tracks = []
    for t in song.tracks:
        notes = [Note(n.pitch, n.onset - lo, n.duration, n.velocity)
                 for n in t.notes if lo <= n.onset < hi]
        tracks.append(Track(t.instrument, notes, t.program, t.name, t.is_melody))
    return Song(tracks, end_bar - start_bar, song.resolution)


def split_windows(song: Song, min_bars: int, max_bars: int, stride: int) -> list[Song]:
    """Fixed-size windows every `stride` bars, plus one shorter tail window
    when at least min_bars remain past the last full window."""
    if not 1 <= min_bars <= max_bars or stride < 1:
        raise UsageError(f"windows need 1 <= min_bars <= max_bars and stride "
                         f">= 1, got {min_bars}, {max_bars}, {stride}")
    n = song.n_bars
    if n < min_bars:
        return []
    if n <= max_bars:
        return [_slice_window(song, 0, n)]
    spans: list[tuple[int, int]] = []
    s = 0
    while s + max_bars <= n:
        spans.append((s, s + max_bars))
        s += stride
    if n - s >= min_bars:
        spans.append((s, n))
    return [_slice_window(song, a, b) for a, b in spans]


def dedupe_corpus(songs: list[Song]) -> list[Song]:
    """Keep the first song of each class keyed by the binned expert-feature grid."""
    from .features import extract_expert_features, quantize_features

    out: list[Song] = []
    seen: set[tuple] = set()
    for s in songs:
        grid = quantize_features(extract_expert_features(s))
        key = (grid.n_bars, tuple(grid.instruments),
               tuple(tuple(cell.items()) for row in grid.entries for cell in row))
        if key in seen:
            continue
        seen.add(key)
        out.append(s)
    return out


# -- line-oriented text format ------------------------------------------------
#
# SONG n_bars=<int>
# T<idx> <instrument>                              (declaration, empty tracks)
# T<idx> <instrument> <onset> <pitch> <dur> <vel>  (one line per note)


def dump_song(song: Song) -> str:
    lines = [f"SONG n_bars={song.n_bars}"]
    for i, t in enumerate(song.tracks):
        if not t.notes:
            lines.append(f"T{i} {t.instrument}")
    for i, t in enumerate(song.tracks):
        for n in sorted(t.notes, key=NOTE_ORDER):
            lines.append(f"T{i} {t.instrument} {n.onset} {n.pitch} {n.duration} {n.velocity}")
    return "\n".join(lines) + "\n"


def load_song(text: str) -> Song:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("SONG n_bars="):
        raise DataError("song text: missing SONG header")
    try:
        n_bars = int(lines[0].split("=", 1)[1])
    except ValueError as e:
        raise DataError(f"song text: bad header {lines[0]!r}") from e
    if n_bars < 0:
        raise DataError(f"song text: negative bar count {n_bars}")

    insts: dict[int, str] = {}
    notes: dict[int, list[Note]] = {}
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) not in (2, 6) or not parts[0].startswith("T"):
            raise DataError(f"song text: bad line {ln!r}")
        try:
            idx = int(parts[0][1:])
        except ValueError as e:
            raise DataError(f"song text: bad track index in {ln!r}") from e
        inst = parts[1]
        if inst not in INSTRUMENTS:
            raise DataError(f"song text: unknown instrument {inst!r}")
        if insts.setdefault(idx, inst) != inst:
            raise DataError(f"song text: track {idx} declared as two instruments")
        notes.setdefault(idx, [])
        if len(parts) == 6:
            try:
                onset, pitch, dur, vel = (int(x) for x in parts[2:])
            except ValueError as e:
                raise DataError(f"song text: bad note in {ln!r}") from e
            if not 0 <= onset < n_bars * TICKS_PER_BAR:
                raise DataError(f"song text: note onset {onset} outside "
                                f"{n_bars} bars in {ln!r}")
            if not (0 <= pitch <= 127 and dur >= 1 and 1 <= vel <= 127):
                raise DataError(f"song text: pitch, duration or velocity out "
                                f"of range in {ln!r}")
            notes[idx].append(Note(pitch, onset, dur, vel))

    if sorted(insts) != list(range(len(insts))):
        raise DataError("song text: track indices not dense from 0")
    tracks = [Track(insts[i], notes[i], is_melody=(insts[i] == "SquareSynth"))
              for i in range(len(insts))]
    return Song(tracks, n_bars, TICKS_PER_QUARTER)


# -- corpus files: a `#SONG <id>` header line, then the song's body lines -----


def dump_records(records: list[tuple[str, str]]) -> str:
    """Join (song id, body) pairs; each body ends with a newline."""
    for song_id, _ in records:
        if not song_id.strip() or song_id.splitlines() != [song_id]:
            raise DataError(f"song id {song_id!r} cannot head a #SONG record")
    return "".join(f"#SONG {song_id}\n{body}" for song_id, body in records)


def load_records(text: str, what: str) -> list[tuple[str, list[str]]]:
    """Split a corpus file into (song id, non-blank body lines) pairs. Any
    line starting with `#SONG` that is not a header, and any body line before
    the first header, is a DataError naming `what`."""
    records: list[tuple[str, list[str]]] = []
    for ln in text.splitlines():
        if ln.startswith("#SONG"):
            tag, _, song_id = ln.partition(" ")
            if tag != "#SONG" or not song_id.strip():
                raise DataError(f"{what}: bad #SONG header {ln!r}")
            records.append((song_id, []))
        elif ln.strip():
            if not records:
                raise DataError(f"{what}: data before the first #SONG header")
            records[-1][1].append(ln)
    return records
