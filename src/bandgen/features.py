"""Per-track, per-bar control features.

The feature grid holds, for every (track, bar) cell, either the drum tuple
(onset-type count DT, drum density DD) or the pitched tuple (note density ND,
mean pitch MP, mean duration MD, mean velocity MV, plus four beat-level chord
labels CT shared by all pitched tracks). Raw values are quantized to fixed
bin tables; one extra sentinel bin per numeric feature marks empty bars.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError
from .score import (INSTRUMENTS, TICKS_PER_BAR, TICKS_PER_QUARTER, NoteColumns,
                    Song, dump_records, load_records, note_columns)

QUALITIES = ("maj", "min", "dim", "aug", "sus2", "sus4",
             "maj7", "min7", "dom7", "hdim7", "dim7")

_TEMPLATES = {
    "maj": (0, 4, 7),
    "min": (0, 3, 7),
    "dim": (0, 3, 6),
    "aug": (0, 4, 8),
    "sus2": (0, 2, 7),
    "sus4": (0, 5, 7),
    "maj7": (0, 4, 7, 11),
    "min7": (0, 3, 7, 10),
    "dom7": (0, 4, 7, 10),
    "hdim7": (0, 3, 6, 10),
    "dim7": (0, 3, 6, 9),
}

# bin-table sizes (sentinel for empty bars excluded)
CT_SIZE = 12 * len(QUALITIES) + 1  # 133 labels incl. the no-chord label
DT_SIZE = 32
DD_SIZE = 50
ND_SIZE = 66
MP_SIZE = 34
MD_SIZE = 30
MV_SIZE = 34

FEATURE_SIZES = {"ct": CT_SIZE, "dt": DT_SIZE, "dd": DD_SIZE, "nd": ND_SIZE,
                 "mp": MP_SIZE, "md": MD_SIZE, "mv": MV_SIZE}

# log-spaced duration-bin edges over [4, 384] ticks
_MD_EDGES = np.geomspace(4.0, 384.0, MD_SIZE + 1)

DRUM_KEYS_FEATURE = ("dt", "dd")
PITCHED_KEYS_FEATURE = ("nd", "mp", "md", "mv")

N_VQ_GROUPS = 8  # VQ codes per (track, bar) cell


@dataclass(frozen=True, slots=True)
class ChordLabel:
    root: int | None       # pitch class 0-11
    quality: str | None

    def __str__(self) -> str:
        if self.root is None:
            return "None"
        return f"{self.root}:{self.quality}"


NO_CHORD = ChordLabel(None, None)


def chord_index(label: ChordLabel) -> int:
    if label.root is None:
        return 0
    return 1 + label.root * len(QUALITIES) + QUALITIES.index(label.quality)


def chord_from_index(idx: int) -> ChordLabel:
    if idx == 0:
        return NO_CHORD
    root, q = divmod(idx - 1, len(QUALITIES))
    return ChordLabel(root, QUALITIES[q])


# every (label, template) pair in tie-break order: lower root, then earlier quality
_CHORD_TEMPLATES = tuple(
    (ChordLabel(root, quality), frozenset((root + off) % 12 for off in _TEMPLATES[quality]))
    for root in range(12) for quality in QUALITIES)


@functools.cache
def _chord_of(pcs: frozenset[int]) -> ChordLabel:
    best, best_score = NO_CHORD, -1e9
    for label, template in _CHORD_TEMPLATES:
        score = len(template & pcs) - 0.5 * len(pcs - template)
        if score > best_score:
            best, best_score = label, score
    return best if best_score >= 2 else NO_CHORD


def detect_chord(pitch_classes) -> ChordLabel:
    """Template match over all (root, quality) pairs.

    Score = matched template tones - 0.5 * non-chord pitch classes; ties go
    to the lower root, then earlier quality. None below 2 distinct classes
    or best score < 2. Labels are memoized per pitch-class set.
    """
    pcs = frozenset(int(p) % 12 for p in pitch_classes)
    return NO_CHORD if len(pcs) < 2 else _chord_of(pcs)


# chord index per 12-bit pitch-class mask, -1 until a beat first sounds it
_MASK_CHORD = np.full(1 << 12, -1, dtype=np.int64)
_LABELS = tuple(chord_from_index(i) for i in range(CT_SIZE))


def beat_chord_ids(cols: NoteColumns, n_beats: int) -> np.ndarray:
    """Chord index of each of the first n_beats beats over the pitched notes
    of `cols`. A note sounds in every beat from its onset's to the one
    holding its last tick (at least its onset's); its pitch-class bit is
    ORed into each of them."""
    onset, pitch = cols.onset[cols.pitched], cols.pitch[cols.pitched]
    first = onset // TICKS_PER_QUARTER
    end = (onset + cols.duration[cols.pitched] - 1) // TICKS_PER_QUARTER
    counts = np.clip(np.minimum(np.maximum(first, end) + 1, n_beats) - first, 0, None)
    starts = np.cumsum(counts) - counts
    beats = np.repeat(first - starts, counts) + np.arange(counts.sum())
    masks = np.zeros(n_beats, dtype=np.int64)
    np.bitwise_or.at(masks, beats, np.repeat(1 << pitch % 12, counts))
    unseen = _MASK_CHORD[masks] < 0
    if unseen.any():
        for m in set(masks[unseen].tolist()):
            pcs = [pc for pc in range(12) if m >> pc & 1]
            _MASK_CHORD[m] = chord_index(detect_chord(pcs))
    return _MASK_CHORD[masks]


@dataclass(slots=True)
class FeatureGrid:
    instruments: list[str]
    n_bars: int
    entries: list[list[dict]]        # [track][bar] -> feature dict
    chords: list[ChordLabel]         # per beat, 4 per bar
    binned: bool
    vq_entries: list[list[tuple[int, ...]]] | None = None

    @property
    def n_tracks(self) -> int:
        return len(self.instruments)


def extract_expert_features(song: Song) -> FeatureGrid:
    """Raw (unbinned) grid; empty cells get an empty dict. Every cell's note
    count, distinct drum pitches and pitch, duration and velocity sums are
    one np.bincount each over the song's note columns (the sums are of
    integers, so exact); notes past the song's bars are skipped."""
    cols = note_columns(song)  # checks the song's grid and onsets first
    n_bars = song.n_bars
    chords = [_LABELS[i] for i in beat_chord_ids(cols, n_bars * 4).tolist()]
    keep = cols.onset < n_bars * TICKS_PER_BAR
    cell = (np.repeat(np.arange(len(song.tracks)) * n_bars,
                      [len(t.notes) for t in song.tracks])
            + cols.onset // TICKS_PER_BAR)[keep]
    size = len(song.tracks) * n_bars
    count = np.bincount(cell, minlength=size)

    def mean(values: np.ndarray) -> list[float]:
        return (np.bincount(cell, values[keep], size) / np.maximum(count, 1)).tolist()

    pitches = np.unique(cell * 128 + cols.pitch[keep])
    distinct = np.bincount(pitches // 128, minlength=size).tolist()
    mp, md, mv = mean(cols.pitch), mean(cols.duration), mean(cols.velocity)
    count = count.tolist()
    entries: list[list[dict]] = []
    for ti, t in enumerate(song.tracks):
        cells = range(ti * n_bars, (ti + 1) * n_bars)
        if t.instrument == "Drum":
            entries.append([{"dt": float(distinct[c]), "dd": count[c] / 4.0}
                            if count[c] else {} for c in cells])
        else:
            entries.append([{"nd": count[c] / 4.0, "mp": mp[c], "md": md[c], "mv": mv[c]}
                            if count[c] else {} for c in cells])
    return FeatureGrid([t.instrument for t in song.tracks], n_bars,
                       entries, chords, binned=False)


# Each bin rule over an array of raw values. Each clips before it casts to
# int64, so a huge raw value cannot overflow; the cast truncates toward zero
# as int() does.
_BIN_RULES = {
    "dt": lambda raw: np.minimum(raw, DT_SIZE - 1).astype(np.int64),
    "dd": lambda raw: np.minimum(raw / 0.25, DD_SIZE - 1).astype(np.int64),
    "nd": lambda raw: np.minimum(raw / 0.25, ND_SIZE - 1).astype(np.int64),
    "mp": lambda raw: (np.clip(raw, 32, 99).astype(np.int64) - 32) // 2,
    "md": lambda raw: np.clip(np.searchsorted(_MD_EDGES, raw, side="right") - 1,
                              0, MD_SIZE - 1),
    "mv": lambda raw: np.clip(raw, 0, 135).astype(np.int64) // 4,
}


def _binned_rows(rows: list[list[dict]], keys: tuple[str, ...]) -> list[list[dict]]:
    """Bin `keys` of every non-empty cell of the rows, one array per key;
    empty cells take each key's sentinel bin (index = table size)."""
    filled = [cell for row in rows for cell in row if cell]
    raw = np.array([[cell[k] for k in keys] for cell in filled], float)
    raw = raw.reshape(len(filled), len(keys))
    bins = iter(zip(*(_BIN_RULES[k](raw[:, j]).tolist() for j, k in enumerate(keys))))
    empty = tuple(FEATURE_SIZES[k] for k in keys)
    return [[dict(zip(keys, next(bins) if cell else empty)) for cell in row]
            for row in rows]


def quantize_features(grid: FeatureGrid) -> FeatureGrid:
    """Bin every raw cell; empty cells take each feature's sentinel bin
    (index = table size). Pitched cells also take the four beat chords of
    their bar. Identity on already-binned grids."""
    if grid.binned:
        return grid
    drum = [inst == "Drum" for inst in grid.instruments]
    rows = [row[:grid.n_bars] for row in grid.entries]
    drum_rows = iter(_binned_rows([r for r, d in zip(rows, drum) if d],
                                  DRUM_KEYS_FEATURE))
    pitched_rows = iter(_binned_rows([r for r, d in zip(rows, drum) if not d],
                                     PITCHED_KEYS_FEATURE))
    cts = [chord_index(label) for label in grid.chords]
    entries: list[list[dict]] = []
    for is_drum in drum:
        if is_drum:
            entries.append(next(drum_rows))
            continue
        row = next(pitched_rows)
        for b, cell in enumerate(row):
            cell.update(zip(("ct0", "ct1", "ct2", "ct3"), cts[b * 4:(b + 1) * 4]))
        entries.append(row)
    return FeatureGrid(list(grid.instruments), grid.n_bars, entries,
                       list(grid.chords), binned=True, vq_entries=grid.vq_entries)


# -- text format ----------------------------------------------------------------
#
# GRID n_bars=<int>
# G <track> <instrument>
# F <track> <bar> k=v ...
# V <track> <bar> c0,...,c7        (optional VQ codes)

_KEY_ORDER = ("dt", "dd", "nd", "mp", "md", "mv", "ct0", "ct1", "ct2", "ct3")


def dump_feature_grid(grid: FeatureGrid) -> str:
    if not grid.binned:
        raise DataError("only binned grids are serialized")
    lines = [f"GRID n_bars={grid.n_bars}"]
    for ti, inst in enumerate(grid.instruments):
        lines.append(f"G {ti} {inst}")
    for ti in range(grid.n_tracks):
        for b in range(grid.n_bars):
            cell = grid.entries[ti][b]
            kv = " ".join(f"{k}={cell[k]}" for k in _KEY_ORDER if k in cell)
            lines.append(f"F {ti} {b} {kv}")
    if grid.vq_entries is not None:
        for ti in range(grid.n_tracks):
            for b in range(grid.n_bars):
                codes = ",".join(str(c) for c in grid.vq_entries[ti][b])
                lines.append(f"V {ti} {b} {codes}")
    return "\n".join(lines) + "\n"


_DRUM_CELL_KEYS = frozenset(DRUM_KEYS_FEATURE)
_PITCHED_CELL_KEYS = frozenset(PITCHED_KEYS_FEATURE + ("ct0", "ct1", "ct2", "ct3"))


def load_feature_grid(text: str) -> FeatureGrid:
    """Parse one grid: one F line with the instrument's keys per cell, and
    optionally one V line of N_VQ_GROUPS codes per cell."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("GRID n_bars="):
        raise DataError("feature grid: missing GRID header")
    try:
        n_bars = int(lines[0].split("=", 1)[1])
    except ValueError as e:
        raise DataError(f"feature grid: bad header {lines[0]!r}") from e
    if n_bars < 0:
        raise DataError(f"feature grid: bad header {lines[0]!r}")
    instruments: dict[int, str] = {}
    cells: dict[tuple[int, int], dict] = {}
    vq: dict[tuple[int, int], tuple[int, ...]] = {}
    for ln in lines[1:]:
        parts = ln.split()
        try:
            if parts[0] == "G":
                inst = parts[2]
                if inst not in INSTRUMENTS:
                    raise DataError(f"feature grid: unknown instrument {inst!r}")
                key = int(parts[1])
                table, value = instruments, inst
            elif parts[0] == "F":
                key = (int(parts[1]), int(parts[2]))
                pairs = [kv.split("=", 1) for kv in parts[3:]]
                table, value = cells, {k: int(v) for k, v in pairs}
                if len(value) != len(pairs):
                    raise DataError(f"feature grid: repeated key in {ln!r}")
            elif parts[0] == "V":
                key = (int(parts[1]), int(parts[2]))
                table, value = vq, tuple(int(x) for x in parts[3].split(","))
                if len(value) != N_VQ_GROUPS:
                    raise DataError(f"feature grid: {len(value)} VQ codes, "
                                    f"expected {N_VQ_GROUPS}: {ln!r}")
            else:
                raise DataError(f"feature grid: bad line {ln!r}")
        except (ValueError, IndexError) as e:
            raise DataError(f"feature grid: bad line {ln!r}") from e
        if key in table:
            raise DataError(f"feature grid: duplicate line {ln!r}")
        table[key] = value
    if sorted(instruments) != list(range(len(instruments))):
        raise DataError("feature grid: track indices not dense")
    n_tracks = len(instruments)
    grid_cells = {(ti, b) for ti in range(n_tracks) for b in range(n_bars)}
    if cells.keys() != grid_cells or (vq and vq.keys() != grid_cells):
        raise DataError(f"feature grid: F lines, and V lines if any, must cover "
                        f"the {n_tracks} x {n_bars} cells exactly")
    for (ti, b), cell in cells.items():
        keys = _DRUM_CELL_KEYS if instruments[ti] == "Drum" else _PITCHED_CELL_KEYS
        if cell.keys() != keys:
            raise DataError(f"feature grid: cell ({ti}, {b}) has keys {sorted(cell)}")
    entries = [[cells[(ti, b)] for b in range(n_bars)] for ti in range(n_tracks)]
    # the beat chords are shared by all pitched rows; read them from the first
    pitched = [row for ti, row in enumerate(entries) if instruments[ti] != "Drum"]
    chords = [chord_from_index(pitched[0][b][f"ct{j}"]) if pitched else NO_CHORD
              for b in range(n_bars) for j in range(4)]
    vq_entries = None
    if vq:
        vq_entries = [[vq[(ti, b)] for b in range(n_bars)] for ti in range(n_tracks)]
    return FeatureGrid([instruments[i] for i in range(n_tracks)], n_bars,
                       entries, chords, binned=True, vq_entries=vq_entries)


def dump_feature_corpus(entries: list[tuple[str, FeatureGrid]]) -> str:
    """Many grids in one file, one `#SONG <id>` record per grid."""
    return dump_records([(song_id, dump_feature_grid(grid))
                         for song_id, grid in entries])


def load_feature_corpus(text: str) -> list[tuple[str, FeatureGrid]]:
    return [(song_id, load_feature_grid("\n".join(lines)))
            for song_id, lines in load_records(text, "feature corpus")]
