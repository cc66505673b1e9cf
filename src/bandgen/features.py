"""Per-track, per-bar control features.

The feature grid holds, for every (track, bar) cell, either the drum tuple
(onset-type count DT, drum density DD) or the pitched tuple (note density ND,
mean pitch MP, mean duration MD, mean velocity MV, plus four beat-level chord
labels CT shared by all pitched tracks). Raw values are quantized to fixed
bin tables; one extra sentinel bin per numeric feature marks empty bars.

`FeatureGrid.cells` is one array [tracks, bars, 10] whose columns are
`CELL_KEYS`; a drum track uses the `DRUM_COLS` columns and a pitched track
the `PITCHED_COLS` ones. A raw grid is float64, with NaN in an empty cell
and in the other kind's columns (and in the CT columns, which quantizing
fills from `chords`). A binned grid is int64: an empty cell holds each
numeric feature's sentinel bin and the other kind's columns hold -1.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

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
CELL_KEYS = DRUM_KEYS_FEATURE + PITCHED_KEYS_FEATURE + ("ct0", "ct1", "ct2", "ct3")
DRUM_COLS = slice(0, 2)       # dt, dd
PITCHED_COLS = slice(2, 10)   # nd, mp, md, mv, ct0-ct3
_N_NUMERIC = 6                # the columns before the chords

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
    cells: np.ndarray                # [track, bar, CELL_KEYS]: float64 raw, int64 binned
    chords: list[ChordLabel]         # per beat, 4 per bar
    vq_entries: list[list[tuple[int, ...]]] | None = None

    @property
    def n_tracks(self) -> int:
        return len(self.instruments)

    @property
    def binned(self) -> bool:
        return self.cells.dtype.kind == "i"


def _fill_other_kind(cells: np.ndarray, instruments: list[str], fill) -> np.ndarray:
    """`cells` with `fill` in each track's columns of the other kind."""
    drum = np.array([inst == "Drum" for inst in instruments], dtype=bool)
    cells[drum, :, PITCHED_COLS] = fill
    cells[~drum, :, DRUM_COLS] = fill
    return cells


def extract_expert_features(song: Song) -> FeatureGrid:
    """Raw (unbinned) grid. Every cell's note count, distinct drum pitches
    and pitch, duration and velocity sums are one np.bincount each over the
    song's note columns (the sums are of integers, so exact); notes past
    the song's bars are skipped."""
    cols = note_columns(song)  # checks the song's grid and onsets first
    n_tracks, n_bars = len(song.tracks), song.n_bars
    chords = [_LABELS[i] for i in beat_chord_ids(cols, n_bars * 4).tolist()]
    keep = cols.onset < n_bars * TICKS_PER_BAR
    cell = (np.repeat(np.arange(n_tracks) * n_bars, [len(t.notes) for t in song.tracks])
            + cols.onset // TICKS_PER_BAR)[keep]
    size = n_tracks * n_bars
    count = np.bincount(cell, minlength=size)

    def mean(values: np.ndarray) -> np.ndarray:
        return np.bincount(cell, values[keep], size) / np.maximum(count, 1)

    distinct = np.bincount(np.unique(cell * 128 + cols.pitch[keep]) // 128, minlength=size)
    raw = np.stack([distinct, count / 4.0, count / 4.0, mean(cols.pitch),
                    mean(cols.duration), mean(cols.velocity)], axis=-1)
    raw[count == 0] = np.nan
    instruments = [t.instrument for t in song.tracks]
    cells = np.full((n_tracks, n_bars, len(CELL_KEYS)), np.nan)
    cells[..., :_N_NUMERIC] = raw.reshape(n_tracks, n_bars, _N_NUMERIC)
    return FeatureGrid(instruments, n_bars, _fill_other_kind(cells, instruments, np.nan),
                       chords)


# Each bin rule over an array of raw values. Each clips before it casts to
# int64, so a huge raw value cannot overflow; the cast truncates toward zero
# as int() does. A NaN cast to int64 is garbage, so callers mask it first.
_BIN_RULES = {
    "dt": lambda raw: np.minimum(raw, DT_SIZE - 1).astype(np.int64),
    "dd": lambda raw: np.minimum(raw / 0.25, DD_SIZE - 1).astype(np.int64),
    "nd": lambda raw: np.minimum(raw / 0.25, ND_SIZE - 1).astype(np.int64),
    "mp": lambda raw: (np.clip(raw, 32, 99).astype(np.int64) - 32) // 2,
    "md": lambda raw: np.clip(np.searchsorted(_MD_EDGES, raw, side="right") - 1,
                              0, MD_SIZE - 1),
    "mv": lambda raw: np.clip(raw, 0, 135).astype(np.int64) // 4,
}


def quantize_features(grid: FeatureGrid) -> FeatureGrid:
    """Bin every raw cell, one column at a time; empty cells take each
    feature's sentinel bin (index = table size). Pitched cells also take
    the four beat chords of their bar; each track's columns of the other
    kind hold -1. Identity on already-binned grids."""
    if grid.binned:
        return grid
    cells = np.empty(grid.cells.shape, dtype=np.int64)
    for j, key in enumerate(CELL_KEYS[:_N_NUMERIC]):
        raw = grid.cells[..., j]
        empty = np.isnan(raw)
        cells[..., j] = np.where(empty, FEATURE_SIZES[key],
                                 _BIN_RULES[key](np.where(empty, 0.0, raw)))
    cells[..., _N_NUMERIC:] = np.array([chord_index(label) for label in grid.chords],
                                       dtype=np.int64).reshape(grid.n_bars, 4)
    return FeatureGrid(list(grid.instruments), grid.n_bars,
                       _fill_other_kind(cells, grid.instruments, -1),
                       list(grid.chords), grid.vq_entries)


# -- text format ----------------------------------------------------------------
#
# GRID n_bars=<int>
# G <track> <instrument>
# F <track> <bar> k=v ...
# V <track> <bar> c0,...,c7        (optional VQ codes)

def _kind_cols(instrument: str) -> slice:
    return DRUM_COLS if instrument == "Drum" else PITCHED_COLS


def dump_feature_grid(grid: FeatureGrid) -> str:
    if not grid.binned:
        raise DataError("only binned grids are serialized")
    lines = [f"GRID n_bars={grid.n_bars}"]
    for ti, inst in enumerate(grid.instruments):
        lines.append(f"G {ti} {inst}")
    for ti, (inst, row) in enumerate(zip(grid.instruments, grid.cells.tolist())):
        cols = _kind_cols(inst)
        for b, cell in enumerate(row):
            kv = " ".join(f"{k}={v}" for k, v in zip(CELL_KEYS[cols], cell[cols]))
            lines.append(f"F {ti} {b} {kv}")
    if grid.vq_entries is not None:
        for ti in range(grid.n_tracks):
            for b in range(grid.n_bars):
                codes = ",".join(str(c) for c in grid.vq_entries[ti][b])
                lines.append(f"V {ti} {b} {codes}")
    return "\n".join(lines) + "\n"


# one past the largest value of each F key: the sentinel bin, or the last chord
_F_LIMITS = {k: FEATURE_SIZES[k] + 1 if k in FEATURE_SIZES else CT_SIZE for k in CELL_KEYS}


def load_feature_grid(text: str) -> FeatureGrid:
    """Parse one grid: one F line with the instrument's keys per cell, each
    value in its table, and optionally one V line of N_VQ_GROUPS codes in
    int64 range, none negative, per cell. A grid without tracks has no bars."""
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
            if parts[0] == "G" and len(parts) == 3:
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
            elif parts[0] == "V" and len(parts) == 4:
                key = (int(parts[1]), int(parts[2]))
                table, value = vq, tuple(int(x) for x in parts[3].split(","))
                if len(value) != N_VQ_GROUPS or not all(0 <= c < 1 << 63 for c in value):
                    raise DataError(f"feature grid: expected {N_VQ_GROUPS} VQ codes "
                                    f"in 0..2**63-1: {ln!r}")
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
    if n_bars and not n_tracks:   # only the header would size the chord list
        raise DataError(f"feature grid: {n_bars} bars but no tracks")
    # the keys are distinct, so in range and as many as the cells means a cover
    if (len(cells) != n_tracks * n_bars
            or not all(0 <= ti < n_tracks and 0 <= b < n_bars for ti, b in cells)
            or (vq and vq.keys() != cells.keys())):
        raise DataError(f"feature grid: F lines, and V lines if any, must cover "
                        f"the {n_tracks} x {n_bars} cells exactly")
    grid_cells = np.full((n_tracks, n_bars, len(CELL_KEYS)), -1, dtype=np.int64)
    for (ti, b), cell in cells.items():
        cols = _kind_cols(instruments[ti])
        keys = CELL_KEYS[cols]
        if cell.keys() != set(keys) or not all(0 <= cell[k] < _F_LIMITS[k] for k in keys):
            raise DataError(f"feature grid: cell ({ti}, {b}) needs the keys {keys}, "
                            f"each in its table: {cell}")
        grid_cells[ti, b, cols] = [cell[k] for k in keys]
    # the beat chords are shared by all pitched rows; read them from the first
    pitched = [ti for ti in range(n_tracks) if instruments[ti] != "Drum"]
    chords = ([_LABELS[i] for i in grid_cells[pitched[0], :, _N_NUMERIC:].ravel().tolist()]
              if pitched else [NO_CHORD] * (4 * n_bars))
    vq_entries = ([[vq[(ti, b)] for b in range(n_bars)] for ti in range(n_tracks)]
                  if vq else None)
    return FeatureGrid([instruments[i] for i in range(n_tracks)], n_bars, grid_cells,
                       chords, vq_entries)


def dump_feature_corpus(entries: list[tuple[str, FeatureGrid]]) -> str:
    """Many grids in one file, one `#SONG <id>` record per grid."""
    return dump_records([(song_id, dump_feature_grid(grid))
                         for song_id, grid in entries])


def load_feature_corpus(text: str) -> list[tuple[str, FeatureGrid]]:
    return [(song_id, load_feature_grid("\n".join(lines)))
            for song_id, lines in load_records(text, "feature corpus")]
