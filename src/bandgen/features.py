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


def beat_chords(song: Song) -> list[ChordLabel]:
    """One chord per beat over the union of pitched tracks; held notes count."""
    ids = beat_chord_ids(note_columns(song), song.n_bars * 4)
    return [_LABELS[i] for i in ids.tolist()]


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
    """Raw (unbinned) grid; empty cells get an empty dict."""
    chords = beat_chords(song)  # checks the song's grid and onsets first
    entries: list[list[dict]] = []
    for t in song.tracks:
        bars: list[list] = [[] for _ in range(song.n_bars)]
        for n in t.notes:
            b = n.onset // TICKS_PER_BAR
            if b < song.n_bars:
                bars[b].append(n)
        row: list[dict] = []
        for notes in bars:
            if not notes:
                row.append({})
            elif t.instrument == "Drum":
                row.append({"dt": float(len({n.pitch for n in notes})),
                            "dd": len(notes) / 4.0})
            else:
                row.append({"nd": len(notes) / 4.0,
                            "mp": sum(n.pitch for n in notes) / len(notes),
                            "md": sum(n.duration for n in notes) / len(notes),
                            "mv": sum(n.velocity for n in notes) / len(notes)})
        entries.append(row)
    return FeatureGrid([t.instrument for t in song.tracks], song.n_bars,
                       entries, chords, binned=False)


def dt_bin(raw: float) -> int:
    return min(int(raw), DT_SIZE - 1)


def dd_bin(raw: float) -> int:
    return min(int(raw / 0.25), DD_SIZE - 1)


def nd_bin(raw: float) -> int:
    return min(int(raw / 0.25), ND_SIZE - 1)


def mp_bin(raw: float) -> int:
    return (min(max(int(raw), 32), 99) - 32) // 2


def md_bin(raw: float) -> int:
    i = int(np.searchsorted(_MD_EDGES, raw, side="right")) - 1
    return min(max(i, 0), MD_SIZE - 1)


def mv_bin(raw: float) -> int:
    return min(max(int(raw), 0), 135) // 4


def quantize_features(grid: FeatureGrid) -> FeatureGrid:
    """Bin every raw cell; empty cells take each feature's sentinel bin
    (index = table size). Identity on already-binned grids."""
    if grid.binned:
        return grid
    entries: list[list[dict]] = []
    for ti, inst in enumerate(grid.instruments):
        row: list[dict] = []
        for b in range(grid.n_bars):
            raw = grid.entries[ti][b]
            if inst == "Drum":
                if raw:
                    cell = {"dt": dt_bin(raw["dt"]), "dd": dd_bin(raw["dd"])}
                else:
                    cell = {"dt": DT_SIZE, "dd": DD_SIZE}
            else:
                if raw:
                    cell = {"nd": nd_bin(raw["nd"]), "mp": mp_bin(raw["mp"]),
                            "md": md_bin(raw["md"]), "mv": mv_bin(raw["mv"])}
                else:
                    cell = {"nd": ND_SIZE, "mp": MP_SIZE, "md": MD_SIZE, "mv": MV_SIZE}
                cts = grid.chords[b * 4:(b + 1) * 4]
                for j, label in enumerate(cts):
                    cell[f"ct{j}"] = chord_index(label)
            row.append(cell)
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
