"""Fidelity metrics between a reference song and a cover.

All metrics compare the first min(n_bars) bars of both songs. Each song is
read once into note columns (`score.note_columns`); each bar table is one
`np.bincount` over them and each metric a row-wise or matrix operation, with
no Python loop per bar or note. Degenerate bars: a similarity over two empty
or two identical bars is 1, over exactly one empty bar 0. Drum notes are
excluded from pitch, velocity and chroma comparisons.

The array form is exact: every table entry is an integer count, so sums,
norms and dot products (the self-similarity matrices' too) are exact in any
order, and each overlap divides and sums each bar's row as a per-bar loop
does. A song off the 48-ticks-per-quarter grid raises DataError, a note
before the song start NoteOutOfRange; notes past the compared bars are
skipped.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, fields

import numpy as np

from .errors import ZeroBars
from .features import beat_chord_ids
from .score import NoteColumns, Song, TICKS_PER_BAR, note_columns
from .tokens import DURATION_MESH, VELOCITY_BIN, VELOCITY_BINS, mesh_index

_SIXTEENTH = TICKS_PER_BAR // 16


@dataclass(slots=True)
class MetricsReport:
    nde: float   # RMSE of per-bar onset counts over the reference's max count
    oap: float   # mean per-bar overlap of normalized pitch histograms
    oad: float   # the same over duration-mesh histograms
    oav: float   # the same over velocity-bin histograms
    ccs: float   # mean per-bar cosine of 12-class onset counts
    gcs: float   # mean per-bar cosine of 16th-slot onset indicators (all tracks)
    ca: float    # fraction of beats whose detected chords match (None == None)
    ssmd: float  # mean |difference| of the bar-chroma self-similarity matrices
    n_bars_compared: int = 0


@dataclass(slots=True)
class _BarTable:
    """Per-bar counts of one song's notes, one row per compared bar."""
    duration: np.ndarray  # [n, len(DURATION_MESH)]; row sums are onset counts
    pitch: np.ndarray     # [n, 128], drums excluded
    velocity: np.ndarray  # [n, VELOCITY_BINS], drums excluded
    chroma: np.ndarray    # [n, 12], drums excluded
    groove: np.ndarray    # [n, 16], 1.0 where some note starts in the slot


def _counts(bar: np.ndarray, col: np.ndarray, width: int, n: int) -> np.ndarray:
    return np.bincount(bar * width + col, minlength=n * width).reshape(n, width) * 1.0


def _bar_table(cols: NoteColumns, n: int) -> _BarTable:
    keep = cols.onset < n * TICKS_PER_BAR
    bar, tick = np.divmod(cols.onset[keep], TICKS_PER_BAR)
    pitched = cols.pitched[keep]
    p_bar, pitch = bar[pitched], cols.pitch[keep][pitched]
    mesh = mesh_index(cols.duration[keep])
    return _BarTable(
        _counts(bar, mesh, len(DURATION_MESH), n),
        _counts(p_bar, pitch, 128, n),
        _counts(p_bar, VELOCITY_BIN[cols.velocity[keep][pitched]], VELOCITY_BINS, n),
        _counts(p_bar, pitch % 12, 12, n),
        (_counts(bar, tick // _SIXTEENTH, 16, n) > 0) * 1.0)


def _overlap(h_ref: np.ndarray, h_cov: np.ndarray) -> float:
    """Mean per-bar overlap of normalized histograms. An empty row stays all
    zero (it is divided by 1), so it overlaps nothing unless both are empty."""
    sp, sq = h_ref.sum(1, keepdims=True), h_cov.sum(1, keepdims=True)
    scores = np.minimum(h_ref / np.maximum(sp, 1), h_cov / np.maximum(sq, 1)).sum(1)
    scores[(h_ref == h_cov).all(1)] = 1.0  # identical distributions overlap fully
    return float(np.mean(scores))


def _cosine(dot: np.ndarray, sq_a: np.ndarray, sq_b: np.ndarray) -> np.ndarray:
    """Cosines capped at 1 from exact dot products and squared norms. As
    |a - b|^2 = sq_a + sq_b - 2 dot, equal vectors are those with
    sq_a == dot == sq_b: they score 1. One empty vector gives dot 0."""
    norms = np.sqrt(sq_a) * np.sqrt(sq_b)
    cos = np.minimum(1.0, dot / np.where(norms == 0, 1.0, norms))
    return np.where((sq_a == dot) & (sq_b == dot), 1.0, cos)


def _mean_cosine(v_ref: np.ndarray, v_cov: np.ndarray) -> float:
    sq = (v_ref * v_ref).sum(1), (v_cov * v_cov).sum(1)
    return float(np.mean(_cosine((v_ref * v_cov).sum(1), *sq)))


def _ssm(chroma: np.ndarray) -> np.ndarray:
    gram = chroma @ chroma.T
    sq = np.diag(gram)
    return _cosine(gram, sq[:, None], sq[None, :])


def evaluate_pair(ref: Song, cov: Song) -> MetricsReport:
    """All fidelity metrics of a cover against its reference."""
    n = min(ref.n_bars, cov.n_bars)
    if n <= 0:
        raise ZeroBars("no bars to compare")
    ref_cols, cov_cols = note_columns(ref), note_columns(cov)
    r, c = _bar_table(ref_cols, n), _bar_table(cov_cols, n)
    onsets = r.duration.sum(1)
    rmse = float(np.sqrt(np.mean((onsets - c.duration.sum(1)) ** 2)))
    same_chord = beat_chord_ids(ref_cols, n * 4) == beat_chord_ids(cov_cols, n * 4)
    return MetricsReport(
        nde=rmse / max(1.0, float(onsets.max())),
        oap=_overlap(r.pitch, c.pitch),
        oad=_overlap(r.duration, c.duration),
        oav=_overlap(r.velocity, c.velocity),
        ccs=_mean_cosine(r.chroma, c.chroma),
        gcs=_mean_cosine(r.groove, c.groove),
        ca=int(np.count_nonzero(same_chord)) / (n * 4),
        ssmd=float(np.mean(np.abs(_ssm(r.chroma) - _ssm(c.chroma)))),
        n_bars_compared=n,
    )


def mean_report(reports: list[MetricsReport]) -> MetricsReport:
    if not reports:
        raise ZeroBars("no reports to average")
    values = {}
    for f in fields(MetricsReport):
        col = [getattr(r, f.name) for r in reports]
        values[f.name] = (int(np.sum(col)) if f.name == "n_bars_compared"
                          else float(np.mean(col)))
    return MetricsReport(**values)


def report_text(report: MetricsReport) -> str:
    lines = [f"{f.name} = {getattr(report, f.name)}" for f in fields(MetricsReport)]
    return "\n".join(lines) + "\n"


def report_csv(rows: list[tuple[str, MetricsReport]]) -> str:
    """One row per pair plus a MEAN row."""
    buf = io.StringIO()
    names = [f.name for f in fields(MetricsReport)]
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["pair"] + names)
    for name, r in rows:
        writer.writerow([name] + [getattr(r, n) for n in names])
    mean = mean_report([r for _, r in rows])
    writer.writerow(["MEAN"] + [getattr(mean, n) for n in names])
    return buf.getvalue()
