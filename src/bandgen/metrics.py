"""Fidelity metrics between a reference song and a cover.

All metrics compare the first min(n_bars) bars of both songs, and all but
chord accuracy read one bar table per song, filled in a single pass over its
notes. Conventions for degenerate bars: a similarity over two empty bars is
1, over exactly one empty bar 0; distances are 0 for identical inputs by
construction. Drum notes are excluded from pitch, velocity and chroma
comparisons.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, fields

import numpy as np

from .errors import ZeroBars
from .features import beat_chords
from .score import Song, TICKS_PER_BAR
from .tokens import DURATION_MESH, VELOCITY_BINS, snap_to_mesh, velocity_bin

_SIXTEENTH = TICKS_PER_BAR // 16
_MESH_INDEX = {d: i for i, d in enumerate(DURATION_MESH)}


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
    onsets: np.ndarray    # [n]
    pitch: np.ndarray     # [n, 128], drums excluded
    duration: np.ndarray  # [n, len(DURATION_MESH)]
    velocity: np.ndarray  # [n, VELOCITY_BINS], drums excluded
    chroma: np.ndarray    # [n, 12], drums excluded
    groove: np.ndarray    # [n, 16], 1.0 where some note starts in the slot


def _bar_table(song: Song, n: int) -> _BarTable:
    tab = _BarTable(np.zeros(n), np.zeros((n, 128)),
                    np.zeros((n, len(DURATION_MESH))),
                    np.zeros((n, VELOCITY_BINS)), np.zeros((n, 12)),
                    np.zeros((n, 16)))
    for t in song.tracks:
        pitched = t.instrument != "Drum"
        for note in t.notes:
            b, tick = divmod(note.onset, TICKS_PER_BAR)
            if b >= n:
                continue
            tab.onsets[b] += 1
            tab.duration[b, _MESH_INDEX[snap_to_mesh(note.duration)]] += 1
            tab.groove[b, tick // _SIXTEENTH] = 1.0
            if pitched:
                tab.pitch[b, note.pitch] += 1
                tab.velocity[b, velocity_bin(note.velocity)] += 1
                tab.chroma[b, note.pitch % 12] += 1
    return tab


def _overlap(h_ref: np.ndarray, h_cov: np.ndarray) -> float:
    """Mean per-bar overlap of normalized histograms."""
    scores = []
    for p, q in zip(h_ref, h_cov):
        sp, sq = p.sum(), q.sum()
        if np.array_equal(p, q):  # identical distributions overlap fully
            scores.append(1.0)
        elif sp == 0 or sq == 0:
            scores.append(0.0)
        else:
            scores.append(float(np.minimum(p / sp, q / sq).sum()))
    return float(np.mean(scores))


def _cosine(a: np.ndarray, b: np.ndarray) -> float:
    if np.array_equal(a, b):  # covers the all-zero pair and exact self-similarity
        return 1.0
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0 or nb == 0:
        return 0.0
    return min(1.0, float(np.dot(a, b) / (na * nb)))


def _mean_cosine(v_ref: np.ndarray, v_cov: np.ndarray) -> float:
    return float(np.mean([_cosine(a, b) for a, b in zip(v_ref, v_cov)]))


def _ssm(chroma: np.ndarray) -> np.ndarray:
    n = len(chroma)
    out = np.empty((n, n))
    for i in range(n):  # _cosine is symmetric bit for bit: fill j >= i and mirror
        for j in range(i, n):
            out[i, j] = out[j, i] = _cosine(chroma[i], chroma[j])
    return out


def evaluate_pair(ref: Song, cov: Song) -> MetricsReport:
    """All fidelity metrics of a cover against its reference."""
    n = min(ref.n_bars, cov.n_bars)
    if n <= 0:
        raise ZeroBars("no bars to compare")
    r, c = _bar_table(ref, n), _bar_table(cov, n)
    rmse = float(np.sqrt(np.mean((r.onsets - c.onsets) ** 2)))
    beats = zip(beat_chords(ref)[:n * 4], beat_chords(cov)[:n * 4])
    return MetricsReport(
        nde=rmse / max(1.0, float(r.onsets.max())),
        oap=_overlap(r.pitch, c.pitch),
        oad=_overlap(r.duration, c.duration),
        oav=_overlap(r.velocity, c.velocity),
        ccs=_mean_cosine(r.chroma, c.chroma),
        gcs=_mean_cosine(r.groove, c.groove),
        ca=sum(1 for a, b in beats if a == b) / (n * 4),
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
