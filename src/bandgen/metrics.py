"""Fidelity metrics between a reference song and a cover, plus speed ratios.

All bar-level metrics compare the first min(n_bars) bars of both songs.
Conventions for degenerate bars: a similarity over two empty bars is 1, over
exactly one empty bar 0; distances are 0 for identical inputs by
construction. Drum notes are excluded from pitch and velocity comparisons.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, fields

import numpy as np

from .errors import ZeroBars, ZeroDuration
from .features import beat_chords
from .score import Song, TICKS_PER_BAR
from .tokens import DURATION_MESH, VELOCITY_BINS, snap_to_mesh, velocity_bin

_SIXTEENTH = TICKS_PER_BAR // 16
_MESH_INDEX = {d: i for i, d in enumerate(DURATION_MESH)}


@dataclass(slots=True)
class MetricsReport:
    nde: float
    oap: float
    oad: float
    oav: float
    ccs: float
    gcs: float
    ca: float
    ssmd: float
    tok_per_sec: float = 0.0
    note_per_sec: float = 0.0
    n_bars_compared: int = 0


def _common_bars(ref: Song, cov: Song) -> int:
    n = min(ref.n_bars, cov.n_bars)
    if n <= 0:
        raise ZeroBars("no bars to compare")
    return n


def _bar_of(onset: int) -> int:
    return onset // TICKS_PER_BAR


def note_density_error(ref: Song, cov: Song) -> float:
    """RMSE of per-bar onset counts, normalized by the reference maximum."""
    n = _common_bars(ref, cov)
    dens = []
    for song in (ref, cov):
        d = np.zeros(n)
        for t in song.tracks:
            for note in t.notes:
                b = _bar_of(note.onset)
                if b < n:
                    d[b] += 1
        dens.append(d)
    rmse = float(np.sqrt(np.mean((dens[0] - dens[1]) ** 2)))
    return rmse / max(1.0, float(dens[0].max()))


def _bar_histograms(song: Song, n: int, element: str) -> list[np.ndarray]:
    if element == "pitch":
        size = 128
    elif element == "duration":
        size = len(DURATION_MESH)
    elif element == "velocity":
        size = VELOCITY_BINS
    else:
        raise ValueError(f"unknown element {element!r}")
    hists = [np.zeros(size) for _ in range(n)]
    for t in song.tracks:
        if t.instrument == "Drum" and element in ("pitch", "velocity"):
            continue
        for note in t.notes:
            b = _bar_of(note.onset)
            if b >= n:
                continue
            if element == "pitch":
                hists[b][note.pitch] += 1
            elif element == "duration":
                hists[b][_MESH_INDEX[snap_to_mesh(note.duration)]] += 1
            else:
                hists[b][velocity_bin(note.velocity)] += 1
    return hists


def overlap_area(ref: Song, cov: Song, element: str) -> float:
    """Mean per-bar overlap of normalized histograms."""
    n = _common_bars(ref, cov)
    h_ref = _bar_histograms(ref, n, element)
    h_cov = _bar_histograms(cov, n, element)
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


def _bar_chroma(song: Song, n: int) -> np.ndarray:
    out = np.zeros((n, 12))
    for t in song.tracks:
        if t.instrument == "Drum":
            continue
        for note in t.notes:
            b = _bar_of(note.onset)
            if b < n:
                out[b][note.pitch % 12] += 1
    return out


def _bar_grooving(song: Song, n: int) -> np.ndarray:
    out = np.zeros((n, 16))
    for t in song.tracks:
        for note in t.notes:
            b = _bar_of(note.onset)
            if b < n:
                out[b][(note.onset % TICKS_PER_BAR) // _SIXTEENTH] = 1.0
    return out


def _cosine(a: np.ndarray, b: np.ndarray) -> float:
    if np.array_equal(a, b):  # covers the all-zero pair and exact self-similarity
        return 1.0
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0 or nb == 0:
        return 0.0
    return min(1.0, float(np.dot(a, b) / (na * nb)))


def chroma_similarity(ref: Song, cov: Song) -> float:
    """Mean per-bar cosine of 12-class onset-count vectors (non-drum)."""
    n = _common_bars(ref, cov)
    cr, cc = _bar_chroma(ref, n), _bar_chroma(cov, n)
    return float(np.mean([_cosine(cr[b], cc[b]) for b in range(n)]))


def grooving_similarity(ref: Song, cov: Song) -> float:
    """Mean per-bar cosine of binary 16th-grid onset indicators (all tracks)."""
    n = _common_bars(ref, cov)
    gr, gc = _bar_grooving(ref, n), _bar_grooving(cov, n)
    return float(np.mean([_cosine(gr[b], gc[b]) for b in range(n)]))


def chord_accuracy(ref: Song, cov: Song) -> float:
    """Fraction of beats whose detected chords match exactly (None == None)."""
    n = _common_bars(ref, cov)
    ch_ref = beat_chords(ref)[:n * 4]
    ch_cov = beat_chords(cov)[:n * 4]
    hits = sum(1 for a, b in zip(ch_ref, ch_cov) if a == b)
    return hits / (n * 4)


def _ssm(chroma: np.ndarray) -> np.ndarray:
    n = len(chroma)
    out = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            out[i, j] = _cosine(chroma[i], chroma[j])
    return out


def ssm_distance(ref: Song, cov: Song) -> float:
    """Mean absolute difference between bar-level chroma self-similarity
    matrices."""
    n = _common_bars(ref, cov)
    s_ref = _ssm(_bar_chroma(ref, n))
    s_cov = _ssm(_bar_chroma(cov, n))
    return float(np.mean(np.abs(s_ref - s_cov)))


def speed_report(token_count: int, note_count: int,
                 wall_seconds: float) -> tuple[float, float]:
    if wall_seconds <= 0:
        raise ZeroDuration("wall time must be positive")
    return token_count / wall_seconds, note_count / wall_seconds


def evaluate_pair(ref: Song, cov: Song,
                  timing: tuple[int, int, float] | None = None) -> MetricsReport:
    """All fidelity metrics; timing = (tokens, notes, seconds) if measured."""
    n = _common_bars(ref, cov)
    tok_s = note_s = 0.0
    if timing is not None:
        tok_s, note_s = speed_report(*timing)
    return MetricsReport(
        nde=note_density_error(ref, cov),
        oap=overlap_area(ref, cov, "pitch"),
        oad=overlap_area(ref, cov, "duration"),
        oav=overlap_area(ref, cov, "velocity"),
        ccs=chroma_similarity(ref, cov),
        gcs=grooving_similarity(ref, cov),
        ca=chord_accuracy(ref, cov),
        ssmd=ssm_distance(ref, cov),
        tok_per_sec=tok_s,
        note_per_sec=note_s,
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
