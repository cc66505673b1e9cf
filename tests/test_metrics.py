"""Fidelity metric oracles, goldens, self-identity, ranges, and report
formats."""

import csv
import io

import numpy as np
import pytest

from bandgen.errors import ZeroBars
from bandgen.metrics import (MetricsReport, evaluate_pair, mean_report,
                             report_csv, report_text)
from bandgen.score import Note, Song, Track
from bandgen.synth import make_song

RNG = np.random.default_rng(17)


def piano(notes, instrument="Piano"):
    return Track(instrument, [Note(*n) for n in notes])


def one_track_song(notes, n_bars, instrument="Piano"):
    return Song([piano(notes, instrument)], n_bars)


def random_song(rng, max_bars=4):
    n_bars = int(rng.integers(1, max_bars + 1))
    tracks = []
    for inst in ("Piano", "Drum", "Bass"):
        if rng.random() < 0.3:
            continue
        notes = []
        for _ in range(int(rng.integers(0, 30))):
            notes.append(Note(int(rng.integers(0, 128)),
                              int(rng.integers(0, n_bars * 192)),
                              int(rng.integers(1, 500)),
                              int(rng.integers(1, 128))))
        tracks.append(Track(inst, notes))
    if not tracks:
        tracks = [Track("Piano", [])]
    return Song(tracks, n_bars)


# -- individual metric oracles, read from the whole report --------------------------


def test_note_density_error_oracle():
    # per-bar onset counts ref [4, 2] vs cov [2, 2]: rmse sqrt(2), ref max 4
    ref = one_track_song([(60, 0, 48, 64), (62, 48, 48, 64), (64, 96, 48, 64),
                          (65, 144, 48, 64), (60, 192, 48, 64),
                          (62, 288, 48, 64)], 2)
    cov = one_track_song([(60, 0, 48, 64), (62, 96, 48, 64), (60, 192, 48, 64),
                          (62, 288, 48, 64)], 2)
    assert evaluate_pair(ref, cov).nde == pytest.approx(np.sqrt(2) / 4)
    assert evaluate_pair(ref, ref).nde == 0.0


def test_overlap_area_pitch_oracle():
    # ref pitch counts {60: 2, 62: 1}, cov {60: 1, 62: 1, 64: 1} -> 2/3
    ref = one_track_song([(60, 0, 48, 64), (60, 48, 48, 64), (62, 96, 48, 64)], 1)
    cov = one_track_song([(60, 0, 48, 64), (62, 48, 48, 64), (64, 96, 48, 64)], 1)
    assert evaluate_pair(ref, cov).oap == pytest.approx(2.0 / 3.0)


def test_overlap_area_empty_bar_conventions():
    both_empty = Song([piano([])], 1)
    assert evaluate_pair(both_empty, Song([piano([])], 1)).oap == 1.0
    filled = one_track_song([(60, 0, 48, 64)], 1)
    assert evaluate_pair(both_empty, filled).oap == 0.0


def test_overlap_area_velocity_and_duration_binning():
    # velocities 64 and 66 share bin 16; durations 48 and 50 snap to 48
    ref = one_track_song([(60, 0, 48, 64)], 1)
    cov = one_track_song([(60, 0, 50, 66)], 1)
    r = evaluate_pair(ref, cov)
    assert r.oav == 1.0 and r.oad == 1.0 and r.oap == 1.0


def test_drums_excluded_from_pitch_and_velocity_but_not_grooving():
    ref = one_track_song([(60, 0, 48, 64)], 1)
    cov = Song([piano([(60, 0, 48, 64)]),
                Track("Drum", [Note(36, 96, 24, 90)])], 1)
    r = evaluate_pair(ref, cov)
    assert r.oap == 1.0 and r.oav == 1.0
    # grooving counts every track: bits {0} vs {0, 8}
    assert r.gcs == pytest.approx(1 / np.sqrt(2))


def test_chroma_similarity_oracle():
    # C-E-G against C alone: cosine = 1/sqrt(3)
    ref = one_track_song([(60, 0, 48, 64), (64, 0, 48, 64), (67, 0, 48, 64)], 1)
    cov = one_track_song([(72, 0, 48, 64)], 1)
    assert evaluate_pair(ref, cov).ccs == pytest.approx(1 / np.sqrt(3))
    assert evaluate_pair(ref, ref).ccs == 1.0


def test_chord_accuracy_oracle():
    # ref holds C major all four beats; cov only the first two
    ref = one_track_song([(60, 0, 192, 64), (64, 0, 192, 64), (67, 0, 192, 64)], 1)
    cov = one_track_song([(60, 0, 96, 64), (64, 0, 96, 64), (67, 0, 96, 64)], 1)
    assert evaluate_pair(ref, ref).ca == 1.0
    assert evaluate_pair(ref, cov).ca == 0.5


def test_ssm_distance_oracle():
    # ref bars repeat (similarity 1 everywhere); cov bars are orthogonal
    ref = one_track_song([(60, 0, 48, 64), (60, 192, 48, 64)], 2)
    cov = one_track_song([(60, 0, 48, 64), (67, 192, 48, 64)], 2)
    assert evaluate_pair(ref, ref).ssmd == 0.0
    assert evaluate_pair(ref, cov).ssmd == pytest.approx(0.5)


# -- whole-report behavior ----------------------------------------------------------


def test_self_identity_is_exact():
    song = make_song(seed=9, n_bars=4)
    r = evaluate_pair(song, song)
    assert r.nde == 0.0
    assert r.oap == 1.0 and r.oad == 1.0 and r.oav == 1.0
    assert r.ccs == 1.0 and r.gcs == 1.0 and r.ca == 1.0
    assert r.ssmd == 0.0
    assert r.n_bars_compared == 4


def test_metric_ranges_on_random_pairs():
    for trial in range(60):
        ref, cov = random_song(RNG), random_song(RNG)
        r = evaluate_pair(ref, cov)
        assert r.nde >= 0.0
        for v in (r.oap, r.oad, r.oav, r.ccs, r.gcs, r.ca):
            assert 0.0 <= v <= 1.0, (trial, v)
        assert 0.0 <= r.ssmd <= 1.0
        assert r.n_bars_compared == min(ref.n_bars, cov.n_bars)


def test_comparison_truncates_to_common_bars():
    a = make_song(seed=2, n_bars=4)
    b = make_song(seed=2, n_bars=2)
    r = evaluate_pair(a, b)
    assert r.n_bars_compared == 2
    # the two shared bars are identical, the extra reference bars ignored
    assert r.oap == 1.0 and r.nde == 0.0 and r.ssmd == 0.0


def test_zero_bars_raises():
    with pytest.raises(ZeroBars):
        evaluate_pair(Song([], 0), Song([], 0))


def test_golden_reports():
    """Exact fields of three fixed pairs: however the bar tables are filled,
    the per-bar float reductions must keep every bit."""
    song = make_song(seed=6, n_bars=8)
    rng = np.random.default_rng(8)
    drummed = random_song(rng, 8), random_song(rng, 8)
    assert all(any(t.instrument == "Drum" and t.notes for t in s.tracks)
               for s in drummed)
    cases = [
        ((make_song(seed=1, n_bars=40), make_song(seed=2, n_bars=24)),
         MetricsReport(0.03895531383384258, 0.2019063180827887,
                       0.9598611184679039, 0.5382829520697169,
                       0.4741918792804449, 1.0, 0.041666666666666664,
                       0.09825503845619883, 24)),
        (drummed,
         MetricsReport(0.4249182927993987, 0.0, 0.2222222222222222,
                       0.16666666666666666, 0.0, 0.11381930931591229,
                       0.5833333333333334, 0.1111111111111111, 6)),
        ((song, song), MetricsReport(0.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 0.0, 8)),
    ]
    for (ref, cov), want in cases:
        assert evaluate_pair(ref, cov) == want


def test_mean_report_averages_and_sums_bars():
    a = MetricsReport(0.2, 0.8, 0.6, 1.0, 0.9, 0.7, 0.5, 0.1, 4)
    b = MetricsReport(0.4, 0.6, 0.8, 0.0, 0.7, 0.9, 1.0, 0.3, 2)
    m = mean_report([a, b])
    assert m.nde == pytest.approx(0.3)
    assert m.oap == pytest.approx(0.7)
    assert m.ca == pytest.approx(0.75)
    assert m.ssmd == pytest.approx(0.2)
    assert m.n_bars_compared == 6
    with pytest.raises(ZeroBars):
        mean_report([])


def test_report_text_format():
    r = MetricsReport(0.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 0.0)
    text = report_text(r)
    assert "nde = 0.0" in text
    assert "gcs = 1.0" in text
    assert text.endswith("\n")


def test_report_csv_has_mean_row():
    song_a, song_b = make_song(1, 2), make_song(2, 2)
    rows = [("a", evaluate_pair(song_a, song_a)),
            ("b", evaluate_pair(song_a, song_b))]
    text = report_csv(rows)
    parsed = list(csv.reader(io.StringIO(text)))
    assert len(parsed) == 4
    assert parsed[0][0] == "pair"
    assert parsed[1][0] == "a" and parsed[2][0] == "b"
    assert parsed[3][0] == "MEAN"
    nde_col = parsed[0].index("nde")
    mean = mean_report([r for _, r in rows])
    assert float(parsed[3][nde_col]) == pytest.approx(mean.nde)
