"""Fidelity metric oracles, the per-bar loop oracle of the array form,
goldens, self-identity, ranges, typed errors, a call census, and report
formats."""

import csv
import io
import sys
from dataclasses import astuple

import numpy as np
import pytest

from bandgen.errors import DataError, NoteOutOfRange, ZeroBars
from bandgen.features import extract_expert_features
from bandgen.metrics import (MetricsReport, evaluate_pair, mean_report,
                             report_csv, report_text)
from bandgen.score import TICKS_PER_BAR, Note, Song, Track, quantize_song
from bandgen.synth import make_song
from bandgen.tokens import DURATION_MESH, VELOCITY_BINS
from scalar_oracles import (beat_chords as loop_beat_chords, snap_to_mesh,
                            velocity_bin)

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
    # so is a note past the song's own last bar
    stray = one_track_song([(60, 0, 48, 64), (62, 5 * TICKS_PER_BAR, 48, 64)], 1)
    clean = one_track_song([(60, 0, 48, 64)], 1)
    assert evaluate_pair(stray, b) == evaluate_pair(clean, b)


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


# -- the straightforward path: per-bar and per-note loops, the array form's oracle --

_SIXTEENTH = TICKS_PER_BAR // 16
_MESH_INDEX = {d: i for i, d in enumerate(DURATION_MESH)}


def loop_bar_table(song, n):
    tab = {"onsets": np.zeros(n), "pitch": np.zeros((n, 128)),
           "duration": np.zeros((n, len(DURATION_MESH))),
           "velocity": np.zeros((n, VELOCITY_BINS)), "chroma": np.zeros((n, 12)),
           "groove": np.zeros((n, 16))}
    for t in song.tracks:
        pitched = t.instrument != "Drum"
        for note in t.notes:
            b, tick = divmod(note.onset, TICKS_PER_BAR)
            if b >= n:
                continue
            tab["onsets"][b] += 1
            tab["duration"][b, _MESH_INDEX[snap_to_mesh(note.duration)]] += 1
            tab["groove"][b, tick // _SIXTEENTH] = 1.0
            if pitched:
                tab["pitch"][b, note.pitch] += 1
                tab["velocity"][b, velocity_bin(note.velocity)] += 1
                tab["chroma"][b, note.pitch % 12] += 1
    return tab


def loop_overlap(h_ref, h_cov):
    scores = []
    for p, q in zip(h_ref, h_cov):
        sp, sq = p.sum(), q.sum()
        if np.array_equal(p, q):
            scores.append(1.0)
        elif sp == 0 or sq == 0:
            scores.append(0.0)
        else:
            scores.append(float(np.minimum(p / sp, q / sq).sum()))
    return float(np.mean(scores))


def loop_cosine(a, b):
    if np.array_equal(a, b):
        return 1.0
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0 or nb == 0:
        return 0.0
    return min(1.0, float(np.dot(a, b) / (na * nb)))


def loop_ssm(chroma):
    n = len(chroma)
    out = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            out[i, j] = loop_cosine(chroma[i], chroma[j])
    return out


def loop_report(ref, cov):
    n = min(ref.n_bars, cov.n_bars)
    r, c = loop_bar_table(ref, n), loop_bar_table(cov, n)
    rmse = float(np.sqrt(np.mean((r["onsets"] - c["onsets"]) ** 2)))
    beats = zip(loop_beat_chords(ref)[:n * 4], loop_beat_chords(cov)[:n * 4])
    return MetricsReport(
        nde=rmse / max(1.0, float(r["onsets"].max())),
        oap=loop_overlap(r["pitch"], c["pitch"]),
        oad=loop_overlap(r["duration"], c["duration"]),
        oav=loop_overlap(r["velocity"], c["velocity"]),
        ccs=float(np.mean([loop_cosine(a, b) for a, b in zip(r["chroma"], c["chroma"])])),
        gcs=float(np.mean([loop_cosine(a, b) for a, b in zip(r["groove"], c["groove"])])),
        ca=sum(1 for a, b in beats if a == b) / (n * 4),
        ssmd=float(np.mean(np.abs(loop_ssm(r["chroma"]) - loop_ssm(c["chroma"])))),
        n_bars_compared=n,
    )


def oracle_song(rng, kind):
    """1-16 bars. Durations reach past the mesh's 384 ticks, some onsets lie
    past the song's bars and some notes are held past its last beat;
    `sparse` leaves most bars empty, `drums` has only a drum track."""
    n_bars = int(rng.integers(1, 17))
    insts = ("Drum",) if kind == "drums" else ("Piano", "Drum", "Bass")
    bars = (rng.choice(n_bars, size=min(2, n_bars), replace=False)
            if kind == "sparse" else np.arange(n_bars))
    tracks = []
    for inst in insts:
        notes = []
        for _ in range(int(rng.integers(0, 8 * n_bars))):
            bar = int(rng.choice(bars)) + (rng.random() < 0.03)
            notes.append(Note(int(rng.integers(0, 128)),
                              bar * TICKS_PER_BAR + int(rng.integers(0, TICKS_PER_BAR)),
                              int(rng.integers(1, 1000)), int(rng.integers(1, 128))))
        tracks.append(Track(inst, notes))
    return Song(tracks, n_bars)


def test_array_form_matches_the_loop_oracle_bit_for_bit():
    """Every report field of 600 seeded pairs equals the per-bar loops' bit
    for bit: unequal lengths, identical, drum-only and mostly empty songs,
    durations past the mesh, notes past the compared bars."""
    rng = np.random.default_rng(2024)
    kinds = ("full", "full", "sparse", "drums")
    for trial in range(600):
        ref = oracle_song(rng, kinds[trial % 4])
        cov = ref if trial % 5 == 0 else oracle_song(rng, kinds[trial // 4 % 4])
        got, want = evaluate_pair(ref, cov), loop_report(ref, cov)
        assert astuple(got) == astuple(want), (trial, got, want)


def test_array_form_matches_the_loop_oracle_at_64_bars():
    for seed in (1, 2, 3):
        ref, cov = make_song(seed, n_bars=64), make_song(seed + 10, n_bars=64)
        assert evaluate_pair(ref, cov) == loop_report(ref, cov)
        assert evaluate_pair(ref, make_song(seed, n_bars=40)) == loop_report(
            ref, make_song(seed, n_bars=40))


def chords_of(song):
    return extract_expert_features(song).chords


def test_beat_chords_match_the_set_loop():
    rng = np.random.default_rng(7)
    for trial in range(300):
        song = oracle_song(rng, ("full", "sparse")[trial % 2])
        assert chords_of(song) == loop_beat_chords(song)
    # one chord held from the last beat far past the end of the song
    held = one_track_song([(60, 3 * 48, 900, 64), (64, 3 * 48, 900, 64),
                           (67, 0, 48, 64), (67, 190, 1, 64)], 1)
    assert [str(c) for c in chords_of(held)] == ["None", "None", "None", "0:maj"]
    assert chords_of(held) == loop_beat_chords(held)
    # a zero-tick note still sounds in its onset's beat
    blip = one_track_song([(60, 48, 0, 64), (64, 48, 0, 64), (67, 48, 0, 64)], 1)
    assert [str(c) for c in chords_of(blip)] == ["None", "0:maj", "None", "None"]
    assert chords_of(blip) == loop_beat_chords(blip)


# -- typed errors and the call census -------------------------------------------


def test_a_negative_onset_is_note_out_of_range():
    """Negative indexing used to count these notes in the last bar."""
    song = one_track_song([(60, -10, 48, 64), (64, -10, 48, 64),
                           (67, -10, 48, 64)], 2)
    with pytest.raises(NoteOutOfRange):
        evaluate_pair(song, song)
    with pytest.raises(NoteOutOfRange):
        extract_expert_features(song)


def test_a_song_off_the_canonical_grid_is_a_data_error():
    """At 480 ticks per quarter a song used to score nde 0.84 against itself."""
    song = make_song(seed=3, n_bars=8)
    scaled = Song([Track(t.instrument, [Note(n.pitch, n.onset * 10,
                                             n.duration * 10, n.velocity)
                                        for n in t.notes]) for t in song.tracks],
                  8, resolution=480)
    with pytest.raises(DataError):
        evaluate_pair(scaled, scaled)
    with pytest.raises(DataError):
        extract_expert_features(scaled)
    assert evaluate_pair(quantize_song(scaled), song) == evaluate_pair(song, song)


def python_calls(fn, *args) -> int:
    """Python-level function calls (sys.setprofile "call" events) of fn."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        calls += event == "call"

    sys.setprofile(profile)
    try:
        fn(*args)
    finally:
        sys.setprofile(None)
    return calls


def test_evaluate_pair_census_does_not_grow_with_bars():
    """Counted rather than timed: with the chord memo warm, an 8-bar pair
    and a 64-bar pair make the same number of Python-level calls."""
    short = make_song(seed=1, n_bars=8), make_song(seed=2, n_bars=8)
    long = make_song(seed=1, n_bars=64), make_song(seed=2, n_bars=64)
    evaluate_pair(*short), evaluate_pair(*long)
    counts = python_calls(evaluate_pair, *short), python_calls(evaluate_pair, *long)
    assert counts[0] == counts[1] > 0


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
