"""Song model: quantization, melody/compression rules, filters, windows."""

import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bandgen.errors import (DataError, NoDrumTrack, NoMelodyTrack,
                            NoteOutOfRange, UsageError)
from bandgen.score import (DRUM_DURATION, DRUM_VELOCITY, INSTRUMENTS,
                           TICKS_PER_BAR, FilterVerdict, Note, Song, Track,
                           compress_instruments, dedupe_corpus,
                           dump_song, empty_bar_count, filter_song,
                           find_melody_index, load_song, monophonic_ratio,
                           program_to_class, quantize_song, sorted_unique_notes,
                           split_windows)
from bandgen.synth import make_song


def bar_song(n_bars, tracks):
    return Song(tracks, n_bars)


def test_program_classes():
    assert program_to_class(0) == "Piano"
    assert program_to_class(15) == "Piano"
    assert program_to_class(16) == "Strings"
    assert program_to_class(24) == "Guitar"
    assert program_to_class(31) == "Guitar"
    assert program_to_class(32) == "Bass"
    assert program_to_class(39) == "Bass"
    assert program_to_class(40) == "Strings"
    assert program_to_class(80) == "Strings"
    assert program_to_class(127) == "Strings"
    with pytest.raises(DataError):
        program_to_class(128)


def test_sorted_unique_notes():
    notes = [Note(60, 48, 24, 90), Note(60, 0, 24, 90), Note(60, 0, 48, 50)]
    out = sorted_unique_notes(notes)
    # sorted by onset, and the second note at (0, 60) is dropped
    assert out == [Note(60, 0, 24, 90), Note(60, 48, 24, 90)]


def test_quantize_half_up_rounding():
    # resolution 480 scales by 0.1: onset 235 -> 24, duration 235 -> 24
    s = Song([Track("Piano", [Note(60, 235, 235, 100)])], 1, resolution=480)
    q = quantize_song(s)
    n = q.tracks[0].notes[0]
    assert (n.onset, n.duration) == (24, 24)
    assert q.resolution == 48


def test_quantize_duration_floor_and_velocity_clamp():
    s = Song([Track("Piano", [Note(60, 0, 1, 0), Note(61, 0, 2, 200)])],
             1, resolution=480)
    q = quantize_song(s)
    assert [n.duration for n in q.tracks[0].notes] == [1, 1]
    assert [n.velocity for n in q.tracks[0].notes] == [1, 127]


def test_quantize_normalizes_drums():
    s = Song([Track("Drum", [Note(36, 10, 777, 99)])], 1, resolution=48)
    n = quantize_song(s).tracks[0].notes[0]
    assert (n.duration, n.velocity) == (DRUM_DURATION, DRUM_VELOCITY)


def test_quantize_idempotent_on_synth_song():
    s = make_song(3)
    q = quantize_song(s)
    assert all(a.notes == b.notes for a, b in zip(q.tracks, s.tracks))
    assert q.n_bars == s.n_bars


def test_monophonic_ratio():
    mono = Track("Piano", [Note(60, 0, 24, 90), Note(62, 24, 24, 90)])
    assert monophonic_ratio(mono) == 1.0
    chordal = Track("Piano", [Note(60, 0, 24, 90), Note(64, 0, 24, 90),
                              Note(62, 24, 24, 90)])
    assert monophonic_ratio(chordal) == 0.5
    overlapped = Track("Piano", [Note(60, 0, 48, 90), Note(62, 24, 24, 90)])
    assert monophonic_ratio(overlapped) == 0.5
    assert monophonic_ratio(Track("Piano", [])) == 0.0


def test_find_melody_flag_wins():
    s = Song([Track("Piano", [Note(90, 0, 24, 90)]),
              Track("Piano", [Note(30, 0, 24, 90)], is_melody=True)], 1)
    assert find_melody_index(s) == 1


def test_find_melody_highest_mean_pitch_of_monophonic():
    high_poly = Track("Piano", [Note(100, 0, 24, 90), Note(101, 0, 24, 90)])
    low_mono = Track("Piano", [Note(50, 0, 24, 90)])
    mid_mono = Track("Piano", [Note(70, 0, 24, 90)])
    assert find_melody_index(Song([high_poly, low_mono, mid_mono], 1)) == 2


def test_find_melody_ignores_drums_and_raises():
    s = Song([Track("Drum", [Note(36, 0, 24, 64)]),
              Track("Piano", [Note(60, 0, 24, 90), Note(64, 0, 24, 90)])], 1)
    with pytest.raises(NoMelodyTrack):
        find_melody_index(s)


def _nbar_notes(n, pitch=60):
    return [Note(pitch, i * TICKS_PER_BAR, 24, 90) for i in range(n)]


def test_compress_requires_drums():
    s = Song([Track("Piano", _nbar_notes(2), is_melody=True)], 2)
    with pytest.raises(NoDrumTrack):
        compress_instruments(s)


def test_compress_merges_classes_and_keeps_two_largest():
    s = Song([
        Track("Drum", [Note(36, 0, 24, 64)]),
        Track("Piano", _nbar_notes(1, 80), is_melody=True),  # -> SquareSynth
        Track("Piano", _nbar_notes(3, 60), program=0),
        Track("Piano", _nbar_notes(2, 62), program=5),       # merges with above
        Track("Bass", _nbar_notes(2, 40), program=33),
        Track("Strings", _nbar_notes(1, 70), program=48),    # smallest, dropped
    ], 3)
    out = compress_instruments(s)
    assert [t.instrument for t in out.tracks] == ["Drum", "Piano", "Bass",
                                                  "SquareSynth"]
    piano = out.tracks[1]
    assert len(piano.notes) == 5  # 3 + 2 merged
    assert out.tracks[3].is_melody


def test_compress_tie_breaks_by_class_order():
    s = Song([
        Track("Drum", [Note(36, 0, 24, 64)]),
        Track("Piano", _nbar_notes(1, 80), is_melody=True),
        Track("Strings", _nbar_notes(2, 70), program=48),
        Track("Bass", _nbar_notes(2, 40), program=33),
        Track("Guitar", _nbar_notes(2, 50), program=25),
    ], 2)
    out = compress_instruments(s)
    # three-way tie at 2 notes: Guitar and Bass precede Strings in class order
    assert [t.instrument for t in out.tracks] == ["Drum", "Guitar", "Bass",
                                                  "SquareSynth"]


def test_filter_accepts_synth_song():
    assert filter_song(make_song(0)) == FilterVerdict(True, ())


def test_filter_reasons_are_complete():
    tiny = Song([Track("Piano", [Note(60, 0, 24, 90)])], 1)
    verdict = filter_song(tiny)
    assert not verdict.accepted
    assert set(verdict.reasons) == {"MinTracks", "NoDrumTrack",
                                    "NoMelodyTrack", "MinBars", "MinNotes"}


def test_filter_bar_and_note_rules_are_strict():
    s = make_song(1, n_bars=16)  # exactly 16 bars fails the > 16 rule
    assert "MinBars" in filter_song(s).reasons


def test_filter_empty_bars():
    s = make_song(2, n_bars=20)
    for t in s.tracks:  # silence five bars entirely
        t.notes = [n for n in t.notes if n.onset >= 5 * TICKS_PER_BAR]
    assert empty_bar_count(s) == 5
    assert "MaxEmptyBars" in filter_song(s).reasons


def test_empty_bar_count_on_hand_built_songs():
    """Notes before the song start used to count in its last bar, and notes
    past its bars raised a bare IndexError."""
    def song(*onsets, n_bars=4):
        return Song([Track("Piano", [Note(60, o, 24, 90) for o in onsets]),
                     Track("Drum", [])], n_bars)

    assert empty_bar_count(song()) == 4
    assert empty_bar_count(song(0, 5, 2 * TICKS_PER_BAR + 191)) == 2
    assert empty_bar_count(song(3 * TICKS_PER_BAR)) == 3
    assert empty_bar_count(song(n_bars=0)) == 0
    for bad in (song(-10, n_bars=2), song(0, 4 * TICKS_PER_BAR), song(1, n_bars=0)):
        with pytest.raises(NoteOutOfRange):
            empty_bar_count(bad)
    with pytest.raises(DataError):
        empty_bar_count(Song(song(0).tracks, 4, resolution=24))


def test_split_windows_cases():
    def spans(n, lo, hi, stride):
        track = Track("Piano", _nbar_notes(n))
        wins = split_windows(Song([track], n), lo, hi, stride)
        return [w.n_bars for w in wins]

    assert spans(15, 16, 16, 8) == []
    assert spans(16, 16, 16, 8) == [16]
    assert spans(20, 16, 16, 8) == [16]          # 4-bar tail dropped
    assert spans(40, 16, 16, 8) == [16, 16, 16, 16]
    assert spans(24, 8, 16, 8) == [16, 16, 8]    # tail kept at min length


def test_split_windows_rejects_bad_bounds():
    song = make_song(1, n_bars=40)
    for lo, hi, stride in ((16, 16, 0), (16, 16, -1), (0, 0, 8), (1, 0, 8),
                           (8, 4, 8)):
        with pytest.raises(UsageError):
            split_windows(song, lo, hi, stride)


def test_split_windows_rebases_onsets():
    n = 24
    s = Song([Track("Piano", _nbar_notes(n))], n)
    wins = split_windows(s, 16, 16, 8)
    second = wins[1]
    assert second.tracks[0].notes[0].onset == 0
    assert len(second.tracks[0].notes) == 16


def test_dedupe_corpus_keyed_on_features():
    a = make_song(1, n_bars=20)
    b = make_song(2, n_bars=20)
    out = dedupe_corpus([a, copy.deepcopy(a), b])
    assert out == [a, b]


def test_song_text_round_trip_with_empty_track():
    s = make_song(4, n_bars=20)
    s.tracks[1].notes = []  # exercise the empty-track declaration line
    loaded = load_song(dump_song(s))
    assert loaded.n_bars == s.n_bars
    assert [t.instrument for t in loaded.tracks] == [t.instrument for t in s.tracks]
    assert all(a.notes == b.notes for a, b in zip(loaded.tracks, s.tracks))
    assert dump_song(loaded) == dump_song(s)


def test_load_song_rejects_notes_out_of_range():
    # fields are onset, pitch, duration, velocity
    for note in ("0 200 24 90", "0 -1 24 90", "0 60 0 90", "0 60 24 0",
                 "0 60 24 128"):
        with pytest.raises(DataError):
            load_song(f"SONG n_bars=1\nT0 Piano {note}\n")
    song = load_song("SONG n_bars=1\nT0 Piano 0 127 1 127\nT0 Piano 0 0 1 1\n")
    assert [(n.pitch, n.duration, n.velocity)
            for n in song.tracks[0].notes] == [(127, 1, 127), (0, 1, 1)]


def test_load_song_rejects_garbage():
    with pytest.raises(DataError):
        load_song("not a song\n")
    with pytest.raises(DataError):
        load_song("SONG n_bars=2\nT0 Flute 0 60 24 90\n")
    with pytest.raises(DataError):
        load_song("SONG n_bars=-3\nT0 Piano\n")
    # onsets must fall inside the declared bars: [0, n_bars * 192)
    for onset in (-1, 2 * 192, 5000):
        with pytest.raises(DataError):
            load_song(f"SONG n_bars=2\nT0 Piano {onset} 60 24 90\n")
    assert load_song("SONG n_bars=2\nT0 Piano 383 60 24 90\n").n_bars == 2


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 127), st.integers(0, 4000),
                          st.integers(1, 500), st.integers(1, 127)),
                min_size=1, max_size=40))
def test_quantize_is_idempotent(raw):
    notes = [Note(p, o, d, v) for p, o, d, v in raw]
    song = Song([Track("Piano", notes)], 0, resolution=96)
    once = quantize_song(song)
    twice = quantize_song(once)
    assert once.tracks[0].notes == twice.tracks[0].notes
    assert once.n_bars == twice.n_bars
