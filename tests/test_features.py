"""Expert feature grid: chords, bin tables, sentinels, serialization, and
the per-note and per-cell loops the array form replaced, as its oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bandgen.errors import DataError
from bandgen.features import (_BIN_RULES, CT_SIZE, DD_SIZE, DT_SIZE,
                              FEATURE_SIZES, MD_SIZE, MP_SIZE, MV_SIZE,
                              ND_SIZE, NO_CHORD, ChordLabel, FeatureGrid,
                              chord_from_index, chord_index, detect_chord,
                              dump_feature_corpus, dump_feature_grid,
                              extract_expert_features, load_feature_corpus,
                              load_feature_grid, quantize_features)
from bandgen.score import TICKS_PER_BAR, Note, Song, Track, dedupe_corpus
from bandgen.synth import make_song
from scalar_oracles import beat_chords


def test_table_sizes_are_frozen():
    assert FEATURE_SIZES == {"ct": 133, "dt": 32, "dd": 50, "nd": 66,
                             "mp": 34, "md": 30, "mv": 34}


def test_chord_indexing_is_a_bijection():
    assert chord_index(NO_CHORD) == 0
    assert chord_index(ChordLabel(0, "maj")) == 1
    assert chord_index(ChordLabel(11, "dim7")) == CT_SIZE - 1
    for idx in range(CT_SIZE):
        assert chord_index(chord_from_index(idx)) == idx


def test_detect_chord_basic_triads():
    assert detect_chord({0, 4, 7}) == ChordLabel(0, "maj")
    assert detect_chord({2, 5, 9}) == ChordLabel(2, "min")
    assert detect_chord({0, 3, 6, 9}) == ChordLabel(0, "dim7")
    assert detect_chord({0, 4, 7, 10}) == ChordLabel(0, "dom7")
    # subset relations resolve to the lower root: {7,11,2} sits inside Em7
    assert detect_chord({7, 11, 2}) == ChordLabel(4, "min7")
    assert detect_chord({0, 4, 7, 9}) == ChordLabel(9, "min7")


def test_detect_chord_rejections():
    assert detect_chord(set()) == NO_CHORD
    assert detect_chord({5}) == NO_CHORD
    assert detect_chord({0, 1, 2}) == NO_CHORD  # best score 1.5 < 2


def test_detect_chord_tie_breaks():
    # any 2-class set inside some template scores exactly 2; first match wins
    assert detect_chord({0, 1}) == ChordLabel(1, "maj7")
    # {0,3,6,9} is fully symmetric under minor-third rotation; root 0 wins
    assert detect_chord({3, 6, 9, 0}) == ChordLabel(0, "dim7")
    # triad vs its extensions at one root: the earlier quality wins
    assert detect_chord({2, 6, 9}) == ChordLabel(2, "maj")


def test_detect_chord_octave_folding():
    assert detect_chord([60, 64, 67, 72]) == ChordLabel(0, "maj")


def test_beat_chords_counts_held_notes():
    song = Song([Track("Piano", [Note(60, 0, 96, 90), Note(64, 0, 96, 90),
                                 Note(67, 0, 96, 90)])], 1)
    chords = extract_expert_features(song).chords
    assert chords == [ChordLabel(0, "maj"), ChordLabel(0, "maj"),
                      NO_CHORD, NO_CHORD]


def test_beat_chords_skips_drums():
    song = Song([Track("Drum", [Note(36, 0, 24, 64), Note(38, 0, 24, 64),
                                Note(42, 0, 24, 64)])], 1)
    assert extract_expert_features(song).chords == [NO_CHORD] * 4


def bins(key, values):
    return _BIN_RULES[key](np.array(values, float)).tolist()


def test_bin_oracles():
    assert bins("nd", [2.0, 0.0, 1000.0]) == [8, 0, ND_SIZE - 1]
    assert bins("dd", [2.5, 99.0]) == [10, DD_SIZE - 1]
    assert bins("mv", [64, 0, 999]) == [16, 0, 33]
    # 31 is clamped up to 32
    assert bins("mp", [31, 33, 34, 99, 120]) == [0, 0, 1, 33, 33]
    assert bins("dt", [5, 99]) == [5, DT_SIZE - 1]


def test_md_bin_log_spacing():
    assert bins("md", [4, 1, 384, 10000]) == [0, 0, MD_SIZE - 1, MD_SIZE - 1]
    # 4 * (384/4)^(k/30) midpoints fall into bin k
    assert bins("md", [4 * (96 ** (1 / 30)) * 1.001,
                       4 * (96 ** (14 / 30)) * 1.001]) == [1, 14]
    values = bins("md", range(4, 385))
    assert values == sorted(values)  # monotone


def test_extract_raw_features():
    song = Song([
        Track("Drum", [Note(36, 0, 24, 64), Note(38, 48, 24, 64),
                       Note(36, 96, 24, 64)]),
        Track("Piano", [Note(60, 0, 48, 80), Note(64, 96, 96, 100)]),
    ], 2)
    grid = extract_expert_features(song)
    assert grid.entries[0][0] == {"dt": 2.0, "dd": 0.75}
    assert grid.entries[0][1] == {}
    assert grid.entries[1][0] == {"nd": 0.5, "mp": 62.0, "md": 72.0, "mv": 90.0}
    assert not grid.binned


def test_quantize_features_and_sentinels():
    song = Song([
        Track("Drum", [Note(36, 0, 24, 64)]),
        Track("Piano", [Note(60, 0, 192, 90), Note(64, 0, 192, 90),
                        Note(67, 0, 192, 90)]),
    ], 2)
    grid = quantize_features(extract_expert_features(song))
    assert grid.binned
    assert grid.entries[0][0] == {"dt": 1, "dd": 1}
    assert grid.entries[0][1] == {"dt": DT_SIZE, "dd": DD_SIZE}  # sentinels
    cell = grid.entries[1][0]
    assert cell["nd"] == 3
    assert cell["ct0"] == chord_index(ChordLabel(0, "maj"))
    empty = grid.entries[1][1]
    assert empty["nd"] == ND_SIZE and empty["mp"] == MP_SIZE
    assert empty["md"] == MD_SIZE and empty["mv"] == MV_SIZE
    # chords stay a shared per-beat channel even over an empty bar
    assert empty["ct0"] == chord_index(NO_CHORD)
    assert quantize_features(grid) is grid  # identity when already binned


def test_feature_grid_round_trip():
    grid = quantize_features(extract_expert_features(make_song(6, n_bars=20)))
    grid.vq_entries = [[(ti % 2,) * 8 for _ in range(grid.n_bars)]
                       for ti in range(grid.n_tracks)]
    text = dump_feature_grid(grid)
    loaded = load_feature_grid(text)
    assert loaded.instruments == grid.instruments
    assert loaded.entries == grid.entries
    assert loaded.chords == grid.chords
    assert loaded.vq_entries == grid.vq_entries
    assert dump_feature_grid(loaded) == text


def test_feature_corpus_round_trip():
    grids = [quantize_features(extract_expert_features(make_song(i, n_bars=20)))
             for i in range(2)]
    text = dump_feature_corpus([("a", grids[0]), ("b", grids[1])])
    loaded = load_feature_corpus(text)
    assert [name for name, _ in loaded] == ["a", "b"]
    assert loaded[0][1].entries == grids[0].entries
    assert dump_feature_corpus(loaded) == text


def test_serialization_rejects_raw_grids_and_garbage():
    raw = extract_expert_features(make_song(1, n_bars=20))
    with pytest.raises(DataError):
        dump_feature_grid(raw)
    with pytest.raises(DataError):
        load_feature_grid("not a grid\n")
    with pytest.raises(DataError):
        load_feature_grid("GRID n_bars=1\nG 0 Flute\n")

    pitched = "nd=1 mp=1 md=1 mv=1 ct0=0 ct1=0 ct2=0 ct3=0"
    good = ("GRID n_bars=2\nG 0 Drum\nG 1 Piano\n"
            "F 0 0 dt=1 dd=1\nF 0 1 dt=1 dd=1\n"
            f"F 1 0 {pitched}\nF 1 1 {pitched}\n")
    vq = "".join(f"V {ti} {b} 0,1,2,3,4,5,6,7\n" for ti in range(2) for b in range(2))
    assert load_feature_grid(good).vq_entries is None
    assert load_feature_grid(good + vq).vq_entries[1][1] == tuple(range(8))
    for bad in [
        "GRID n_bars=-1\n",
        "GRID n_bars=2\nG 0 Drum\nF 0 0 dt=1 dd=1\n",        # cell without F
        good + "F 2 0 dt=1 dd=1\n",                            # track out of range
        good + "F 0 2 dt=1 dd=1\n",                            # bar out of range
        good + vq + "V 0 -1 0,1,2,3,4,5,6,7\n",                # bar out of range
        good + "G 1 Bass\n",                                   # duplicate lines
        good + "F 0 0 dt=1 dd=1\n",
        good + vq + "V 0 0 0,1,2,3,4,5,6,7\n",
        good.replace("F 0 0 dt=1 dd=1", "F 0 0 dt=1"),         # wrong keys
        good.replace("F 0 0 dt=1 dd=1", "F 0 0 dt=1 dd=1 nd=1"),
        good.replace("F 0 0 dt=1 dd=1", "F 0 0 dt=1 dd=1 dd=2"),
        good.replace(f"F 1 0 {pitched}", "F 1 0 dt=1 dd=1"),
        good + vq.replace("0,1,2,3,4,5,6,7", "0,1", 1),         # 2 codes
        good + vq.split("\n", 1)[1],                           # V for 3 of 4 cells
    ]:
        with pytest.raises(DataError):
            load_feature_grid(bad)


# -- the straightforward path: per-note and per-cell loops, the oracle -----------


def oracle_extract(song):
    chords = beat_chords(song)
    entries = []
    for t in song.tracks:
        bars = [[] for _ in range(song.n_bars)]
        for n in t.notes:
            b = n.onset // TICKS_PER_BAR
            if b < song.n_bars:
                bars[b].append(n)
        row = []
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
    return entries, chords


# the scalar bin rules as first written
ORACLE_BINS = {
    "dt": lambda raw: min(int(raw), DT_SIZE - 1),
    "dd": lambda raw: min(int(raw / 0.25), DD_SIZE - 1),
    "nd": lambda raw: min(int(raw / 0.25), ND_SIZE - 1),
    "mp": lambda raw: (min(max(int(raw), 32), 99) - 32) // 2,
    "md": lambda raw: min(max(int(np.searchsorted(
        np.geomspace(4.0, 384.0, MD_SIZE + 1), raw, side="right")) - 1, 0), MD_SIZE - 1),
    "mv": lambda raw: min(max(int(raw), 0), 135) // 4,
}


def oracle_quantize(instruments, entries, chords):
    out = []
    for ti, inst in enumerate(instruments):
        row = []
        for raw in entries[ti]:
            keys = ("dt", "dd") if inst == "Drum" else ("nd", "mp", "md", "mv")
            cell = {k: ORACLE_BINS[k](raw[k]) if raw else FEATURE_SIZES[k] for k in keys}
            if inst != "Drum":
                b = len(row)
                for j, label in enumerate(chords[b * 4:(b + 1) * 4]):
                    cell[f"ct{j}"] = chord_index(label)
            row.append(cell)
        out.append(row)
    return out


def typed(entries):
    """The cells with the type of every value, which must be Python's."""
    return [[{k: (type(v), v) for k, v in cell.items()} for cell in row]
            for row in entries]


def test_grids_match_the_loop_oracle(micro_corpus, edge_songs):
    """Raw and binned cells, chords, key order and value types of the
    micro-corpus and of 300 edge-case songs, some with a note past their
    bars, equal the loops'."""
    songs = micro_corpus + edge_songs + [Song([], 0), Song([Track("Piano")], 0)]
    for j, song in enumerate(edge_songs[:100]):
        past = Note(60 + j % 5, song.n_bars * TICKS_PER_BAR + j, 48, 90)
        song = Song([Track(t.instrument, t.notes + [past]) for t in song.tracks],
                    song.n_bars)
        songs.append(song)
    for song in songs:
        raw = extract_expert_features(song)
        entries, chords = oracle_extract(song)
        assert typed(raw.entries) == typed(entries)
        assert raw.chords == chords and not raw.binned
        binned = quantize_features(raw)
        want = oracle_quantize(raw.instruments, entries, chords)
        assert typed(binned.entries) == typed(want)
        assert [[list(c) for c in row] for row in binned.entries] == [
            [list(c) for c in row] for row in want]
        assert binned.chords == chords and binned.binned


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 127), st.integers(0, 383),
                          st.integers(1, 400), st.integers(1, 127)),
                min_size=1, max_size=30))
def test_grids_match_the_loop_oracle_property(raw):
    notes = [Note(p, o, d, v) for p, o, d, v in raw]
    song = Song([Track("Piano", notes), Track("Drum", list(notes))], 2)
    grid = extract_expert_features(song)
    entries, chords = oracle_extract(song)
    assert typed(grid.entries) == typed(entries)
    assert typed(quantize_features(grid).entries) == typed(
        oracle_quantize(grid.instruments, entries, chords))


def test_bin_rules_match_the_scalar_oracle():
    values = np.concatenate([np.arange(-3, 500, 0.125), np.geomspace(4, 384, 301),
                             [1e6, 1e30]])
    for key, rule in ORACLE_BINS.items():
        got = _BIN_RULES[key](values)
        assert got.dtype == np.int64, key
        assert got.tolist() == [rule(raw) for raw in values.tolist()], key


def test_dedupe_picks_match_the_oracle(micro_corpus, edge_songs):
    songs = micro_corpus + micro_corpus[::7] + edge_songs[:60] + edge_songs[:60:3]
    seen, want = set(), []
    for song in songs:
        entries, chords = oracle_extract(song)
        instruments = [t.instrument for t in song.tracks]
        grid = FeatureGrid(instruments, song.n_bars,
                           oracle_quantize(instruments, entries, chords), chords,
                           binned=True)
        key = dump_feature_grid(grid)
        if key not in seen:
            seen.add(key)
            want.append(song)
    got = dedupe_corpus(songs)
    assert len(want) < len(songs) and [id(s) for s in got] == [id(s) for s in want]
