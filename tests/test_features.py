"""Expert feature grid: chords, bin tables, sentinels, serialization and
mutated grid files, and the per-note and per-cell loops the array form
replaced, as its oracle."""

import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bandgen.errors import BinOutOfVocab, DataError
from bandgen.features import (_BIN_RULES, CELL_KEYS, CT_SIZE, DD_SIZE,
                              DT_SIZE, FEATURE_SIZES, MD_SIZE, MP_SIZE,
                              MV_SIZE, ND_SIZE, NO_CHORD,
                              ChordLabel, FeatureGrid, chord_from_index,
                              chord_index, detect_chord, dump_feature_corpus,
                              dump_feature_grid, extract_expert_features,
                              load_feature_corpus, load_feature_grid,
                              quantize_features)
from bandgen.neural.model import embed_conditions, init_params, make_config
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
    nan = np.nan
    assert CELL_KEYS == ("dt", "dd", "nd", "mp", "md", "mv", "ct0", "ct1", "ct2", "ct3")
    assert grid.cells.dtype == np.float64 and grid.cells.shape == (2, 2, 10)
    np.testing.assert_array_equal(grid.cells[0, 0], [2.0, 0.75] + [nan] * 8)
    np.testing.assert_array_equal(grid.cells[0, 1], [nan] * 10)
    np.testing.assert_array_equal(grid.cells[1, 0],
                                  [nan, nan, 0.5, 62.0, 72.0, 90.0] + [nan] * 4)
    assert not grid.binned


def test_quantize_features_and_sentinels():
    song = Song([
        Track("Drum", [Note(36, 0, 24, 64)]),
        Track("Piano", [Note(60, 0, 192, 90), Note(64, 0, 192, 90),
                        Note(67, 0, 192, 90)]),
    ], 2)
    grid = quantize_features(extract_expert_features(song))
    assert grid.binned and grid.cells.dtype == np.int64
    assert grid.cells[0, 0].tolist() == [1, 1] + [-1] * 8
    assert grid.cells[0, 1].tolist() == [DT_SIZE, DD_SIZE] + [-1] * 8  # sentinels
    cell = dict(zip(CELL_KEYS, grid.cells[1, 0].tolist()))
    assert cell["nd"] == 3 and cell["dt"] == cell["dd"] == -1
    assert cell["ct0"] == chord_index(ChordLabel(0, "maj"))
    empty = dict(zip(CELL_KEYS, grid.cells[1, 1].tolist()))
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
    assert loaded.cells.dtype == np.int64
    assert np.array_equal(loaded.cells, grid.cells)
    assert loaded.chords == grid.chords
    assert loaded.vq_entries == grid.vq_entries
    assert dump_feature_grid(loaded) == text


def test_feature_corpus_round_trip():
    grids = [quantize_features(extract_expert_features(make_song(i, n_bars=20)))
             for i in range(2)]
    text = dump_feature_corpus([("a", grids[0]), ("b", grids[1])])
    loaded = load_feature_corpus(text)
    assert [name for name, _ in loaded] == ["a", "b"]
    assert np.array_equal(loaded[0][1].cells, grids[0].cells)
    assert dump_feature_corpus(loaded) == text


PITCHED = "nd=1 mp=1 md=1 mv=1 ct0=0 ct1=0 ct2=0 ct3=0"
GOOD = ("GRID n_bars=2\nG 0 Drum\nG 1 Piano\n"
        "F 0 0 dt=1 dd=1\nF 0 1 dt=1 dd=1\n"
        f"F 1 0 {PITCHED}\nF 1 1 {PITCHED}\n")
VQ = "".join(f"V {ti} {b} 0,1,2,3,4,5,6,7\n" for ti in range(2) for b in range(2))


def test_serialization_rejects_raw_grids_and_garbage():
    raw = extract_expert_features(make_song(1, n_bars=20))
    with pytest.raises(DataError):
        dump_feature_grid(raw)
    with pytest.raises(DataError):
        load_feature_grid("not a grid\n")
    with pytest.raises(DataError):
        load_feature_grid("GRID n_bars=1\nG 0 Flute\n")

    assert load_feature_grid(GOOD).vq_entries is None
    assert load_feature_grid(GOOD + VQ).vq_entries[1][1] == tuple(range(8))
    for bad in [
        "GRID n_bars=-1\n",
        "GRID n_bars=2\nG 0 Drum\nF 0 0 dt=1 dd=1\n",        # cell without F
        GOOD + "F 2 0 dt=1 dd=1\n",                            # track out of range
        GOOD + "F 0 2 dt=1 dd=1\n",                            # bar out of range
        GOOD + VQ + "V 0 -1 0,1,2,3,4,5,6,7\n",                # bar out of range
        GOOD + "G 1 Bass\n",                                   # duplicate lines
        GOOD + "F 0 0 dt=1 dd=1\n",
        GOOD + VQ + "V 0 0 0,1,2,3,4,5,6,7\n",
        GOOD.replace("F 0 0 dt=1 dd=1", "F 0 0 dt=1"),         # wrong keys
        GOOD.replace("F 0 0 dt=1 dd=1", "F 0 0 dt=1 dd=1 nd=1"),
        GOOD.replace("F 0 0 dt=1 dd=1", "F 0 0 dt=1 dd=1 dd=2"),
        GOOD.replace(f"F 1 0 {PITCHED}", "F 1 0 dt=1 dd=1"),
        GOOD + VQ.replace("0,1,2,3,4,5,6,7", "0,1", 1),         # 2 codes
        GOOD + VQ.split("\n", 1)[1],                           # V for 3 of 4 cells
    ]:
        with pytest.raises(DataError):
            load_feature_grid(bad)


@pytest.mark.parametrize("bad", [
    GOOD.replace("G 0 Drum", "G 0 Drum junk"),
    GOOD + VQ.replace("V 0 0 0,1,2,3,4,5,6,7", "V 0 0 0,1,2,3,4,5,6,7 9,9"),
    GOOD.replace("dd=1", "dd=99999999999999999999999", 1),
    GOOD.replace("dd=1", f"dd={DD_SIZE + 1}", 1),
    GOOD.replace("dt=1", "dt=-1", 1),
    GOOD.replace("mv=1", f"mv={MV_SIZE + 1}", 1),
    GOOD.replace("ct0=0", f"ct0={CT_SIZE}", 1),
    GOOD.replace("ct3=0", "ct3=-1", 1),
    GOOD + VQ.replace("0,1,2,3,4,5,6,7", "0,1,2,-3,4,5,6,7", 1),
    GOOD + VQ.replace("0,1,2,3,4,5,6,7", f"0,1,2,3,4,5,6,{2 ** 63}", 1),
    GOOD.replace("n_bars=2", f"n_bars={2 ** 63}"),
    f"GRID n_bars={2 ** 63 - 1}\n",
], ids=["G_trailing_field", "V_trailing_field", "F_past_int64", "F_past_sentinel",
        "F_negative", "F_mv_past_sentinel", "F_chord_past_table", "F_chord_negative",
        "V_negative", "V_past_int64", "header_past_int64",
        "bars_without_tracks"])
def test_loader_rejects_values_outside_their_tables(bad):
    with pytest.raises(DataError):
        load_feature_grid(bad)


def test_loader_takes_each_table_up_to_its_top():
    top = (GOOD.replace("dt=1 dd=1", f"dt={DT_SIZE} dd={DD_SIZE}", 1)
           .replace(PITCHED, f"nd={ND_SIZE} mp={MP_SIZE} md={MD_SIZE} mv={MV_SIZE} "
                             f"ct0={CT_SIZE - 1} ct1=0 ct2=0 ct3=0", 1))
    code = 2 ** 63 - 1
    grid = load_feature_grid(top + VQ.replace("0,1", f"{code},1", 1))
    assert grid.cells[0, 0, :2].tolist() == [DT_SIZE, DD_SIZE]
    assert grid.cells[1, 0, 2:7].tolist() == [ND_SIZE, MP_SIZE, MD_SIZE, MV_SIZE, CT_SIZE - 1]
    assert grid.chords[0] == chord_from_index(CT_SIZE - 1)
    assert grid.vq_entries[0][0][0] == code


def test_feature_grid_holds_one_array():
    """Five fields; `binned` is read from the dtype, not set."""
    assert [f.name for f in dataclasses.fields(FeatureGrid)] == [
        "instruments", "n_bars", "cells", "chords", "vq_entries"]
    raw = FeatureGrid(["Piano"], 1, np.full((1, 1, 10), np.nan), [NO_CHORD] * 4)
    assert not raw.binned and quantize_features(raw).binned
    with pytest.raises(TypeError):
        FeatureGrid(["Piano"], 1, raw.cells, [NO_CHORD] * 4, binned=True)
    with pytest.raises(AttributeError):
        raw.binned = True


# field-level mutations: what a mutation writes over an integer or appends
HUGE_OR_NEGATIVE = ("-1", "-40", str(2 ** 63 - 1), str(2 ** 63), str(2 ** 64),
                    "99999999999999999999999", str(-2 ** 63 - 1), str(CT_SIZE),
                    str(DD_SIZE + 1))
JUNK = ("junk", "x=1", "dt=1", "ct0=5", "=", ",", "7", "1,2,3,4,5,6,7,8", "#SONG")


def _mutate_fields(rng, text: str) -> str:
    """Drop, duplicate or swap fields of one line, append junk to it, write
    a huge or negative int over one of its integers, or drop or duplicate
    the line."""
    lines = text.splitlines() or [""]
    i = int(rng.integers(len(lines)))
    fields = lines[i].split()
    j, k = (int(x) for x in rng.integers(max(len(fields), 1), size=2))
    kind = int(rng.integers(7)) if fields else 3
    if kind == 0:
        del fields[j]
    elif kind == 1:
        fields.insert(j, fields[j])
    elif kind == 2:
        fields[j], fields[k] = fields[k], fields[j]
    elif kind == 3:
        fields.append(str(rng.choice(JUNK)))
    elif kind == 4:
        runs = list(re.finditer(r"-?\d+", fields[j]))
        if runs:
            run = runs[int(rng.integers(len(runs)))]
            fields[j] = (fields[j][:run.start()] + str(rng.choice(HUGE_OR_NEGATIVE))
                         + fields[j][run.end():])
    elif kind == 5:
        del lines[i]
        return "\n".join(lines) + "\n"
    else:
        lines.insert(i, lines[i])
    lines[i] = " ".join(fields)
    return "\n".join(lines) + "\n"


def test_mutated_grid_files_load_or_raise_data_error():
    """1,000 seeded mutations of dumped grids and grid corpora: each loads,
    or raises DataError. A grid that loads dumps to text that loads back to
    the same text, and embeds, or raises BinOutOfVocab for a VQ code past
    the codebook."""
    grids = [quantize_features(extract_expert_features(make_song(seed, n_bars=3)))
             for seed in range(4)]
    grids.append(quantize_features(extract_expert_features(Song([], 2))))
    for grid in grids[::2]:
        grid.vq_entries = [[tuple(range(b, b + 8)) for b in range(grid.n_bars)]
                           for _ in grid.instruments]
    sources = [(load_feature_grid, dump_feature_grid(g)) for g in grids]
    sources.append((load_feature_corpus,
                    dump_feature_corpus([(f"s{i}", g) for i, g in enumerate(grids)])))
    cfg = make_config("toy", d=16, heads=2, ffn=16, b_max=16)
    params = init_params(cfg)
    rng = np.random.default_rng(23)
    failures = 0
    for trial in range(1000):
        load, text = sources[trial % len(sources)]
        text = _mutate_fields(rng, text)
        if rng.random() < 0.3:
            text = _mutate_fields(rng, text)
        try:
            got = load(text)
        except DataError:
            failures += 1
            continue
        for grid in ([got] if load is load_feature_grid else [g for _, g in got]):
            assert grid.cells.dtype == np.int64, trial
            again = dump_feature_grid(grid)
            assert dump_feature_grid(load_feature_grid(again)) == again, trial
            if grid.n_tracks and grid.n_bars:
                try:
                    embed_conditions(grid, params, cfg)
                except BinOutOfVocab:
                    pass
    assert 30 < 1000 - failures and 100 < failures, failures  # both outcomes occur


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


def as_cells(entries, n_bars, binned):
    """The oracle's dict cells in the `cells` layout, one column per
    CELL_KEYS key: float64 with NaN where a raw cell lacks a key, int64
    with -1 where a binned one does."""
    cells = np.full((len(entries), n_bars, len(CELL_KEYS)), -1 if binned else np.nan,
                    dtype=np.int64 if binned else np.float64)
    for ti, row in enumerate(entries):
        for b, cell in enumerate(row):
            for k, v in cell.items():
                cells[ti, b, CELL_KEYS.index(k)] = v
    return cells


def typed(cells):
    """The cells' dtype, which must be float64 raw or int64 binned, shape
    and bytes."""
    assert cells.dtype in (np.float64, np.int64)
    return cells.dtype, cells.shape, cells.tobytes()


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
        assert typed(raw.cells) == typed(as_cells(entries, song.n_bars, False))
        assert raw.cells.dtype == np.float64
        assert raw.chords == chords and not raw.binned
        binned = quantize_features(raw)
        want = oracle_quantize(raw.instruments, entries, chords)
        assert typed(binned.cells) == typed(as_cells(want, song.n_bars, True))
        assert binned.cells.dtype == np.int64
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
    assert typed(grid.cells) == typed(as_cells(entries, 2, False))
    assert typed(quantize_features(grid).cells) == typed(
        as_cells(oracle_quantize(grid.instruments, entries, chords), 2, True))


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
                           as_cells(oracle_quantize(instruments, entries, chords),
                                    song.n_bars, True), chords)
        key = dump_feature_grid(grid)
        if key not in seen:
            seen.add(key)
            want.append(song)
    got = dedupe_corpus(songs)
    assert len(want) < len(songs) and [id(s) for s in got] == [id(s) for s in want]
