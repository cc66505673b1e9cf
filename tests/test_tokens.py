"""Track-parallel tokenizer: vocabulary layout, snapping, round trips."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bandgen.bpe import learn_bpe
from bandgen.errors import (DataError, EmptyCorpus, MalformedSequence,
                            NoteOutOfRange)
from bandgen.features import (dump_feature_corpus, extract_expert_features,
                              load_feature_corpus, quantize_features)
from bandgen.score import (DRUM_DURATION, DRUM_VELOCITY, TICKS_PER_BAR, Note,
                           Song, Track, sorted_unique_notes)
from bandgen.synth import make_song
from bandgen.tokens import (BOS_ID, DRUM_KEYS, DURATION_MESH, EOS_ID, PAD_ID,
                            POSITION_GRID, VELOCITY_BIN, _slot,
                            build_track_seqs, build_vocab, corpus_stats,
                            detokenize, dump_token_corpus, dump_vocab,
                            load_token_corpus, load_vocab, mesh_index,
                            snap_song, tokenize_remi_plus, tokenize_song,
                            velocity_decode)
from scalar_oracles import drum_key, snap_position, snap_to_mesh, velocity_bin


def test_vocab_layout_is_frozen(vocab):
    assert vocab.size == 282
    assert Counter(s.kind for s in vocab.specs) == {
        "PAD": 1, "BOS": 1, "EOS": 1, "Instrument": 6, "BarNormal": 1,
        "BarEmpty": 1, "Position": 48, "Pitch": 128, "PitchDrum": 31,
        "Duration": 32, "Velocity": 32,
    }
    assert vocab.id_of("Instrument", "Drum") == 3
    assert vocab.id_of("Instrument", "SquareSynth") == 8
    assert vocab.id_of("BarNormal", 0) == 9
    assert vocab.id_of("BarEmpty", 0) == 10
    assert vocab.id_of("Position", 0) == 11
    assert vocab.id_of("Position", 188) == 58
    assert vocab.id_of("Pitch", 0) == 59
    assert vocab.id_of("Pitch", 127) == 186
    assert vocab.id_of("PitchDrum", 25) == 187
    assert vocab.id_of("Duration", 4) == 218
    assert vocab.id_of("Duration", 384) == 249
    assert vocab.id_of("Velocity", 0) == 250
    assert vocab.id_of("Velocity", 31) == 281


def test_duration_mesh_layout():
    mesh = DURATION_MESH
    assert len(mesh) == 32
    assert mesh[:12] == tuple(range(4, 49, 4))
    assert mesh[12:24] == tuple(range(60, 193, 12))
    assert mesh[24:] == tuple(range(216, 385, 24))


def test_velocity_bins():
    assert velocity_bin(64) == 16
    assert velocity_decode(16) == 66
    assert velocity_bin(127) == 31
    assert velocity_bin(1) == 0
    assert velocity_decode(velocity_bin(2)) == 2
    # decode always lands back in the same bin
    for b in range(32):
        assert velocity_bin(velocity_decode(b)) == b


def test_snap_to_mesh():
    assert snap_to_mesh(1) == 4
    assert snap_to_mesh(48) == 48
    assert snap_to_mesh(50) == 48
    assert snap_to_mesh(54) == 48   # equidistant tie -> smaller
    assert snap_to_mesh(55) == 60
    assert snap_to_mesh(204) == 192  # tie again
    assert snap_to_mesh(205) == 216
    assert snap_to_mesh(1000) == 384


def test_array_snaps_match_the_scalar_ones():
    durations = np.arange(-5, 1000)
    assert [DURATION_MESH[i] for i in mesh_index(durations)] == [
        snap_to_mesh(int(d)) for d in durations]
    assert VELOCITY_BIN.tolist() == [velocity_bin(v) for v in range(128)]
    ticks = np.arange(TICKS_PER_BAR)
    assert (_slot(ticks) * POSITION_GRID).tolist() == [
        snap_position(int(t)) for t in ticks]
    # the tokenizer dedupes on neighbouring drum keys: the map is monotone
    keys = [drum_key(p) for p in range(128)]
    assert keys == sorted(keys) and set(keys) == set(DRUM_KEYS)
    vocab = build_vocab()
    assert vocab.drum_ids.tolist() == [vocab.id_of("PitchDrum", k) for k in keys]


def test_snap_position():
    assert snap_position(0) == 0
    assert snap_position(1) == 0
    assert snap_position(2) == 4   # half-up
    assert snap_position(190) == 188  # clamped to last slot


def test_drum_key_folding():
    assert drum_key(36) == 36
    assert drum_key(30) == 29  # tie between 29 and 31 -> lower
    assert drum_key(33) == 31  # tie between 31 and 35 -> lower
    assert drum_key(0) == 25
    assert drum_key(127) == 59


def test_track_sequence_structure(vocab):
    song = Song([
        Track("Drum", [Note(36, 0, 24, 64)]),
        Track("Piano", [Note(60, 192, 48, 90)]),
    ], 2)
    seqs = tokenize_song(song, vocab)
    drum, piano = seqs.seqs[0], seqs.seqs[1]
    assert drum[:2] == [vocab.id_of("Instrument", "Drum"), BOS_ID]
    assert [vocab.spec_of(i).kind for i in drum[2:seqs.lengths[0]]] == [
        "BarNormal", "Position", "PitchDrum", "BarEmpty", "EOS"]
    assert [vocab.spec_of(i).kind for i in piano[2:seqs.lengths[1]]] == [
        "BarEmpty", "BarNormal", "Position", "Pitch", "Duration", "Velocity",
        "EOS"]
    # both sequences padded to a common width
    assert len(drum) == len(piano)
    assert piano[seqs.lengths[1]:] == [PAD_ID] * (len(piano) - seqs.lengths[1])


def test_bar_index_and_positions(vocab):
    song = Song([Track("Piano", [Note(60, 0, 24, 90), Note(62, 192, 24, 90)])], 2)
    seqs = tokenize_song(song, vocab)
    bars = seqs.bar_token_positions[0]
    assert len(bars) == 2
    bidx = seqs.bar_index()[0]
    assert bidx.dtype == np.int64 and bidx.shape == (seqs.length,)
    assert bidx[0] == bidx[1] == 0          # framing maps to bar 0
    assert bidx[bars[1]] == 1
    assert all(bidx[k] == 1 for k in range(bars[1], seqs.lengths[0]))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(st.integers(0, 320), max_size=30), max_size=5))
@example([])                                    # zero tracks
@example([[], [4, 1, 9, 11, 300, 10, 2], []])   # empty lists, a merged id
@example([[4, 1, 290, 11, 9, 9, 10, 2], [10]])  # note runs before a bar
def test_build_track_seqs_matches_a_token_loop(lists):
    """Against the per-token loop: merged ids (>= vocab size) are note runs,
    padding keeps the last bar's index, and the derived bar index is the
    loop's."""
    vocab = build_vocab()
    seqs = build_track_seqs([list(ids) for ids in lists], vocab)
    width = max(map(len, lists), default=0)
    derived = seqs.bar_index()
    assert derived.dtype == np.int64 and derived.shape == (len(lists), width)
    for ti, ids in enumerate(lists):
        bars, bidx, current = [], [], 0
        for k, tid in enumerate(ids + [PAD_ID] * (width - len(ids))):
            if k < len(ids) and tid < vocab.size and vocab.spec_of(tid).kind in (
                    "BarNormal", "BarEmpty"):
                bars.append(k)
                current = len(bars) - 1
            bidx.append(current)
        assert seqs.bar_token_positions[ti] == bars
        assert derived[ti].tolist() == bidx
        assert seqs.seqs[ti] == ids + [PAD_ID] * (width - len(ids))
    with pytest.raises(DataError):
        build_track_seqs([[3, 1, -1]], vocab)


def test_same_position_notes_share_one_position_token(vocab):
    song = Song([Track("Piano", [Note(60, 0, 24, 90), Note(64, 0, 24, 90)])], 1)
    seqs = tokenize_song(song, vocab)
    kinds = [vocab.spec_of(i).kind for i in seqs.seqs[0][:seqs.lengths[0]]]
    assert kinds.count("Position") == 1
    assert kinds.count("Pitch") == 2


def test_tokenize_rejects_out_of_range_notes(vocab):
    song = Song([Track("Piano", [Note(60, 500, 24, 90)])], 1)
    with pytest.raises(NoteOutOfRange):
        tokenize_song(song, vocab)
    with pytest.raises(NoteOutOfRange):
        tokenize_song(Song([Track("Drum", [Note(36, -4, 24, 64)])], 1), vocab)


def test_tokenize_rejects_songs_off_the_grid_and_out_of_range_values(vocab):
    """A song at 24 ticks per quarter used to tokenize as if it were at 48;
    a drum pitch past 127 was folded and a velocity past 127 binned.
    snap_song and tokenize_remi_plus refuse the same songs."""
    notes = [Note(60, 0, 24, 90), Note(64, 96, 24, 90)]
    off_grid = Song([Track("Piano", notes)], 2, resolution=24)
    quantizers = (tokenize_song, snap_song, tokenize_remi_plus)
    for quantize in quantizers:
        with pytest.raises(DataError):
            quantize(off_grid, vocab)
    with pytest.raises(DataError):
        extract_expert_features(off_grid)
    for bad in (Note(128, 0, 24, 64), Note(-1, 0, 24, 64),
                Note(60, 0, 24, 128), Note(60, 0, 24, -1)):
        for inst in ("Piano", "Drum"):
            for quantize in quantizers:
                with pytest.raises(DataError):
                    quantize(Song([Track(inst, [bad])], 1), vocab)


def test_round_trip_equals_snap(vocab):
    # off-grid onsets, off-mesh durations, odd velocities, exotic drum pitches
    song = Song([
        Track("Drum", [Note(30, 2, 99, 120), Note(36, 50, 24, 64)]),
        Track("Piano", [Note(60, 1, 55, 91), Note(64, 241, 204, 17)]),
        Track("SquareSynth", [Note(72, 100, 13, 77)]),
    ], 2)
    seqs = tokenize_song(song, vocab)
    assert same_seqs(seqs, oracle_tokenize(song, vocab))
    back = detokenize(seqs, vocab)
    snap = snap_song(song, vocab)
    for a, b in zip(back.tracks, snap.tracks):
        assert a.notes == b.notes
    assert back.n_bars == snap.n_bars


def test_round_trip_is_identity_on_snapped_corpus(vocab, micro_corpus):
    for song in micro_corpus[:6]:
        back = detokenize(tokenize_song(song, vocab), vocab)
        for a, b in zip(back.tracks, song.tracks):
            assert a.notes == b.notes


def test_detokenize_error_positions(vocab):
    inst = vocab.id_of("Instrument", "Piano")
    pos0 = vocab.id_of("Position", 0)
    bar = vocab.id_of("BarNormal", 0)
    pitch = vocab.id_of("Pitch", 60)
    dur = vocab.id_of("Duration", 24)
    vel = vocab.id_of("Velocity", 16)

    def err_tracks(lists):
        with pytest.raises(MalformedSequence) as e:
            detokenize(build_track_seqs(lists, vocab), vocab)
        return e.value

    def err(ids):
        return err_tracks([ids])

    assert err([pos0]).index == 0                 # missing Instrument
    assert err([inst, pos0]).index == 1           # missing BOS
    e = err([inst, BOS_ID, pos0])                 # Position before Bar
    assert (e.track, e.index) == (0, 2)
    assert err([inst, BOS_ID, bar, pitch, dur, vel]).index == 3  # no Position
    assert err([inst, BOS_ID, bar, pos0, pitch, dur]).index == 4  # orphan Pitch
    # a note broken off by any token but its next part, or by the end of the
    # list, is reported at its Pitch
    pitch2 = vocab.id_of("Pitch", 64)
    for opened in ([pitch], [pitch, dur]):
        for tail in ([bar, pos0, pitch, dur, vel], [EOS_ID], [PAD_ID],
                     [pitch2, dur, vel], [vel] if opened == [pitch] else [dur], []):
            e = err([inst, BOS_ID, bar, pos0] + opened + tail)
            assert (str(e), e.index) == (
                "Pitch without Duration+Velocity (track 0, index 4)", 4)
    # a shorter track pads after its open note
    e = err_tracks([[inst, BOS_ID, bar, EOS_ID, PAD_ID, PAD_ID],
                    [inst, BOS_ID, bar, pos0, pitch]])
    assert (e.track, e.index) == (1, 4)
    assert err([inst, BOS_ID, bar, pos0, dur]).index == 4  # stray Duration
    e = err([inst, BOS_ID, bar, EOS_ID, bar])     # content after EOS
    assert e.index == 4
    drum_tok = vocab.id_of("PitchDrum", 36)
    assert err([inst, BOS_ID, bar, pos0, drum_tok]).index == 4  # drum on pitched
    pos96 = vocab.id_of("Position", 96)
    e = err([inst, BOS_ID, bar, pos96, pitch, dur, vel, pos0, EOS_ID])
    assert e.index == 7                           # Position goes back in a bar
    # an equal Position, or a lower one after a new Bar, is legal
    song = detokenize(build_track_seqs([[inst, BOS_ID, bar, pos96, pos96, bar,
                                         pos0, pitch, dur, vel, EOS_ID]], vocab),
                      vocab)
    assert [n.onset for n in song.tracks[0].notes] == [TICKS_PER_BAR]


def test_remi_plus_structure(vocab):
    song = Song([
        Track("Drum", [Note(36, 0, 24, 64)]),
        Track("Piano", [Note(60, 0, 48, 90)]),
    ], 1)
    ids = tokenize_remi_plus(song, vocab)
    kinds = [vocab.spec_of(i).kind for i in ids]
    assert kinds == ["BOS", "BarNormal", "Position", "Instrument", "PitchDrum",
                     "Instrument", "Pitch", "Duration", "Velocity", "EOS"]
    # track order breaks the tie at one position
    assert vocab.spec_of(ids[3]).value == "Drum"
    assert vocab.spec_of(ids[5]).value == "Piano"


def test_remi_plus_is_longer_than_max_track(vocab, micro_corpus):
    for song in micro_corpus[:4]:
        flat = len(tokenize_remi_plus(song, vocab))
        per_track = max(tokenize_song(song, vocab).lengths)
        assert flat > per_track


def test_corpus_stats(vocab):
    song = make_song(2, n_bars=20)
    seqs = tokenize_song(song, vocab)
    stats = corpus_stats([seqs], [song.note_count()], [song.n_bars * 4],
                         vocab.size)
    assert stats.voc_size == 282
    assert stats.n_songs == 1
    assert stats.avg_len == max(seqs.lengths)
    assert stats.tok_per_beat == pytest.approx(sum(seqs.lengths) / 80)
    assert stats.tok_per_note == pytest.approx(
        sum(seqs.lengths) / song.note_count())
    with pytest.raises(EmptyCorpus):
        corpus_stats([], [], [], vocab.size)


def test_token_corpus_file_round_trip(vocab):
    song = make_song(3, n_bars=20)
    seqs = tokenize_song(song, vocab)
    text = dump_token_corpus([("song3", seqs.seqs)])
    loaded = load_token_corpus(text)
    assert loaded == [("song3", seqs.seqs)]
    assert dump_token_corpus(loaded) == text


def test_corpus_files_share_one_header_rule(vocab):
    """Both corpus formats frame songs as `#SONG <id>` records: ids come back
    exactly, and any other line starting with `#SONG` is a DataError."""
    grid = quantize_features(extract_expert_features(make_song(1, n_bars=2)))
    for song_id in ("a", "song 3", " lead", "x #SONG y"):
        tokens = [(song_id, [[3, 1, 2], [4, 1, 2]])]
        assert load_token_corpus(dump_token_corpus(tokens)) == tokens
        assert [i for i, _ in load_feature_corpus(
            dump_feature_corpus([(song_id, grid)]))] == [song_id]
    for bad_id in ("", " ", "a\nb"):
        with pytest.raises(DataError):
            dump_token_corpus([(bad_id, [[3]])])
        with pytest.raises(DataError):
            dump_feature_corpus([(bad_id, grid)])
    for header in ("#SONG", "#SONG ", "#SONG  ", "#SONGX a"):
        with pytest.raises(DataError):
            load_token_corpus(f"#SONG a\n3 1 2\n{header}\n3 1 2\n")
        with pytest.raises(DataError):
            load_feature_corpus(dump_feature_corpus([("a", grid)]) + header)
    with pytest.raises(DataError):
        load_token_corpus("3 1 2\n#SONG a\n")


def test_vocab_file_round_trip(vocab):
    text = dump_vocab(vocab)
    v2 = load_vocab(text)
    assert v2.size == vocab.size
    assert v2.specs == vocab.specs
    assert dump_vocab(v2) == text
    # the layout is fixed: one more Position line is not another grid
    lines = text.splitlines()
    extra = lines[:59] + ["59 Position:192"] + [
        f"{i + 1} {ln.split(None, 1)[1]}" for i, ln in enumerate(lines[59:], 59)]
    with pytest.raises(DataError):
        load_vocab("\n".join(extra) + "\n")


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 127), st.integers(0, 383),
                          st.integers(1, 400), st.integers(1, 127)),
                min_size=1, max_size=30),
       st.lists(st.tuples(st.integers(0, 29), st.integers(-1, 1),
                          st.integers(-3, 3), st.integers(1, 127)), max_size=10))
def test_round_trip_matches_snap_property(raw, twins):
    """Each twin repeats the pitch of a drawn note at its onset or a tick
    off it, mostly in its position slot, with a duration a few ticks off
    (often snapping to the same mesh value) and a velocity of its own: which
    of the two each quantizer keeps must agree."""
    vocab = build_vocab()
    notes = [Note(p, o, d, v) for p, o, d, v in raw]
    for i, shift, stretch, v in twins:
        n = notes[i % len(raw)]
        notes.append(Note(n.pitch, min(max(n.onset + shift, 0), 383),
                          max(n.duration + stretch, 1), v))
    song = Song([Track("Piano", notes), Track("Drum", list(notes))], 2)
    seqs = tokenize_song(song, vocab)
    assert same_seqs(seqs, oracle_tokenize(song, vocab))
    back = detokenize(seqs, vocab)
    snap = snap_song(song, vocab)
    for a, b in zip(back.tracks, snap.tracks):
        assert a.notes == b.notes
    assert snap == oracle_snap_song(song)
    assert tokenize_remi_plus(song, vocab) == oracle_remi_plus(song, vocab)


def test_snap_keeps_the_note_the_tokenizer_keeps(vocab):
    """Two notes of one pitch in one slot whose raw order (duration 49
    before 50) differs from their snapped one (both 48, velocity 10 before
    102): both quantizers keep the first by raw values."""
    song = Song([Track("Piano", [Note(60, 0, 49, 100), Note(60, 0, 50, 10)])], 1)
    kept = [Note(60, 0, 48, 102)]
    assert detokenize(tokenize_song(song, vocab), vocab).tracks[0].notes == kept
    assert snap_song(song, vocab).tracks[0].notes == kept
    assert oracle_snap_song(song).tracks[0].notes == kept


# -- the straightforward path: per-note loops with a vocab lookup per token ---------


def _oracle_bar_notes(track, n_bars):
    bars = [[] for _ in range(n_bars)]
    for n in track.notes:
        b = n.onset // TICKS_PER_BAR
        if n.onset < 0 or b >= n_bars:
            raise NoteOutOfRange(f"onset {n.onset} outside {n_bars} bars")
        bars[b].append(n)
    return bars


def _oracle_note_ids(n, is_drum, vocab):
    if is_drum:
        return [vocab.id_of("PitchDrum", drum_key(n.pitch))]
    return [vocab.id_of("Pitch", n.pitch),
            vocab.id_of("Duration", snap_to_mesh(n.duration)),
            vocab.id_of("Velocity", velocity_bin(n.velocity))]


def _oracle_body_ids(track, n_bars, vocab):
    is_drum = track.instrument == "Drum"
    ids = []
    for notes in _oracle_bar_notes(track, n_bars):
        if not notes:
            ids.append(vocab.id_of("BarEmpty", 0))
            continue
        ids.append(vocab.id_of("BarNormal", 0))
        groups = {}
        for n in notes:
            groups.setdefault(snap_position(n.onset % TICKS_PER_BAR), []).append(n)
        for pos in sorted(groups):
            ids.append(vocab.id_of("Position", pos))
            seen = set()
            for n in sorted(groups[pos], key=lambda n: (n.pitch, n.duration, n.velocity)):
                key = drum_key(n.pitch) if is_drum else n.pitch
                if key not in seen:
                    seen.add(key)
                    ids += _oracle_note_ids(n, is_drum, vocab)
    return ids


def oracle_snap_song(song):
    """Each track keeps, per snapped (onset, key), the first note by raw
    (pitch, duration, velocity), as the tokenizer does."""
    tracks = []
    for t in song.tracks:
        kept = {}
        for n in sorted(t.notes, key=lambda n: (n.pitch, n.duration, n.velocity)):
            bar, tick = divmod(n.onset, TICKS_PER_BAR)
            onset = bar * TICKS_PER_BAR + snap_position(tick)
            if t.instrument == "Drum":
                note = Note(drum_key(n.pitch), onset, DRUM_DURATION, DRUM_VELOCITY)
            else:
                note = Note(n.pitch, onset, snap_to_mesh(n.duration),
                            velocity_decode(velocity_bin(n.velocity)))
            kept.setdefault((note.onset, note.pitch), note)
        tracks.append(Track(t.instrument, sorted_unique_notes(list(kept.values())),
                            t.program, t.name, t.is_melody))
    return Song(tracks, song.n_bars, song.resolution)


def oracle_remi_plus(song, vocab):
    per_bar = [{} for _ in range(song.n_bars)]
    for ti, t in enumerate(song.tracks):
        for b, notes in enumerate(_oracle_bar_notes(t, song.n_bars)):
            for n in notes:
                pos = snap_position(n.onset % TICKS_PER_BAR)
                per_bar[b].setdefault(pos, []).append((ti, n.pitch, n))
    ids = [BOS_ID]
    for groups in per_bar:
        ids.append(vocab.id_of("BarNormal", 0))
        for pos in sorted(groups):
            ids.append(vocab.id_of("Position", pos))
            for ti, _, n in sorted(groups[pos], key=lambda x: (x[0], x[1])):
                inst = song.tracks[ti].instrument
                ids.append(vocab.id_of("Instrument", inst))
                ids += _oracle_note_ids(n, inst == "Drum", vocab)
    ids.append(EOS_ID)
    return ids


def oracle_tokenize(song, vocab):
    return build_track_seqs(
        [[vocab.id_of("Instrument", t.instrument), BOS_ID]
         + _oracle_body_ids(t, song.n_bars, vocab) + [EOS_ID] for t in song.tracks],
        vocab)


def same_seqs(a, b) -> bool:
    return (a.seqs, a.lengths, a.bar_token_positions) == (
        b.seqs, b.lengths, b.bar_token_positions)


def test_tokenizer_matches_the_loop_oracle(vocab, micro_corpus, edge_songs):
    """Token ids of the micro-corpus and of 300 edge-case songs (empty bars,
    drum-only songs, durations past the mesh, notes that share a position
    and a pitch or drum key) equal the per-note loop's, and so do the BPE
    merges learned from them; zero tracks and zero bars too."""
    for song in micro_corpus + edge_songs + [Song([], 0), Song([Track("Piano")], 0)]:
        assert same_seqs(tokenize_song(song, vocab), oracle_tokenize(song, vocab))
    windows = micro_corpus[:12]
    assert learn_bpe([tokenize_song(w, vocab) for w in windows], vocab,
                     vocab.size + 100).merges == learn_bpe(
        [oracle_tokenize(w, vocab) for w in windows], vocab, vocab.size + 100).merges


def test_snap_and_remi_plus_match_the_loop_oracles(vocab, micro_corpus, edge_songs):
    """snap_song and the interleaved ids of the micro-corpus and the 300
    edge-case songs equal the per-note loops', zero tracks and zero bars
    too. A note past the song's bars is NoteOutOfRange in snap_song and in
    both REMI+ forms, as in tokenize_song."""
    empty = [Song([], 0), Song([Track("Piano")], 0), Song([], 2),
             Song([Track("Drum"), Track("Bass")], 2)]
    for song in micro_corpus + edge_songs + empty:
        assert snap_song(song, vocab) == oracle_snap_song(song)
        assert tokenize_remi_plus(song, vocab) == oracle_remi_plus(song, vocab)
    past = Song([Track("Piano", [Note(60, 0, 24, 90)]),
                 Track("Drum", [Note(36, TICKS_PER_BAR, 24, 64)])], 1)
    for quantize in (tokenize_remi_plus, oracle_remi_plus, snap_song, tokenize_song):
        with pytest.raises(NoteOutOfRange):
            quantize(past, vocab)
