"""Standard MIDI File reader/writer against hand-assembled byte fixtures,
the byte-by-byte reader it replaced as its oracle, and mutated files."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bandgen.errors import BandgenError, MalformedMidi, UnsupportedTimeSignature
from bandgen.midi import DRUM_CHANNEL, parse_midi, write_midi
from bandgen.score import Note, Song, Track, program_to_class, quantize_song
from bandgen.synth import make_corpus, make_song


def chunk(tag: bytes, body: bytes) -> bytes:
    return tag + struct.pack(">I", len(body)) + body


def header(fmt=1, ntrks=2, division=48) -> bytes:
    return chunk(b"MThd", struct.pack(">HHH", fmt, ntrks, division))


CONDUCTOR = chunk(b"MTrk", bytes([
    0x00, 0xFF, 0x58, 0x04, 0x04, 0x02, 0x18, 0x08,   # 4/4
    0x00, 0xFF, 0x2F, 0x00,
]))


def test_parse_hand_assembled_file():
    body = bytes([
        0x00, 0xC0, 0x21,          # program 33 (Bass), channel 0
        0x00, 0x90, 0x28, 0x64,    # on  pitch 40 vel 100
        0x30, 0x28, 0x00,          # +48: running-status vel-0 off
        0x00, 0x2A, 0x50,          # on  pitch 42 vel 80
        0x60, 0x2A, 0x00,          # +96: off
        0x00, 0xFF, 0x2F, 0x00,
    ])
    song = parse_midi(header() + CONDUCTOR + chunk(b"MTrk", body))
    assert len(song.tracks) == 1
    t = song.tracks[0]
    assert t.instrument == "Bass" and t.program == 33
    assert t.notes == [Note(40, 0, 48, 100), Note(42, 48, 96, 80)]
    assert song.n_bars == 1
    assert song.resolution == 48


def test_parse_channel_10_is_drums_and_splits_channels():
    body = bytes([
        0x00, 0x99, 0x24, 0x64,    # drum hit, channel 9
        0x00, 0x90, 0x3C, 0x40,    # piano note, channel 0
        0x30, 0x89, 0x24, 0x40,    # drum off (running status not used)
        0x00, 0x80, 0x3C, 0x40,
        0x00, 0xFF, 0x2F, 0x00,
    ])
    song = parse_midi(header() + CONDUCTOR + chunk(b"MTrk", body))
    by_inst = {t.instrument: t for t in song.tracks}
    assert set(by_inst) == {"Drum", "Piano"}
    assert by_inst["Drum"].notes == [Note(36, 0, 48, 100)]
    assert by_inst["Piano"].notes == [Note(60, 0, 48, 64)]


def test_parse_melody_name_selects_square_synth():
    name = b"Lead Melody"
    body = bytes([0x00, 0xFF, 0x03, len(name)]) + name + bytes([
        0x00, 0xC0, 0x50,          # program 80 would map to Strings
        0x00, 0x90, 0x48, 0x64,
        0x30, 0x80, 0x48, 0x00,
        0x00, 0xFF, 0x2F, 0x00,
    ])
    song = parse_midi(header() + CONDUCTOR + chunk(b"MTrk", body))
    assert song.tracks[0].instrument == "SquareSynth"
    assert song.tracks[0].is_melody


def test_parse_closes_dangling_note_at_track_end():
    body = bytes([
        0x00, 0x90, 0x3C, 0x40,
        0x18, 0xFF, 0x2F, 0x00,    # end of track 24 ticks later, no off
    ])
    song = parse_midi(header() + CONDUCTOR + chunk(b"MTrk", body))
    assert song.tracks[0].notes == [Note(60, 0, 24, 64)]


def test_parse_fifo_for_stacked_identical_pitches():
    body = bytes([
        0x00, 0x90, 0x3C, 0x40,    # first on
        0x10, 0x90, 0x3C, 0x40,    # second on, same pitch, +16
        0x10, 0x80, 0x3C, 0x00,    # first off at +32
        0x20, 0x80, 0x3C, 0x00,    # second off at +64
        0x00, 0xFF, 0x2F, 0x00,
    ])
    song = parse_midi(header() + CONDUCTOR + chunk(b"MTrk", body))
    assert song.tracks[0].notes == [Note(60, 0, 32, 64), Note(60, 16, 48, 64)]


def test_parse_rejects_non_44_meter():
    bad = chunk(b"MTrk", bytes([
        0x00, 0xFF, 0x58, 0x04, 0x03, 0x02, 0x18, 0x08,  # 3/4
        0x00, 0xFF, 0x2F, 0x00,
    ]))
    with pytest.raises(UnsupportedTimeSignature):
        parse_midi(header(ntrks=1) + bad)


def test_parse_rejects_malformed_files():
    with pytest.raises(MalformedMidi):
        parse_midi(b"RIFF" + b"\x00" * 20)              # wrong magic
    with pytest.raises(MalformedMidi):
        parse_midi(header()[:8])                        # truncated
    with pytest.raises(MalformedMidi):
        parse_midi(chunk(b"MThd", struct.pack(">HHH", 2, 1, 48)))  # format 2
    smpte = chunk(b"MThd", struct.pack(">HHh", 1, 1, -25 * 256))
    with pytest.raises(MalformedMidi):
        parse_midi(smpte + CONDUCTOR)


def test_parse_rejects_a_data_byte_with_its_top_bit_set():
    """`90 C8 40` used to read as a note of pitch 200, and `C0 80` as
    program 128, a DataError."""
    for event in ([0x90, 0xC8, 0x40], [0x90, 0x3C, 0x80], [0xC0, 0x80]):
        body = chunk(b"MTrk", bytes([0x00] + event + [0x00, 0xFF, 0x2F, 0x00]))
        for parse in (parse_midi, oracle_parse_midi):
            with pytest.raises(MalformedMidi, match="status byte in place"):
                parse(header(ntrks=1) + body)


def test_parse_rejects_overlong_varlen():
    body = bytes([0xFF, 0xFF, 0xFF, 0xFF, 0x7F,  # 5-byte delta
                  0xFF, 0x2F, 0x00])
    with pytest.raises(MalformedMidi):
        parse_midi(header(ntrks=1) + chunk(b"MTrk", body))


def test_write_parse_round_trip():
    song = make_song(11)
    back = quantize_song(parse_midi(write_midi(song)))
    assert back.n_bars == song.n_bars
    assert [t.instrument for t in back.tracks] == [t.instrument
                                                   for t in song.tracks]
    for a, b in zip(back.tracks, song.tracks):
        assert a.notes == b.notes


def test_write_is_deterministic():
    song = make_song(5)
    assert write_midi(song) == write_midi(song)


# -- the straightforward reader: one method call per byte, the oracle ---------------


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise MalformedMidi("unexpected end of data")
        out = self.data[self.pos:self.pos + n]
        self.pos += n
        return out

    def u8(self) -> int:
        return self.take(1)[0]

    def varlen(self) -> int:
        value = 0
        for _ in range(4):
            b = self.u8()
            value = (value << 7) | (b & 0x7F)
            if not b & 0x80:
                return value
        raise MalformedMidi("variable-length quantity longer than 4 bytes")


def _read_chunk(r: _Reader) -> tuple[bytes, bytes]:
    tag = r.take(4)
    (length,) = struct.unpack(">I", r.take(4))
    return tag, r.take(length)


def oracle_parse_midi(data: bytes) -> Song:
    r = _Reader(data)
    tag, head = _read_chunk(r)
    if tag != b"MThd" or len(head) < 6:
        raise MalformedMidi("missing MThd header")
    fmt, ntrks, division = struct.unpack(">HHH", head[:6])
    if fmt not in (0, 1):
        raise MalformedMidi(f"unsupported SMF format {fmt}")
    if division & 0x8000:
        raise MalformedMidi("SMPTE time division not supported")
    if division == 0:
        raise MalformedMidi("zero time division")
    notes, programs, names = {}, {}, {}
    for chunk_idx in range(ntrks):
        try:
            tag, body = _read_chunk(r)
        except MalformedMidi:
            raise MalformedMidi(f"truncated track chunk {chunk_idx}")
        if tag != b"MTrk":
            raise MalformedMidi(f"expected MTrk, got {tag!r}")
        _oracle_track(body, chunk_idx, notes, programs, names)
    tracks = []
    for (ci, ch) in sorted(notes):
        ns = notes[(ci, ch)]
        if not ns:
            continue
        program = programs.get((ci, ch), 0)
        name = names.get(ci, "")
        melody = "melody" in name.lower()
        if ch == DRUM_CHANNEL:
            inst = "Drum"
        elif melody:
            inst = "SquareSynth"
        else:
            inst = program_to_class(program)
        ns.sort(key=lambda n: (n.onset, n.pitch, n.duration, n.velocity))
        tracks.append(Track(inst, ns, program, name, melody and ch != DRUM_CHANNEL))
    tpb = division * 4
    last = max((n.onset for t in tracks for n in t.notes), default=-1)
    return Song(tracks, 0 if last < 0 else last // tpb + 1, division)


def _oracle_track(body, chunk_idx, notes, programs, names):
    r = _Reader(body)
    tick = 0
    status = 0
    open_notes = {}

    def close(ch, pitch, end):
        stack = open_notes.get((ch, pitch))
        if not stack:
            return
        start, vel = stack.pop(0)
        notes.setdefault((chunk_idx, ch), []).append(
            Note(pitch, start, max(1, end - start), max(1, vel)))

    while r.pos < len(r.data):
        tick += r.varlen()
        b = r.u8()
        if b == 0xFF:
            mtype = r.u8()
            meta = r.take(r.varlen())
            if mtype == 0x58:
                if len(meta) < 2 or meta[0] != 4 or meta[1] != 2:
                    raise UnsupportedTimeSignature(
                        f"meter {meta[0] if meta else '?'}/2^{meta[1] if len(meta) > 1 else '?'}")
            elif mtype == 0x03:
                names.setdefault(chunk_idx, meta.decode("latin-1", "replace"))
            elif mtype == 0x2F:
                break
            continue
        if b in (0xF0, 0xF7):
            r.take(r.varlen())
            status = 0
            continue
        if b & 0x80:
            status = b
            d0 = r.u8()
        else:
            if not status & 0x80:
                raise MalformedMidi("data byte with no running status")
            d0 = b
        kind = status & 0xF0
        ch = status & 0x0F
        d1 = r.u8() if kind in (0x80, 0x90, 0xA0, 0xB0, 0xE0) else 0
        if d0 > 0x7F or d1 > 0x7F:
            raise MalformedMidi("status byte in place of a data byte")
        if kind == 0x90 and d1 > 0:
            open_notes.setdefault((ch, d0), []).append((tick, d1))
            programs.setdefault((chunk_idx, ch), programs.get((chunk_idx, ch), 0))
        elif kind == 0x80 or (kind == 0x90 and d1 == 0):
            close(ch, d0, tick)
        elif kind == 0xC0:
            programs.setdefault((chunk_idx, ch), d0)
    for (ch, pitch), stack in list(open_notes.items()):
        while stack:
            close(ch, pitch, tick)


def outcome(parse, data: bytes):
    """The Song parsed, or the type and message of the error raised."""
    try:
        return parse(data)
    except BandgenError as e:
        return type(e), str(e)


def test_reader_matches_the_byte_reader_oracle(micro_corpus, edge_songs):
    """Songs, at 48 and at 480 ticks per quarter, and every hand-assembled
    fixture of this file read the same as through the oracle."""
    files = [write_midi(s) for s in make_corpus(n_songs=15, n_bars=40, seed=0)]
    files += [write_midi(s) for s in micro_corpus[:10] + edge_songs]
    files += [write_midi(Song(s.tracks, s.n_bars, resolution=480))
              for s in edge_songs[:50]]
    running = bytes([0x00, 0x90, 0x3C, 0x40, 0x10, 0x3E, 0x40, 0x10, 0x3C, 0x00,
                     0x81, 0x00, 0x3E, 0x00, 0x00, 0xF0, 0x02, 0x01, 0x02,
                     0x00, 0x90, 0x40, 0x40, 0x00, 0xFF, 0x2F, 0x00])
    files += [header() + CONDUCTOR + chunk(b"MTrk", running),
              header(ntrks=1) + chunk(b"MTrk", running[:-3])]
    for data in files:
        assert outcome(parse_midi, data) == outcome(oracle_parse_midi, data)


def _mutate(rng, data: bytes) -> bytes:
    """One byte flip, truncation, duplicated span or deleted span."""
    b = bytearray(data)
    kind = rng.integers(4)
    at = int(rng.integers(len(b)))
    if kind == 0:
        b[at] ^= 1 << int(rng.integers(8))
    elif kind == 1:
        del b[at:]
    else:
        span = bytes(b[at:at + int(rng.integers(1, 16))])
        if kind == 2:
            b[at:at] = span
        else:
            del b[at:at + len(span)]
    return bytes(b)


def _mutate_body(rng, data: bytes) -> bytes:
    """A mutation inside one track body, its chunk length kept right, so
    that the body reader meets it."""
    pos, chunks = 14, []
    while pos < len(data):
        (length,) = struct.unpack_from(">I", data, pos + 4)
        chunks.append(data[pos + 8:pos + 8 + length])
        pos += 8 + length
    k = int(rng.integers(len(chunks)))
    chunks[k] = _mutate(rng, chunks[k]) if chunks[k] else chunks[k]
    return data[:14] + b"".join(chunk(b"MTrk", c) for c in chunks)


def test_mutated_files_fail_only_with_typed_errors():
    """1,500 seeded mutations of written files, half of them inside a track
    body: each parses, or raises a BandgenError (never an IndexError,
    struct.error or UnicodeError), and either way the oracle reads it the
    same."""
    rng = np.random.default_rng(31)
    sources = [write_midi(make_song(seed, n_bars=4)) for seed in range(5)]
    failures = 0
    for trial in range(1500):
        mutate = _mutate_body if trial % 2 else _mutate
        data = mutate(rng, sources[trial % len(sources)])
        if rng.random() < 0.3:
            data = mutate(rng, data)
        got = outcome(parse_midi, data)
        assert got == outcome(oracle_parse_midi, data), trial
        failures += isinstance(got, tuple)
    assert 100 < failures < 1400  # both outcomes are exercised


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 127), st.integers(0, 383),
                          st.integers(1, 400), st.integers(1, 127)),
                min_size=1, max_size=30))
def test_written_songs_read_as_through_the_oracle(raw):
    notes = [Note(p, o, d, v) for p, o, d, v in raw]
    song = Song([Track("Piano", notes), Track("Drum", list(notes))], 2)
    data = write_midi(song)
    assert parse_midi(data) == oracle_parse_midi(data)
