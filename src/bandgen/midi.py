"""Standard MIDI File reader/writer.

Reads format 0 and 1 files into the internal Song model at native resolution;
every (track chunk, channel) pair with notes becomes one Track. Channel 10
(index 9) is percussion. Tempo events are ignored: all songs are treated as
120 BPM. Any meter event other than 4/4 rejects the file.

The writer emits a format-1 file at the song's own resolution (its
division), so quantized songs round-trip exactly.
"""

from __future__ import annotations

import struct

from .errors import MalformedMidi, UnsupportedTimeSignature
from .score import NOTE_ORDER, Note, Song, Track, program_to_class

DRUM_CHANNEL = 9

# representative GM program written per instrument class
_CLASS_PROGRAM = {"Piano": 0, "Guitar": 25, "Bass": 33, "Strings": 48, "SquareSynth": 80}

_META_TRACK_NAME = 0x03
_META_END_OF_TRACK = 0x2F
_META_TEMPO = 0x51
_META_TIME_SIGNATURE = 0x58


def _varlen(data: bytes, i: int) -> tuple[int, int]:
    """The variable-length quantity at data[i] and the index after it. Past
    the end of `data` it raises IndexError, which the caller reports."""
    value = 0
    for i in range(i, i + 4):
        b = data[i]
        value = value << 7 | b & 0x7F
        if not b & 0x80:
            return value, i + 1
    raise MalformedMidi("variable-length quantity longer than 4 bytes")


def _chunk(data: bytes, pos: int) -> tuple[bytes, bytes, int]:
    """(tag, body, index after the chunk) of the chunk at data[pos]."""
    body = pos + 8
    if body > len(data):
        raise MalformedMidi("unexpected end of data")
    (length,) = struct.unpack_from(">I", data, pos + 4)
    if body + length > len(data):
        raise MalformedMidi("unexpected end of data")
    return data[pos:pos + 4], data[body:body + length], body + length


def parse_midi(data: bytes) -> Song:
    """Parse SMF bytes into a Song at the file's native resolution."""
    tag, header, pos = _chunk(data, 0)
    if tag != b"MThd" or len(header) < 6:
        raise MalformedMidi("missing MThd header")
    fmt, ntrks, division = struct.unpack(">HHH", header[:6])
    if fmt not in (0, 1):
        raise MalformedMidi(f"unsupported SMF format {fmt}")
    if division & 0x8000:
        raise MalformedMidi("SMPTE time division not supported")
    if division == 0:
        raise MalformedMidi("zero time division")

    # (chunk index, channel) -> state
    notes: dict[tuple[int, int], list[Note]] = {}
    programs: dict[tuple[int, int], int] = {}
    names: dict[int, str] = {}

    for chunk_idx in range(ntrks):
        try:
            tag, body, pos = _chunk(data, pos)
        except MalformedMidi:
            raise MalformedMidi(f"truncated track chunk {chunk_idx}")
        if tag != b"MTrk":
            raise MalformedMidi(f"expected MTrk, got {tag!r}")
        _parse_track(body, chunk_idx, notes, programs, names)

    tracks: list[Track] = []
    for (ci, ch) in sorted(notes):
        ns = notes[(ci, ch)]
        program = programs.get((ci, ch), 0)
        name = names.get(ci, "")
        melody = "melody" in name.lower()
        if ch == DRUM_CHANNEL:
            inst = "Drum"
        elif melody:
            inst = "SquareSynth"
        else:
            inst = program_to_class(program)
        ns.sort(key=NOTE_ORDER)
        tracks.append(Track(inst, ns, program, name, melody and ch != DRUM_CHANNEL))

    tpb = division * 4
    last = max((t.notes[-1].onset for t in tracks), default=-1)
    n_bars = 0 if last < 0 else last // tpb + 1
    return Song(tracks, n_bars, division)


def _parse_track(body: bytes, chunk_idx: int,
                 notes: dict[tuple[int, int], list[Note]],
                 programs: dict[tuple[int, int], int],
                 names: dict[int, str]) -> None:
    """Read one track body in a single pass over its bytes. Reading past
    its end is MalformedMidi("unexpected end of data")."""
    end = len(body)
    i = tick = status = 0
    # (channel, pitch) -> FIFO of (start tick, velocity)
    open_notes: dict[tuple[int, int], list[tuple[int, int]]] = {}
    try:
        while i < end:
            delta = body[i]
            i += 1
            if delta & 0x80:
                delta, i = _varlen(body, i - 1)
            tick += delta
            b = body[i]
            i += 1
            if b == 0xFF:
                mtype = body[i]
                length, i = _varlen(body, i + 1)
                if i + length > end:
                    raise MalformedMidi("unexpected end of data")
                meta = body[i:i + length]
                i += length
                if mtype == _META_TIME_SIGNATURE:
                    if len(meta) < 2 or meta[0] != 4 or meta[1] != 2:
                        raise UnsupportedTimeSignature(
                            f"meter {meta[0] if meta else '?'}/2^{meta[1] if len(meta) > 1 else '?'}")
                elif mtype == _META_TRACK_NAME:
                    names.setdefault(chunk_idx, meta.decode("latin-1", "replace"))
                elif mtype == _META_END_OF_TRACK:
                    break
                continue
            if b in (0xF0, 0xF7):
                length, i = _varlen(body, i)
                if i + length > end:
                    raise MalformedMidi("unexpected end of data")
                i += length
                status = 0
                continue
            if b & 0x80:
                status = b
                d0 = body[i]
                i += 1
            elif status & 0x80:
                d0 = b
            else:
                raise MalformedMidi("data byte with no running status")
            kind = status & 0xF0
            if kind in (0x80, 0x90, 0xA0, 0xB0, 0xE0):
                d1 = body[i]
                i += 1
            else:
                d1 = 0
            if (d0 | d1) > 0x7F:
                raise MalformedMidi("status byte in place of a data byte")
            ch = status & 0x0F
            if kind == 0x90 and d1:
                open_notes.setdefault((ch, d0), []).append((tick, d1))
                programs.setdefault((chunk_idx, ch), 0)
            elif kind == 0x80 or kind == 0x90:
                stack = open_notes.get((ch, d0))
                if stack:
                    start, vel = stack.pop(0)
                    notes.setdefault((chunk_idx, ch), []).append(
                        Note(d0, start, max(1, tick - start), vel))
            elif kind == 0xC0:
                programs.setdefault((chunk_idx, ch), d0)
    except IndexError:
        raise MalformedMidi("unexpected end of data") from None

    # close anything still sounding at the final tick
    for (ch, pitch), stack in open_notes.items():
        for start, vel in stack:
            notes.setdefault((chunk_idx, ch), []).append(
                Note(pitch, start, max(1, tick - start), vel))


# -- writer -------------------------------------------------------------------


def _encode_varlen(value: int) -> bytes:
    out = [value & 0x7F]
    value >>= 7
    while value:
        out.append(0x80 | (value & 0x7F))
        value >>= 7
    return bytes(reversed(out))


def _meta(delta: int, mtype: int, payload: bytes) -> bytes:
    return _encode_varlen(delta) + bytes([0xFF, mtype]) + _encode_varlen(len(payload)) + payload


def _track_chunk(events: bytes) -> bytes:
    body = events + _meta(0, _META_END_OF_TRACK, b"")
    return b"MTrk" + struct.pack(">I", len(body)) + body


def write_midi(song: Song) -> bytes:
    """Serialize a Song as a format-1 SMF at the song's own resolution."""
    chunks: list[bytes] = []
    # conductor track: 4/4 meter and a fixed 120 BPM tempo
    conductor = (_meta(0, _META_TIME_SIGNATURE, bytes([4, 2, 24, 8]))
                 + _meta(0, _META_TEMPO, (500000).to_bytes(3, "big")))
    chunks.append(_track_chunk(conductor))

    next_channel = 0
    for t in song.tracks:
        if t.instrument == "Drum":
            ch = DRUM_CHANNEL
        else:
            if next_channel == DRUM_CHANNEL:
                next_channel += 1
            ch = next_channel % 16
            next_channel += 1
        name = t.name or ("Melody" if t.instrument == "SquareSynth" else t.instrument)
        ev = _meta(0, _META_TRACK_NAME, name.encode("latin-1", "replace"))
        program = _CLASS_PROGRAM.get(t.instrument, t.program)
        ev += _encode_varlen(0) + bytes([0xC0 | ch, program & 0x7F])
        # (tick, order, status, pitch, velocity); offs before ons at a tick
        msgs: list[tuple[int, int, int, int, int]] = []
        for n in t.notes:
            msgs.append((n.onset, 1, 0x90 | ch, n.pitch, n.velocity))
            msgs.append((n.onset + n.duration, 0, 0x80 | ch, n.pitch, 0))
        msgs.sort()
        tick = 0
        for at, _, status, pitch, vel in msgs:
            ev += _encode_varlen(at - tick) + bytes([status, pitch & 0x7F, vel & 0x7F])
            tick = at
        chunks.append(_track_chunk(ev))

    header = b"MThd" + struct.pack(">IHHH", 6, 1, len(chunks), song.resolution)
    return header + b"".join(chunks)


def load_midi_file(path: str) -> Song:
    with open(path, "rb") as f:
        return parse_midi(f.read())


def save_midi_file(song: Song, path: str) -> None:
    with open(path, "wb") as f:
        f.write(write_midi(song))
