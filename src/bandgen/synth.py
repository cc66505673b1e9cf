"""Deterministic synthetic corpus generator.

Produces four-track band arrangements (Drum, Piano, Bass, SquareSynth
melody) whose notes already sit on the tokenizer's grid: onsets are
multiples of the position grid, durations come from the duration mesh, and
velocities sit on bin midpoints. Tokenizing and detokenizing such a song is
therefore the identity on its note content, which makes these songs usable
as round-trip fixtures as well as training data.
"""

from __future__ import annotations

import numpy as np

from .score import (DRUM_DURATION, DRUM_VELOCITY, TICKS_PER_BAR,
                    Note, Song, Track, sorted_unique_notes)

# C major scale degrees and a I-vi-IV-V progression over it
_SCALE = (0, 2, 4, 5, 7, 9, 11)
_PROGRESSION = ((0, (0, 4, 7)), (9, (9, 0, 4)), (5, (5, 9, 0)), (7, (7, 11, 2)))

_KICK, _SNARE, _HAT_CLOSED, _HAT_OPEN, _CRASH = 36, 38, 42, 46, 49


def _vel(bin_index: int) -> int:
    # bin midpoint, survives velocity quantization unchanged
    return 4 * bin_index + 2


def _drum_bar(rng: np.random.Generator, bar: int, start: int) -> list[Note]:
    notes = [Note(_HAT_OPEN if i % 4 == 2 else _HAT_CLOSED, start + 24 * i,
                  DRUM_DURATION, DRUM_VELOCITY) for i in range(8)]
    kicks = [0, 96] if rng.random() < 0.7 else [0, 72, 96]
    notes += [Note(_KICK, start + k, DRUM_DURATION, DRUM_VELOCITY) for k in kicks]
    notes += [Note(_SNARE, start + s, DRUM_DURATION, DRUM_VELOCITY)
              for s in (48, 144)]
    if bar % 8 == 0:
        notes.append(Note(_CRASH, start, DRUM_DURATION, DRUM_VELOCITY))
    return notes


def _bass_bar(rng: np.random.Generator, root: int, start: int, key: int) -> list[Note]:
    base = 36 + (key + root) % 12
    notes = []
    for i in range(4):
        pitch = base if i % 2 == 0 else base + int(rng.choice((0, 7, 12)))
        notes.append(Note(pitch, start + 48 * i, 48, _vel(22 + int(rng.integers(3)))))
    return notes


def _piano_bar(rng: np.random.Generator, triad: tuple[int, ...], start: int,
               key: int) -> list[Note]:
    notes = []
    for off in (0, 96):
        vel = _vel(18 + int(rng.integers(4)))
        for degree in triad:
            pitch = 60 + (key + degree) % 12
            notes.append(Note(pitch, start + off, 96, vel))
    return notes


def _melody_bar(rng: np.random.Generator, start: int, key: int,
                state: dict) -> list[Note]:
    notes = []
    pos = 0
    while pos < TICKS_PER_BAR:
        dur = 48 if rng.random() < 0.25 else 24
        if pos + dur > TICKS_PER_BAR:
            dur = 24
        step = int(rng.integers(-2, 3))
        state["degree"] = min(13, max(0, state["degree"] + step))
        octave, idx = divmod(state["degree"], len(_SCALE))
        pitch = 67 + key % 12 + 12 * octave + _SCALE[idx]
        notes.append(Note(pitch, start + pos, dur, _vel(24 + int(rng.integers(4)))))
        pos += dur
    return notes


def make_song(seed: int, n_bars: int = 40) -> Song:
    """One pre-quantized four-track song; same seed, same song."""
    rng = np.random.default_rng(seed)
    key = int(rng.integers(12))
    drum, piano, bass, melody = [], [], [], []
    mel_state = {"degree": 7}
    for bar in range(n_bars):
        start = bar * TICKS_PER_BAR
        root, triad = _PROGRESSION[bar % len(_PROGRESSION)]
        drum += _drum_bar(rng, bar, start)
        bass += _bass_bar(rng, root, start, key)
        piano += _piano_bar(rng, triad, start, key)
        if bar % 9 != 8:  # occasional one-bar melodic rest
            melody += _melody_bar(rng, start, key, mel_state)
    tracks = [
        Track("Drum", sorted_unique_notes(drum), 0, "drums"),
        Track("Piano", sorted_unique_notes(piano), 0, "keys"),
        Track("Bass", sorted_unique_notes(bass), 33, "bass"),
        Track("SquareSynth", sorted_unique_notes(melody), 80, "melody",
              is_melody=True),
    ]
    return Song(tracks, n_bars)


def make_corpus(n_songs: int = 15, n_bars: int = 40, seed: int = 0) -> list[Song]:
    return [make_song(seed * 1000 + i, n_bars) for i in range(n_songs)]
