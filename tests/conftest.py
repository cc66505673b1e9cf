"""Shared fixtures: the synthetic micro-corpus, seeded hand-built songs and
a tokenizer vocabulary."""

import numpy as np
import pytest

from bandgen.score import TICKS_PER_BAR, Note, Song, Track, split_windows
from bandgen.synth import make_corpus
from bandgen.tokens import build_vocab

_ACCEPTANCE_LINES: list[str] = []


@pytest.fixture(scope="session")
def acceptance_log():
    """Collector for the one-line-per-criterion acceptance verdicts."""
    return _ACCEPTANCE_LINES


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    # repeat the acceptance verdicts where captured stdout cannot hide them
    if _ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in _ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def vocab():
    return build_vocab()


@pytest.fixture(scope="session")
def micro_corpus():
    """At least 50 preprocessed 16-bar windows from full synthetic songs."""
    windows = []
    for song in make_corpus(n_songs=15, n_bars=40, seed=0):
        windows.extend(split_windows(song, 16, 16, 8))
    assert len(windows) >= 50
    return windows


@pytest.fixture(scope="session")
def tiny_songs():
    return make_corpus(n_songs=8, n_bars=4, seed=7)


def _edge_song(rng, kind):
    """1-12 bars on the canonical grid. Durations reach past the mesh's 384
    ticks and a fifth of the notes repeat the previous onset, sometimes
    with the same pitch; `sparse` leaves most bars empty and `drums` is a
    drum-only song."""
    n_bars = int(rng.integers(1, 13))
    insts = ("Drum",) if kind == "drums" else ("Drum", "Piano", "Bass", "SquareSynth")
    bars = (rng.choice(n_bars, size=min(2, n_bars), replace=False)
            if kind == "sparse" else np.arange(n_bars))
    tracks = []
    for inst in insts:
        notes = []
        for _ in range(int(rng.integers(0, 10 * n_bars))):
            onset = int(rng.choice(bars)) * TICKS_PER_BAR + int(rng.integers(0, TICKS_PER_BAR))
            pitch = int(rng.integers(0, 128))
            if notes and rng.random() < 0.2:
                onset = notes[-1].onset
                pitch = notes[-1].pitch if rng.random() < 0.5 else pitch
            notes.append(Note(pitch, onset, int(rng.integers(1, 1000)),
                              int(rng.integers(1, 128))))
        tracks.append(Track(inst, notes))
    return Song(tracks, n_bars)


@pytest.fixture(scope="session")
def edge_songs():
    """300 seeded hand-built songs, the oracles' edge cases (`_edge_song`)."""
    rng = np.random.default_rng(20)
    return [_edge_song(rng, ("full", "sparse", "drums")[i % 3]) for i in range(300)]
