"""Shared fixtures: the synthetic micro-corpus and a tokenizer vocabulary."""

import pytest

from bandgen.score import split_windows
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
