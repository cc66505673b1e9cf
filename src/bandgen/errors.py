"""Exception hierarchy shared across the package.

Three branches map onto the CLI exit codes: usage problems (1), data
problems (2), numeric problems (3).
"""

from __future__ import annotations


class BandgenError(Exception):
    """Base class for all package errors."""


class UsageError(BandgenError):
    """Bad command line or API usage."""


class DataError(BandgenError):
    """Input data violates a contract (malformed file, bad id, empty corpus)."""


class NumericError(BandgenError):
    """Numeric breakdown (NaN/Inf) in a model computation."""


# -- MIDI / score ------------------------------------------------------------

class MalformedMidi(DataError):
    """Truncated chunk, bad header, or otherwise unparseable MIDI bytes."""


class UnsupportedTimeSignature(DataError):
    """A meter event other than 4/4 was found; the file must be rejected."""


class NoMelodyTrack(DataError):
    """No track qualifies as the melody after instrument compression."""


class NoDrumTrack(DataError):
    """No drum track present after instrument compression."""


# -- tokenizer ---------------------------------------------------------------

class NoteOutOfRange(DataError):
    """A note onset lies beyond the song's declared bar span."""


class MalformedSequence(DataError):
    """Token sequence violates the track grammar.

    Carries the offending (track, index) pair.
    """

    def __init__(self, message: str, track: int, index: int):
        super().__init__(f"{message} (track {track}, index {index})")
        self.track = track
        self.index = index


# -- BPE ---------------------------------------------------------------------

class TargetTooSmall(DataError):
    """Requested BPE vocabulary does not exceed the base vocabulary."""


class UnknownToken(DataError):
    """Token id outside the (extended) vocabulary."""


class EmptyCorpus(DataError):
    """An operation that needs at least one corpus entry got none."""


# -- neural ------------------------------------------------------------------

class BinOutOfVocab(DataError):
    """Feature bin index outside its embedding table."""


class IdOutOfVocab(DataError):
    """Token id outside the embedding table."""


class BarIndexOutOfRange(DataError):
    """A token's bar index exceeds the similarity matrix size."""


class BarCountMismatch(DataError):
    """Tracks disagree on the number of bar tokens."""


class EmptyCodebook(DataError):
    """Vector-quantization codebook has no rows."""


class DegenerateVocab(DataError):
    """Vocabulary too small to sample from."""


class NonFiniteError(NumericError):
    """A tensor contains NaN or Inf."""


# -- metrics / cli -----------------------------------------------------------

class ZeroBars(DataError):
    """Metric undefined on songs with no bars."""


class PairMismatch(DataError):
    """Reference/cover directories do not pair by filename."""


class MissingInput(UsageError):
    """A required input path does not exist or is empty."""
