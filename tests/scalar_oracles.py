"""The quantization rules one value at a time, as first written: the oracles
of the whole-array forms in `bandgen.tokens` and `bandgen.features`."""

import bisect

from bandgen.features import detect_chord
from bandgen.score import TICKS_PER_BAR, TICKS_PER_QUARTER
from bandgen.tokens import DRUM_KEYS, DURATION_MESH, POSITION_GRID, VELOCITY_BINS


def velocity_bin(velocity: int) -> int:
    return min(velocity // 4, VELOCITY_BINS - 1)


def snap_to_mesh(duration: int) -> int:
    """Nearest DURATION_MESH value; equidistant ties take the smaller one."""
    i = bisect.bisect_left(DURATION_MESH, duration)
    if i == 0:
        return DURATION_MESH[0]
    if i == len(DURATION_MESH):
        return DURATION_MESH[-1]
    lo, hi = DURATION_MESH[i - 1], DURATION_MESH[i]
    return lo if duration - lo <= hi - duration else hi


def snap_position(tick_in_bar: int) -> int:
    pos = int(tick_in_bar / POSITION_GRID + 0.5) * POSITION_GRID
    return min(pos, TICKS_PER_BAR - POSITION_GRID)


def drum_key(pitch: int) -> int:
    """Nearest DRUM_KEYS entry, ties to the lower key."""
    return min(DRUM_KEYS, key=lambda k: (abs(k - pitch), k))


def beat_chords(song):
    """One chord per beat over the union of pitched tracks; a note sounds
    from its onset's beat to the one holding its last tick."""
    n_beats = song.n_bars * 4
    sounding = [set() for _ in range(n_beats)]
    for t in song.tracks:
        if t.instrument == "Drum":
            continue
        for n in t.notes:
            first = n.onset // TICKS_PER_QUARTER
            last = max(first, (n.onset + n.duration - 1) // TICKS_PER_QUARTER)
            for beat in range(first, min(last + 1, n_beats)):
                sounding[beat].add(n.pitch % 12)
    return [detect_chord(pcs) for pcs in sounding]
