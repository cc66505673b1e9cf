"""Training loop and gradient verification for the sequence model.

Training pairs must be aligned: the sequences have the grid's 1 to
`MAX_TRACKS` tracks, in its order, each opening with its Instrument token
and holding the grid's `n_bars` > 0 bar tokens (`model_forward` accepts
tracks bars apart, as decoding makes them); `check_pair` is the rule, and
`batch_loss` applies it to every pair once. A batch runs as one graph per
group of songs that share their track and bar counts, in the order the
groups first appear: the songs of a group are stacked along the track axis
and padded with PAD to the group's longest sequence (see `model_forward`,
whose decoders run only on the real positions' rows).
Padding is never a target and no real position attends it, so the summed
loss and its gradients are those of the songs run one at a time, up to float
rounding. Songs of different bar counts are never padded to one another:
they run as separate graphs.
"""

from __future__ import annotations

import numpy as np

from ..errors import BarCountMismatch, DataError, UsageError
from ..features import N_VQ_GROUPS, FeatureGrid
from ..score import MAX_TRACKS
from ..tokens import PAD_ID, TrackTokenSeqs, build_vocab
from .autograd import Tensor, no_grad
from .model import ModelConfig, init_params, model_forward, sequence_loss
from .optim import Adam, schedule_lr

Pair = tuple[TrackTokenSeqs, FeatureGrid]

_VOCAB = build_vocab()  # fixed: every token corpus uses these ids


def check_pair(seqs: TrackTokenSeqs, grid: FeatureGrid) -> None:
    """Raise `DataError` for a grid without tracks or bars, more than
    `MAX_TRACKS` tracks or a token track that does not open with its grid
    track's Instrument token; `BarCountMismatch` unless the sequences have
    the grid's tracks, each holding `grid.n_bars` bar tokens."""
    if not grid.n_tracks or not grid.n_bars:
        raise DataError("a pair needs at least one track and one bar")
    if seqs.n_tracks > MAX_TRACKS:
        raise DataError(f"{seqs.n_tracks} tracks exceed the {MAX_TRACKS} "
                        f"track slots")
    counts = [len(p) for p in seqs.bar_token_positions]
    if seqs.n_tracks != grid.n_tracks or set(counts) - {grid.n_bars}:
        raise BarCountMismatch(f"bar token counts {counts} do not fit a grid "
                               f"of {grid.n_tracks} tracks, {grid.n_bars} bars")
    for ti, (ids, inst) in enumerate(zip(seqs.seqs, grid.instruments)):
        if ids[:1] != [_VOCAB.index.get(("Instrument", inst))]:
            raise DataError(f"token track {ti} does not open with the "
                            f"Instrument token of grid track {ti} ({inst})")


def _groups(pairs: list[Pair]) -> list[list[Pair]]:
    """Pairs grouped by track and bar counts, in order of first appearance;
    a pair that is not aligned raises (`check_pair`)."""
    groups: dict[tuple[int, int], list[Pair]] = {}
    for seqs, grid in pairs:
        check_pair(seqs, grid)
        groups.setdefault((seqs.n_tracks, grid.n_bars), []).append((seqs, grid))
    return list(groups.values())


def _stack_seqs(parts: list[TrackTokenSeqs]) -> TrackTokenSeqs:
    """The tracks of every part, padded with PAD to the longest."""
    width = max(s.length for s in parts)
    return TrackTokenSeqs([row + [PAD_ID] * (width - s.length)
                           for s in parts for row in s.seqs],
                          [p for s in parts for p in s.bar_token_positions],
                          [n for s in parts for n in s.lengths])


def _stack_grids(grids: list[FeatureGrid]) -> FeatureGrid:
    """The tracks of every grid (of one bar count); tracks of a grid without
    VQ codes get code 0, as `embed_conditions` gives them. The chords, which
    the model does not read, are the first grid's."""
    vq = None
    if any(g.vq_entries is not None for g in grids):
        zero = [(0,) * N_VQ_GROUPS] * grids[0].n_bars
        vq = [row for g in grids for row in
              (g.vq_entries if g.vq_entries is not None else [zero] * g.n_tracks)]
    return FeatureGrid([inst for g in grids for inst in g.instruments],
                       grids[0].n_bars, np.concatenate([g.cells for g in grids]),
                       grids[0].chords, vq)


def batch_loss(pairs: list[Pair], params: dict[str, Tensor],
               cfg: ModelConfig) -> tuple[Tensor, int]:
    """Summed loss over a batch of (sequences, grid) pairs, and the number of
    counted targets; one forward per group of same-shaped songs."""
    total: Tensor | None = None
    count = 0
    for group in _groups(pairs):
        seqs = _stack_seqs([s for s, _ in group])
        grid = _stack_grids([g for _, g in group])
        logits = model_forward(seqs, grid, params, cfg, songs=len(group))
        loss, n = sequence_loss(logits, seqs)
        total = loss if total is None else total + loss
        count += n
    if total is None:
        raise ValueError("empty batch")
    return total, count


def train_step(pairs: list[Pair], params: dict[str, Tensor], cfg: ModelConfig,
               opt: Adam, lr: float) -> float:
    """One full forward/backward/update; returns mean per-token loss."""
    loss, count = batch_loss(pairs, params, cfg)
    opt.zero_grad()
    loss.backward()
    opt.step(lr=lr)
    return float(loss.data) / max(1, count)


def mean_loss(pairs: list[Pair], params: dict[str, Tensor],
              cfg: ModelConfig) -> float:
    """Mean per-token loss, computed without a tape."""
    with no_grad():
        loss, count = batch_loss(pairs, params, cfg)
    return float(loss.data) / max(1, count)


def train_model(pairs: list[Pair], cfg: ModelConfig, steps: int,
                params: dict[str, Tensor] | None = None,
                log=None) -> tuple[dict[str, Tensor], list[float]]:
    """Deterministic full-batch training; returns params and the loss trace."""
    if steps < 0:
        raise UsageError(f"steps must not be negative, got {steps}")
    if params is None:
        params = init_params(cfg)
    opt = Adam(params, lr=cfg.lr)
    history: list[float] = []
    for step in range(steps):
        lr = schedule_lr(step, steps, cfg.lr_schedule, cfg.lr)
        history.append(train_step(pairs, params, cfg, opt, lr))
        if log and (step % 10 == 0 or step == steps - 1):
            log(f"step {step}: loss/token {history[-1]:.4f} lr {lr:.2e}")
    return params, history


def gradient_check(pairs: list[Pair], params: dict[str, Tensor],
                   cfg: ModelConfig, h: float = 1e-5,
                   coords_per_block: int = 3) -> dict[str, float]:
    """Central finite differences against the analytic gradient.

    For every parameter block, the coordinates with the largest analytic
    gradient magnitudes are perturbed; returns max relative error per block.
    Coordinates where both sides sit below the difference quotient's own
    roundoff resolution (eps * |loss| / 2h) are unresolvable by this method
    and are skipped; blocks whose true gradient is identically zero report 0.
    It runs in float64 only: another config dtype is a `UsageError`.
    """
    if cfg.dtype != "float64":
        raise UsageError(f"gradient_check runs in float64, not {cfg.dtype}")
    loss, _ = batch_loss(pairs, params, cfg)
    for p in params.values():
        p.grad = None
    loss.backward()
    resolution = 64.0 * np.finfo(np.float64).eps * max(
        1.0, abs(float(loss.data))) / (2.0 * h)

    def loss_value() -> float:
        l, _ = batch_loss(pairs, params, cfg)
        return float(l.data)

    report: dict[str, float] = {}
    for name, p in sorted(params.items()):
        grad = p.grad if p.grad is not None else np.zeros_like(p.data)
        flat = np.abs(grad).reshape(-1)
        order = np.argsort(-flat)[:coords_per_block]
        worst = 0.0
        for idx in order:
            multi = np.unravel_index(idx, p.data.shape)
            keep = p.data[multi]
            p.data[multi] = keep + h
            up = loss_value()
            p.data[multi] = keep - h
            down = loss_value()
            p.data[multi] = keep
            numeric = (up - down) / (2 * h)
            analytic = grad[multi]
            if max(abs(numeric), abs(analytic)) < resolution:
                continue
            denom = max(abs(numeric), abs(analytic), 1e-8)
            worst = max(worst, abs(numeric - analytic) / denom)
        report[name] = worst
    return report
