"""Training loop and gradient verification for the sequence model."""

from __future__ import annotations

import numpy as np

from ..features import FeatureGrid
from ..tokens import TrackTokenSeqs
from .autograd import Tensor, no_grad
from .model import ModelConfig, init_params, model_forward, sequence_loss
from .optim import Adam, schedule_lr

Pair = tuple[TrackTokenSeqs, FeatureGrid]


def batch_loss(pairs: list[Pair], params: dict[str, Tensor],
               cfg: ModelConfig) -> tuple[Tensor, int]:
    """Summed loss over a batch of (sequences, grid) pairs."""
    total: Tensor | None = None
    count = 0
    for seqs, grid in pairs:
        logits = model_forward(seqs, grid, params, cfg)
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
    if params is None:
        params = init_params(cfg)
    opt = Adam(params, lr=cfg.lr)
    history: list[float] = []
    for step in range(steps):
        lr = schedule_lr(step, steps, cfg.lr_schedule, cfg.lr, cfg.lr_min)
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
    """
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
