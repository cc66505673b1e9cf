"""Adam optimizer and learning-rate schedules over named parameter dicts."""

from __future__ import annotations

import numpy as np

from .autograd import Tensor


class Adam:
    def __init__(self, params: dict[str, Tensor], lr: float = 1e-3,
                 beta1: float = 0.9, beta2: float = 0.99, eps: float = 1e-8):
        self.params = dict(params)
        self.lr = lr
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.t = 0
        # np.zeros takes zeroed pages from the OS lazily; zeros_like would
        # write both moment buffers in full before the first step
        self.m = {k: np.zeros(v.data.shape) for k, v in self.params.items()}
        self.v = {k: np.zeros(v.data.shape) for k, v in self.params.items()}

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad = None

    def step(self, lr: float | None = None) -> None:
        lr = self.lr if lr is None else lr
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        for k, p in self.params.items():
            if p.grad is None:
                continue
            self.m[k] = b1 * self.m[k] + (1 - b1) * p.grad
            self.v[k] = b2 * self.v[k] + (1 - b2) * p.grad * p.grad
            mhat = self.m[k] / (1 - b1 ** self.t)
            vhat = self.v[k] / (1 - b2 ** self.t)
            p.data -= lr * mhat / (np.sqrt(vhat) + self.eps)


def schedule_lr(step: int, total_steps: int, schedule: str,
                lr: float, lr_max: float, lr_min: float) -> float:
    """Constant, or linear warmup over the first tenth then linear decay."""
    if schedule == "constant":
        return lr
    warmup = max(1, total_steps // 10)
    if step < warmup:
        return lr_max * (step + 1) / warmup
    frac = (step - warmup) / max(1, total_steps - warmup)
    return lr_max + (lr_min - lr_max) * min(1.0, frac)
