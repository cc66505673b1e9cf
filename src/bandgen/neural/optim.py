"""Adam optimizer and learning-rate schedules over named parameter dicts."""

from __future__ import annotations

import numpy as np

from .autograd import Tensor

BETA1 = 0.9
BETA2 = 0.99
EPS = 1e-8
LR_MIN = 4e-5  # where the warmup schedule's decay ends


class Adam:
    """Adam over named parameters; each block's moments take its dtype, so
    a float32 block updates in float32."""

    def __init__(self, params: dict[str, Tensor], lr: float = 1e-3):
        self.params = dict(params)
        self.lr = lr
        self.t = 0
        # np.zeros takes zeroed pages from the OS lazily; zeros_like would
        # write both moment buffers in full before the first step
        self.m = {k: np.zeros(v.data.shape, v.data.dtype) for k, v in self.params.items()}
        self.v = {k: np.zeros(v.data.shape, v.data.dtype) for k, v in self.params.items()}

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad = None

    def step(self, lr: float | None = None) -> None:
        """One update in place: m and v change with *= and +=, and each
        block's step takes two scratch arrays. The operations, in their
        order, are those of m = b1 m + (1 - b1) g, v = b2 v + (1 - b2) g g,
        p -= lr m^ / (sqrt(v^) + eps), so they give its values bit for bit."""
        lr = self.lr if lr is None else lr
        self.t += 1
        b1, b2 = BETA1, BETA2
        for k, p in self.params.items():
            g = p.grad
            if g is None:
                continue
            m, v = self.m[k], self.v[k]
            scratch = np.multiply(1 - b1, g)
            m *= b1
            m += scratch
            np.multiply(1 - b2, g, out=scratch)
            scratch *= g
            v *= b2
            v += scratch
            np.divide(v, 1 - b2 ** self.t, out=scratch)
            np.sqrt(scratch, out=scratch)
            scratch += EPS
            delta = np.divide(m, 1 - b1 ** self.t)
            np.multiply(lr, delta, out=delta)
            delta /= scratch
            p.data -= delta


def schedule_lr(step: int, total_steps: int, schedule: str, lr: float) -> float:
    """Constant `lr`, or linear warmup to `lr` over the first tenth then
    linear decay to `LR_MIN`."""
    if schedule == "constant":
        return lr
    warmup = max(1, total_steps // 10)
    if step < warmup:
        return lr * (step + 1) / warmup
    frac = (step - warmup) / max(1, total_steps - warmup)
    return lr + (LR_MIN - lr) * min(1.0, frac)
