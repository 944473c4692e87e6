"""AdamW with decoupled weight decay, global-norm clipping, and the
linear-warmup/cosine-decay learning-rate schedule."""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np

from .errors import ConfigError, NumericError
from .tensor import Tensor

# Adam's moment decay rates and denominator floor
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


class AdamWState:
    """First/second moment buffers keyed by parameter name, plus step count."""

    def __init__(self) -> None:
        self.step = 0
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}


def adamw_step(named_params: Iterable[tuple[str, Tensor]], state: AdamWState,
               lr: float, weight_decay: float = 0.0) -> None:
    """One in-place update. Decay is decoupled: it never touches the moments.
    Each step writes into one scratch array and the update, with the bits
    of the plain expressions in the comments."""
    named = list(named_params)
    if state.m and set(state.m) != {n for n, _ in named}:
        raise ConfigError("optimizer state does not cover the parameter set")
    state.step += 1
    bc1 = 1.0 - BETA1 ** state.step
    bc2 = 1.0 - BETA2 ** state.step
    for name, p in named:
        g = p.grad
        if g is None:
            g = np.zeros_like(p.data)
        elif not np.all(np.isfinite(g)):
            raise NumericError(f"non-finite gradient in parameter {name!r}")
        if name not in state.m:  # first seen
            state.m[name], state.v[name] = np.zeros_like(p.data), np.zeros_like(p.data)
        m, v = state.m[name], state.v[name]
        scratch = g * (1.0 - BETA1)  # m = BETA1 * m + (1 - BETA1) * g
        m *= BETA1
        m += scratch
        v *= BETA2  # v = BETA2 * v + (1 - BETA2) * (g * g)
        v += np.multiply(np.multiply(g, g, out=scratch), 1.0 - BETA2, out=scratch)
        # p -= lr * ((m / bc1) / (sqrt(v / bc2) + EPS))
        np.sqrt(np.divide(v, bc2, out=scratch), out=scratch)
        scratch += EPS
        update = m / bc1
        update /= scratch
        update *= lr
        p.data -= update
        if weight_decay:  # p -= lr * weight_decay * p
            p.data -= np.multiply(p.data, lr * weight_decay, out=scratch)


def clip_global_norm(named_params: Iterable[tuple[str, Tensor]], max_norm: float) -> float:
    """Scale all gradients so their joint L2 norm is at most max_norm.

    Returns the pre-clip norm. Parameters without a gradient buffer are
    skipped (they contribute zero).
    """
    grads = [p.grad for _, p in named_params if p.grad is not None]
    total = math.sqrt(sum(float((g * g).sum()) for g in grads))
    if total > max_norm and total > 0.0:
        factor = max_norm / total
        for g in grads:
            g *= factor
    return total


def lr_schedule(step: int, total_steps: int, base_lr: float,
                warmup_fraction: float = 0.1) -> float:
    """Linear warmup over the first warmup_fraction of steps, then cosine to 0.

    step 0 maps to 0, the warmup boundary maps to exactly base_lr, and
    step == total_steps maps to exactly 0.
    """
    if total_steps <= 0:
        raise ConfigError(f"total_steps must be positive, got {total_steps}")
    if not (0 <= step <= total_steps):
        raise ConfigError(f"step {step} outside 0..{total_steps}")
    warmup = max(1, int(round(warmup_fraction * total_steps)))
    if step < warmup:
        return base_lr * step / warmup
    if step == total_steps:
        return 0.0
    progress = (step - warmup) / (total_steps - warmup)
    return base_lr * 0.5 * (1.0 + math.cos(math.pi * progress))
