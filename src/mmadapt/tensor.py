"""Reverse-mode autodiff over small dense float64 arrays.

A forward pass runs inside a `Tape` context; every op whose output needs a
gradient appends one backward closure to the tape. `backward(root)` seeds the
scalar root with 1 and replays the closures in reverse, accumulating into the
`.grad` buffer of every reachable tensor that requires a gradient. Tapes are
single use: a consumed tape refuses a second backward, and re-running the
forward pass is the supported way to differentiate again.

Gradients accumulate across tapes (`+=` semantics) until `zero_grad` runs,
which is what lets a trainer sum per-sample contributions into shared
parameter tensors.
"""

from __future__ import annotations

import math
import threading
from typing import Callable, Iterable, Sequence

import numpy as np
from scipy.special import erf as _erf

from .errors import DimensionError, DomainError, TapeStateError, TokenError

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)

# Additive mask value for future positions. Large enough that exp underflows
# to exactly 0.0 after row-max shifting, small enough to stay finite.
MASK_VALUE = -1e30

_tls = threading.local()


def _active_tape() -> "Tape | None":
    return getattr(_tls, "tape", None)


class Tape:
    """Recording context for one forward pass."""

    __slots__ = ("_records", "_consumed")

    def __init__(self) -> None:
        self._records: list[Callable[[], None]] = []
        self._consumed = False

    def __enter__(self) -> "Tape":
        if _active_tape() is not None:
            raise TapeStateError("a tape is already active in this thread")
        _tls.tape = self
        return self

    def __exit__(self, *exc) -> None:
        _tls.tape = None

    def _record(self, fn: Callable[[], None]) -> None:
        self._records.append(fn)

    def backward(self, root: "Tensor") -> None:
        """Propagate d(root)/d(leaf) into every reachable grad buffer."""
        if self._consumed:
            raise TapeStateError("tape already consumed; rebuild the forward pass")
        if root.tape is not self:
            raise TapeStateError("root was not recorded on this tape")
        if root.data.size != 1:
            raise DimensionError(f"backward root must be scalar, got shape {root.shape}")
        self._consumed = True
        root._accum(np.ones_like(root.data))
        for fn in reversed(self._records):
            fn()
        # each closure holds its output tensor, which holds this tape; dropping
        # the closures frees the activations without the cyclic collector
        self._records.clear()


def backward(root: "Tensor") -> None:
    """Convenience wrapper: run backward on the tape that recorded `root`."""
    if root.tape is None:
        raise TapeStateError("tensor was not recorded on any tape")
    root.tape.backward(root)


class Tensor:
    """Dense float64 value with an optional gradient buffer."""

    __slots__ = ("data", "requires_grad", "grad", "tape")

    def __init__(self, data, requires_grad: bool = False) -> None:
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim < 1 or arr.ndim > 2:
            raise DimensionError(f"rank must be 1..2, got shape {arr.shape}")
        if any(e <= 0 for e in arr.shape):
            raise DimensionError(f"extents must be positive, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise DomainError("tensor values must be finite")
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self.tape: Tape | None = None

    @classmethod
    def _wrap(cls, arr: np.ndarray, requires_grad: bool, tape: Tape | None) -> "Tensor":
        out = cls.__new__(cls)
        out.data = arr
        out.requires_grad = requires_grad
        out.grad = None
        out.tape = tape
        return out

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        if self.data.size != 1:
            raise DimensionError(f"item() needs a scalar, got shape {self.shape}")
        return float(self.data.reshape(-1)[0])

    def _accum(self, g: np.ndarray) -> None:
        if self.grad is None:
            # a copy, since one backward may hand the same array to two inputs
            self.grad = g.copy()
        else:
            self.grad += g

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def _begin(*inputs: Tensor) -> tuple[Tape | None, bool]:
    """Decide whether the op output records onto a tape."""
    tape = _active_tape()
    needs = tape is not None and any(t.requires_grad for t in inputs)
    return (tape if needs else None), needs


def _finish(out_data: np.ndarray, inputs: Sequence[Tensor], back: Callable[[np.ndarray], None]) -> Tensor:
    tape, needs = _begin(*inputs)
    out = Tensor._wrap(out_data, needs, tape)
    if needs:
        def run() -> None:
            if out.grad is not None:
                back(out.grad)
        tape._record(run)
    return out


def _need_2d(t: Tensor, op: str) -> None:
    if t.data.ndim != 2:
        raise DimensionError(f"{op}: expected a matrix, got shape {t.shape}")


# ---------------------------------------------------------------------------
# arithmetic


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise DimensionError(f"add: shapes differ: {a.shape} vs {b.shape}")

    def back(g: np.ndarray) -> None:
        if a.requires_grad:
            a._accum(g)
        if b.requires_grad:
            b._accum(g)

    return _finish(a.data + b.data, (a, b), back)


def add_rowvec(x: Tensor, b: Tensor) -> Tensor:
    """Broadcast a 1-by-d row over every row of x."""
    _need_2d(x, "add_rowvec")
    if b.data.ndim != 2 or b.shape[0] != 1 or b.shape[1] != x.shape[1]:
        raise DimensionError(f"add_rowvec: row {b.shape} does not broadcast over {x.shape}")

    def back(g: np.ndarray) -> None:
        if x.requires_grad:
            x._accum(g)
        if b.requires_grad:
            b._accum(g.sum(axis=0, keepdims=True))

    return _finish(x.data + b.data, (x, b), back)


def add_scalar(x: Tensor, s: Tensor) -> Tensor:
    """Broadcast a single trainable scalar over every element of x."""
    if s.data.size != 1:
        raise DimensionError(f"add_scalar: scalar operand has shape {s.shape}")

    def back(g: np.ndarray) -> None:
        if x.requires_grad:
            x._accum(g)
        if s.requires_grad:
            s._accum(np.full_like(s.data, g.sum()))

    return _finish(x.data + s.data.reshape(-1)[0], (x, s), back)


def scale(x: Tensor, c: float) -> Tensor:
    c = float(c)

    def back(g: np.ndarray) -> None:
        if x.requires_grad:
            x._accum(g * c)

    return _finish(x.data * c, (x,), back)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    _need_2d(a, "matmul")
    _need_2d(b, "matmul")
    if a.shape[1] != b.shape[0]:
        raise DimensionError(f"matmul: inner extents differ: {a.shape} vs {b.shape}")
    ad, bd = a.data, b.data

    def back(g: np.ndarray) -> None:
        if a.requires_grad:
            a._accum(g @ bd.T)
        if b.requires_grad:
            b._accum(ad.T @ g)

    return _finish(ad @ bd, (a, b), back)


def hadamard(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise DimensionError(f"hadamard: shapes differ: {a.shape} vs {b.shape}")
    ad, bd = a.data, b.data

    def back(g: np.ndarray) -> None:
        if a.requires_grad:
            a._accum(g * bd)
        if b.requires_grad:
            b._accum(g * ad)

    return _finish(ad * bd, (a, b), back)


# ---------------------------------------------------------------------------
# elementwise nonlinearities


_UNARY: dict[str, tuple[Callable, Callable]] = {
    # name -> (forward, derivative as function of (x, y))
    "sigmoid": (lambda x: 1.0 / (1.0 + np.exp(-x)), lambda x, y: y * (1.0 - y)),
    "tanh": (np.tanh, lambda x, y: 1.0 - y * y),
}


def elementwise_unary(x: Tensor, f: str) -> Tensor:
    if f not in _UNARY:
        raise DomainError(f"unknown unary function {f!r}; have {sorted(_UNARY)}")
    fwd, deriv = _UNARY[f]
    xd = x.data
    yd = fwd(xd)

    def back(g: np.ndarray) -> None:
        if x.requires_grad:
            x._accum(g * deriv(xd, yd))

    return _finish(yd, (x,), back)


def sigmoid(x: Tensor) -> Tensor:
    return elementwise_unary(x, "sigmoid")


def tanh(x: Tensor) -> Tensor:
    return elementwise_unary(x, "tanh")


def gelu(x: Tensor) -> Tensor:
    """Exact GELU, x * Phi(x) with Phi the Gaussian CDF.

    The forward keeps t = 2 Phi(x) = 1 + erf(x / sqrt 2) for the backward,
    d/dx = Phi(x) + x phi(x), so erf runs once per element.
    """
    xd = x.data
    t = 1.0 + _erf(xd * _INV_SQRT2)

    def back(g: np.ndarray) -> None:
        if x.requires_grad:
            x._accum(g * (0.5 * t + xd * np.exp(-0.5 * xd * xd) * _INV_SQRT2PI))

    return _finish(xd * (0.5 * t), (x,), back)


# ---------------------------------------------------------------------------
# shape plumbing


def transpose(x: Tensor) -> Tensor:
    _need_2d(x, "transpose")

    def back(g: np.ndarray) -> None:
        if x.requires_grad:
            x._accum(g.T)

    return _finish(x.data.T, (x,), back)


def slice_rows(x: Tensor, start: int, stop: int) -> Tensor:
    _need_2d(x, "slice_rows")
    if not (0 <= start < stop <= x.shape[0]):
        raise DimensionError(f"slice_rows: [{start}:{stop}] out of range for {x.shape}")

    def back(g: np.ndarray) -> None:
        if x.requires_grad:
            if x.grad is None:
                x.grad = np.zeros_like(x.data)
            x.grad[start:stop] += g

    return _finish(x.data[start:stop], (x,), back)


def slice_cols(x: Tensor, start: int, stop: int) -> Tensor:
    _need_2d(x, "slice_cols")
    if not (0 <= start < stop <= x.shape[1]):
        raise DimensionError(f"slice_cols: [{start}:{stop}] out of range for {x.shape}")

    def back(g: np.ndarray) -> None:
        if x.requires_grad:
            if x.grad is None:
                x.grad = np.zeros_like(x.data)
            x.grad[:, start:stop] += g

    return _finish(np.ascontiguousarray(x.data[:, start:stop]), (x,), back)


def concat_rows(parts: Iterable[Tensor]) -> Tensor:
    parts = list(parts)
    if not parts:
        raise DimensionError("concat_rows: need at least one part")
    cols = parts[0].shape[-1]
    for p in parts:
        _need_2d(p, "concat_rows")
        if p.shape[1] != cols:
            raise DimensionError(f"concat_rows: column mismatch: {p.shape} vs {cols} cols")
    bounds = np.cumsum([0] + [p.shape[0] for p in parts])

    def back(g: np.ndarray) -> None:
        for p, lo, hi in zip(parts, bounds[:-1], bounds[1:]):
            if p.requires_grad:
                p._accum(g[lo:hi])

    return _finish(np.concatenate([p.data for p in parts], axis=0), tuple(parts), back)


def stack_columns(parts: Iterable[Tensor]) -> Tensor:
    """Concatenate matrices left to right (columns of h-by-1 vectors, etc.)."""
    parts = list(parts)
    if not parts:
        raise DimensionError("stack_columns: need at least one part")
    rows = parts[0].shape[0]
    for p in parts:
        _need_2d(p, "stack_columns")
        if p.shape[0] != rows:
            raise DimensionError(f"stack_columns: row mismatch: {p.shape} vs {rows} rows")
    bounds = np.cumsum([0] + [p.shape[1] for p in parts])

    def back(g: np.ndarray) -> None:
        for p, lo, hi in zip(parts, bounds[:-1], bounds[1:]):
            if p.requires_grad:
                p._accum(g[:, lo:hi])

    return _finish(np.concatenate([p.data for p in parts], axis=1), tuple(parts), back)


def embedding_lookup(table: Tensor, ids: Sequence[int]) -> Tensor:
    _need_2d(table, "embedding_lookup")
    idx = np.asarray(list(ids), dtype=np.int64)
    if idx.ndim != 1 or idx.size == 0:
        raise DimensionError("embedding_lookup: ids must be a non-empty 1-d sequence")
    if idx.min() < 0 or idx.max() >= table.shape[0]:
        raise TokenError(f"id out of range 0..{table.shape[0] - 1}")

    def back(g: np.ndarray) -> None:
        if table.requires_grad:
            if table.grad is None:
                table.grad = np.zeros_like(table.data)
            np.add.at(table.grad, idx, g)

    return _finish(table.data[idx], (table,), back)


# ---------------------------------------------------------------------------
# reductions and row-wise transforms


def reduce_mean_rows(x: Tensor) -> Tensor:
    """Mean over rows: (l, d) -> (1, d). Pools a token matrix to one row."""
    _need_2d(x, "reduce_mean_rows")
    l = x.shape[0]

    def back(g: np.ndarray) -> None:
        if x.requires_grad:
            x._accum(np.repeat(g / l, l, axis=0))

    return _finish(x.data.mean(axis=0, keepdims=True), (x,), back)


def sum_all(x: Tensor) -> Tensor:
    def back(g: np.ndarray) -> None:
        if x.requires_grad:
            x._accum(np.full_like(x.data, g.reshape(-1)[0]))

    return _finish(np.array([x.data.sum()]), (x,), back)


def softmax_rows(x: Tensor) -> Tensor:
    _need_2d(x, "softmax_rows")
    z = x.data - x.data.max(axis=1, keepdims=True)
    e = np.exp(z)
    y = e / e.sum(axis=1, keepdims=True)

    def back(g: np.ndarray) -> None:
        if x.requires_grad:
            x._accum(y * (g - (g * y).sum(axis=1, keepdims=True)))

    return _finish(y, (x,), back)


def layernorm_rows(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Per-row layer norm with learned gain/bias rows."""
    _need_2d(x, "layernorm_rows")
    d = x.shape[1]
    for t, name in ((gain, "gain"), (bias, "bias")):
        if t.shape != (1, d):
            raise DimensionError(f"layernorm_rows: {name} must be (1, {d}), got {t.shape}")
    mu = x.data.mean(axis=1, keepdims=True)
    var = x.data.var(axis=1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mu) * inv
    out = xhat * gain.data + bias.data

    def back(g: np.ndarray) -> None:
        if bias.requires_grad:
            bias._accum(g.sum(axis=0, keepdims=True))
        if gain.requires_grad:
            gain._accum((g * xhat).sum(axis=0, keepdims=True))
        if x.requires_grad:
            gx = g * gain.data
            x._accum(inv * (gx - gx.mean(axis=1, keepdims=True)
                            - xhat * (gx * xhat).mean(axis=1, keepdims=True)))

    return _finish(out, (x, gain, bias), back)


def causal_attention_scores(q: Tensor, k: Tensor, scale_factor: float) -> Tensor:
    """Scaled q @ k^T with future positions pushed to an inert mask value.

    Masked entries come out as exactly MASK_VALUE (the additive raw score is
    absorbed by the constant's ulp), so downstream softmax rows are
    bit-for-bit independent of future tokens.
    """
    _need_2d(q, "causal_attention_scores")
    _need_2d(k, "causal_attention_scores")
    if q.shape[1] != k.shape[1]:
        raise DimensionError(f"causal_attention_scores: width mismatch: {q.shape} vs {k.shape}")
    s = float(scale_factor)
    raw = (q.data @ k.data.T) * s
    mask = np.triu(np.full((q.shape[0], k.shape[0]), MASK_VALUE), k=1)
    kd, qd = k.data, q.data

    def back(g: np.ndarray) -> None:
        if q.requires_grad:
            q._accum((g * s) @ kd)
        if k.requires_grad:
            k._accum((g * s).T @ qd)

    return _finish(raw + mask, (q, k), back)


# ---------------------------------------------------------------------------
# fused kernels: one tape record for a whole recurrence or attention block


def lstm_final(x: Tensor, wih: Tensor, whh: Tensor, b: Tensor) -> Tensor:
    """Single-direction LSTM over the rows of x; returns h_last (hidden x 1).

    Gate order along the stacked weight rows is input, forget, cell, output;
    initial hidden and cell states are zero. The forward keeps the operation
    order of the per-frame composition of primitives, so it is bit-identical
    to it; the backward is hand-written BPTT over the saved gates.
    """
    for t in (x, wih, whh, b):
        _need_2d(t, "lstm_final")
    l, width = x.shape
    four_h, hidden = whh.shape
    if four_h != 4 * hidden:
        raise DimensionError(f"lstm_final: whh {whh.shape} is not (4h, h)")
    if wih.shape != (four_h, width):
        raise DimensionError(f"lstm_final: wih {wih.shape} incompatible with input {x.shape}")
    if b.shape != (four_h, 1):
        raise DimensionError(f"lstm_final: b {b.shape} is not ({four_h}, 1)")
    sig, dsig = _UNARY["sigmoid"]
    tnh, dtnh = _UNARY["tanh"]
    xd, wd, ud, bd = x.data, wih.data, whh.data, b.data
    z_in = xd @ wd.T  # l x 4h, one matmul for all steps
    h = np.zeros((hidden, 1))
    c = np.zeros((hidden, 1))
    steps = []
    for t in range(l):
        z = (z_in[t:t + 1].T + ud @ h) + bd
        gi = sig(z[:hidden])
        gf = sig(z[hidden:2 * hidden])
        gg = tnh(z[2 * hidden:3 * hidden])
        go = sig(z[3 * hidden:])
        c_new = gf * c + gi * gg
        tc = tnh(c_new)
        steps.append((z, gi, gf, gg, go, c, h, c_new, tc))
        c, h = c_new, go * tc

    def back(g: np.ndarray) -> None:
        dz = np.empty((l, four_h))
        dh, dc = g, 0.0
        for t in range(l - 1, -1, -1):
            z, gi, gf, gg, go, c_prev, _, c_t, tc = steps[t]
            dc = dc + dh * go * dtnh(c_t, tc)
            col = dz[t].reshape(four_h, 1)
            col[:hidden] = dc * gg * dsig(z[:hidden], gi)
            col[hidden:2 * hidden] = dc * c_prev * dsig(z[hidden:2 * hidden], gf)
            col[2 * hidden:3 * hidden] = dc * gi * dtnh(z[2 * hidden:3 * hidden], gg)
            col[3 * hidden:] = dh * tc * dsig(z[3 * hidden:], go)
            dh = ud.T @ col
            dc = dc * gf
        if x.requires_grad:
            x._accum(dz @ wd)
        if wih.requires_grad:
            wih._accum(dz.T @ xd)
        if whh.requires_grad:
            h_prev = np.concatenate([s[6] for s in steps], axis=1)  # h x l
            whh._accum(dz.T @ h_prev.T)
        if b.requires_grad:
            b._accum(dz.sum(axis=0).reshape(four_h, 1))

    return _finish(h, (x, wih, whh, b), back)


def causal_mha(q: Tensor, k: Tensor, v: Tensor, heads: int) -> Tensor:
    """Causal multi-head attention of (lq, d) query rows over (lk, d) key and
    value rows, lk >= lq.

    The queries are the last lq of the lk positions, so query row i sees key
    rows 0 .. lk - lq + i; lq == lk is plain causal self-attention, and
    lq < lk serves queries for new rows over a key/value cache. Each head
    owns d / heads adjacent columns and attends with softmax of
    q k^T / sqrt(d / heads), future positions masked to MASK_VALUE; the head
    outputs sit side by side in the (lq, d) result. Per head, the arithmetic
    is that of causal_attention_scores, softmax_rows and matmul, so at
    lq == lk the result is bit-identical to that composition.
    """
    for t, name in ((q, "q"), (k, "k"), (v, "v")):
        _need_2d(t, "causal_mha")
        if t.shape[1] != q.shape[1]:
            raise DimensionError(f"causal_mha: {name} {t.shape} differs in width from q {q.shape}")
    lq, d = q.shape
    lk = k.shape[0]
    if v.shape != k.shape or lk < lq:
        raise DimensionError(f"causal_mha: need k and v of equal shape with at least "
                             f"{lq} rows, got k {k.shape}, v {v.shape}")
    if heads <= 0 or d % heads != 0:
        raise DimensionError(f"causal_mha: width {d} not divisible by {heads} heads")
    dh = d // heads
    s = 1.0 / math.sqrt(dh)

    def split(a: np.ndarray) -> np.ndarray:  # (l, d) -> contiguous (heads, l, dh)
        return np.ascontiguousarray(a.reshape(a.shape[0], heads, dh).transpose(1, 0, 2))

    def merge(a: np.ndarray) -> np.ndarray:  # (heads, l, dh) -> (l, d)
        return a.transpose(1, 0, 2).reshape(a.shape[1], d)

    qh, kh, vh = split(q.data), split(k.data), split(v.data)
    mask = np.triu(np.full((lq, lk), MASK_VALUE), k=1 + lk - lq)
    scores = (qh @ kh.transpose(0, 2, 1)) * s + mask
    e = np.exp(scores - scores.max(axis=2, keepdims=True))
    att = e / e.sum(axis=2, keepdims=True)

    def back(g: np.ndarray) -> None:
        gh = split(g)
        if v.requires_grad:
            v._accum(merge(att.transpose(0, 2, 1) @ gh))
        if q.requires_grad or k.requires_grad:
            datt = gh @ vh.transpose(0, 2, 1)
            dscores = att * (datt - (datt * att).sum(axis=2, keepdims=True)) * s
            if q.requires_grad:
                q._accum(merge(dscores @ kh))
            if k.requires_grad:
                k._accum(merge(dscores.transpose(0, 2, 1) @ qh))

    return _finish(merge(att @ vh), (q, k, v), back)


def softmax_cross_entropy(logits: Tensor, target: int) -> Tensor:
    """Max-shifted cross-entropy of one logit vector against a class id."""
    v = logits.data.reshape(-1)
    if logits.data.ndim > 2 or (logits.data.ndim == 2 and logits.shape[0] != 1):
        raise DimensionError(f"softmax_cross_entropy: need one logit row, got {logits.shape}")
    if not (0 <= target < v.size):
        raise DimensionError(f"softmax_cross_entropy: target {target} outside 0..{v.size - 1}")
    m = v.max()
    z = v - m
    ez = np.exp(z)
    denom = ez.sum()
    loss = math.log(denom) - z[target]
    probs = ez / denom

    def back(g: np.ndarray) -> None:
        if logits.requires_grad:
            d = probs.copy()
            d[target] -= 1.0
            logits._accum((g.reshape(-1)[0] * d).reshape(logits.shape))

    return _finish(np.array([loss]), (logits,), back)


def rows_cross_entropy(logits: Tensor, targets: Sequence[int], reduction: str = "mean") -> Tensor:
    """Max-shifted cross-entropy of each logit row against its target id,
    reduced to a scalar by mean or sum."""
    _need_2d(logits, "rows_cross_entropy")
    ids = np.asarray(list(targets), dtype=np.int64)
    n, v = logits.shape
    if ids.shape != (n,):
        raise DimensionError(f"rows_cross_entropy: {n} rows but {ids.size} targets")
    if ids.min() < 0 or ids.max() >= v:
        raise DimensionError(f"rows_cross_entropy: target outside 0..{v - 1}")
    if reduction not in ("mean", "sum"):
        raise DomainError(f"rows_cross_entropy: unknown reduction {reduction!r}")
    z = logits.data - logits.data.max(axis=1, keepdims=True)
    ez = np.exp(z)
    denom = ez.sum(axis=1, keepdims=True)
    per_row = np.log(denom[:, 0]) - z[np.arange(n), ids]
    probs = ez / denom
    k = 1.0 / n if reduction == "mean" else 1.0

    def back(g: np.ndarray) -> None:
        if logits.requires_grad:
            d = probs.copy()
            d[np.arange(n), ids] -= 1.0
            logits._accum((g.reshape(-1)[0] * k) * d)

    return _finish(np.array([per_row.sum() * k]), (logits,), back)


def zero_grads(params: Iterable[Tensor]) -> None:
    for p in params:
        p.zero_grad()
