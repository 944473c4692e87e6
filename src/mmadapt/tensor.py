"""Reverse-mode autodiff over small dense float64 arrays.

A forward pass runs inside a `Tape` context; every op whose output needs a
gradient appends one backward closure to the tape. `backward(root)` seeds the
scalar root with 1 (or a root of any shape with a given `grad` array) and
replays the closures in reverse, accumulating into the `.grad` buffer of
every reachable tensor that requires a gradient. Tapes are single use: a
consumed tape refuses a second backward, and re-running the forward pass is
the supported way to differentiate again.

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

# Variance floor of every layer norm
LAYERNORM_EPS = 1e-5

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

    def backward(self, root: "Tensor", grad: np.ndarray | None = None) -> None:
        """Propagate d(root)/d(leaf) into every reachable grad buffer. A
        scalar root is seeded with 1; `grad`, an array of the root's shape,
        seeds a root of any shape, so the leaves receive grad^T d(root)/d(leaf)."""
        if self._consumed:
            raise TapeStateError("tape already consumed; rebuild the forward pass")
        if root.tape is not self:
            raise TapeStateError("root was not recorded on this tape")
        if grad is None:
            if root.data.size != 1:
                raise DimensionError(f"backward root must be scalar, got shape {root.shape}")
            grad = np.ones_like(root.data)
        elif np.shape(grad) != root.shape:
            raise DimensionError(f"backward seed has shape {np.shape(grad)}, "
                                 f"root has shape {root.shape}")
        self._consumed = True
        root._accum(np.asarray(grad, dtype=np.float64))
        for fn in reversed(self._records):
            fn()
        # each closure holds its output tensor, which holds this tape; dropping
        # the closures frees the activations without the cyclic collector
        self._records.clear()


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


def add_colvec(x: Tensor, b: Tensor) -> Tensor:
    """Broadcast a d-by-1 column over every column of x."""
    _need_2d(x, "add_colvec")
    if b.data.ndim != 2 or b.shape[1] != 1 or b.shape[0] != x.shape[0]:
        raise DimensionError(f"add_colvec: column {b.shape} does not broadcast over {x.shape}")

    def back(g: np.ndarray) -> None:
        if x.requires_grad:
            x._accum(g)
        if b.requires_grad:
            b._accum(g.sum(axis=1, keepdims=True))

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


def weighted_sum(parts: Sequence[Tensor], w: Tensor) -> Tensor:
    """w[0] parts[0] + w[1] parts[1] + ... for equally shaped parts and a
    (len(parts), 1) weight column, summed in that order."""
    parts = list(parts)
    if not parts or w.shape != (len(parts), 1):
        raise DimensionError(f"weighted_sum: weights {w.shape} for {len(parts)} parts")
    for p in parts:
        if p.shape != parts[0].shape:
            raise DimensionError(f"weighted_sum: shapes differ: {p.shape} vs {parts[0].shape}")
    wd = w.data[:, 0]
    out = parts[0].data * wd[0]
    for p, c in zip(parts[1:], wd[1:]):
        out = out + p.data * c

    def back(g: np.ndarray) -> None:
        for p, c in zip(parts, wd):
            if p.requires_grad:
                p._accum(g * c)
        if w.requires_grad:
            w._accum(np.array([[np.vdot(g, p.data)] for p in parts]))

    return _finish(out, (*parts, w), back)


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


def _gaussian_cdf(x: np.ndarray) -> np.ndarray:
    """Phi(x) = 0.5 (1 + erf(x / sqrt 2)) in one new array. scipy's erf is
    odd to the bit but branches on its input's sign, so it runs on |x| and
    the sign is copied back, at about half the cost."""
    p = np.abs(x)
    p *= _INV_SQRT2
    _erf(p, out=p)
    np.copysign(p, x, out=p)
    p += 1.0
    p *= 0.5
    return p


def _gelu_grad(x: np.ndarray, p: np.ndarray) -> np.ndarray:
    """d/dx x Phi(x) = Phi(x) + x phi(x) given p = Phi(x), in one new array."""
    d = x * -0.5
    d *= x
    np.exp(d, out=d)
    d *= x
    d *= _INV_SQRT2PI
    d += p
    return d


def gelu(x: Tensor) -> Tensor:
    """Exact GELU, x * Phi(x) with Phi the Gaussian CDF.

    The forward keeps Phi(x) for the backward, d/dx = Phi(x) + x phi(x), so
    erf runs once per element.
    """
    xd = x.data
    p = _gaussian_cdf(xd)

    def back(g: np.ndarray) -> None:
        if x.requires_grad:
            x._accum(g * _gelu_grad(xd, p))

    return _finish(xd * p, (x,), back)


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


def outer_blocks(v: Tensor, u: Tensor) -> Tensor:
    """The outer products v u[:, i]^T of an (n, 1) column with each column of
    a (d, B) matrix, stacked: (B n, d), rows [i n, (i + 1) n) from column i."""
    _need_2d(v, "outer_blocks")
    _need_2d(u, "outer_blocks")
    if v.shape[1] != 1:
        raise DimensionError(f"outer_blocks: need an (n, 1) column, got {v.shape}")
    n, (d, b) = v.shape[0], u.shape
    vd, ud = v.data, u.data

    def back(g: np.ndarray) -> None:
        gb = g.reshape(b, n, d)
        if v.requires_grad:
            v._accum((gb @ ud.T[:, :, None]).sum(axis=0))
        if u.requires_grad:
            u._accum((gb.transpose(0, 2, 1) @ vd)[:, :, 0].T)

    return _finish((vd[None, :, :] * ud.T[:, None, :]).reshape(b * n, d), (v, u), back)


def embedding_lookup(table: Tensor, ids: Sequence[int]) -> Tensor:
    _need_2d(table, "embedding_lookup")
    idx = np.asarray(ids, dtype=np.int64)
    if idx.ndim != 1 or idx.size == 0:
        raise DimensionError("embedding_lookup: ids must be a non-empty 1-d sequence")
    if idx.min() < 0 or idx.max() >= table.shape[0]:
        raise TokenError(f"id out of range 0..{table.shape[0] - 1}")

    def back(g: np.ndarray) -> None:
        if table.requires_grad:
            if table.grad is None:
                table.grad = np.zeros_like(table.data)
            lo = int(idx[0])
            if np.array_equal(idx, np.arange(lo, lo + idx.size)):  # one run, no repeats
                table.grad[lo:lo + idx.size] += g
            else:
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


def _layernorm(x: np.ndarray, gain: np.ndarray,
               bias: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-row layer norm of an array; returns (out, xhat, inv). The mean
    and variance are the row sums that np.mean and np.var reduce to, without
    their Python wrappers, so the bits are theirs. The steps write into two
    new arrays, with the bits of out = (xc * inv) * gain + bias."""
    d = x.shape[1]
    xhat = x - np.add.reduce(x, axis=1, keepdims=True) / d
    out = np.multiply(xhat, xhat)
    inv = 1.0 / np.sqrt(np.add.reduce(out, axis=1, keepdims=True) / d + LAYERNORM_EPS)
    xhat *= inv
    np.multiply(xhat, gain, out=out)
    out += bias
    return out, xhat, inv


def _layernorm_back(g: np.ndarray, xhat: np.ndarray, inv: np.ndarray,
                    gain: Tensor, bias: Tensor) -> np.ndarray:
    """Accumulate a layer norm's gain and bias gradients; return dx = inv *
    (gx - mean(gx) - xhat * mean(gx * xhat)), gx = g * gain, with its bits."""
    if bias.requires_grad:
        bias._accum(g.sum(axis=0, keepdims=True))
    tmp = np.empty_like(g)
    if gain.requires_grad:
        gain._accum(np.multiply(g, xhat, out=tmp).sum(axis=0, keepdims=True))
    gx = g * gain.data
    d = g.shape[1]
    mean = np.add.reduce(gx, axis=1, keepdims=True) / d
    proj = np.add.reduce(np.multiply(gx, xhat, out=tmp), axis=1, keepdims=True) / d
    gx -= mean
    gx -= np.multiply(xhat, proj, out=tmp)
    gx *= inv
    return gx


def layernorm_rows(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Per-row layer norm with learned gain/bias rows."""
    _need_2d(x, "layernorm_rows")
    d = x.shape[1]
    for t, name in ((gain, "gain"), (bias, "bias")):
        if t.shape != (1, d):
            raise DimensionError(f"layernorm_rows: {name} must be (1, {d}), got {t.shape}")
    out, xhat, inv = _layernorm(x.data, gain.data, bias.data)

    def back(g: np.ndarray) -> None:
        dx = _layernorm_back(g, xhat, inv, gain, bias)
        if x.requires_grad:
            x._accum(dx)

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
# fused kernels: one tape record for a whole recurrence or transformer block


def lstm_final(xs: Sequence[Tensor], wih: Tensor, whh: Tensor, b: Tensor) -> Tensor:
    """Single-direction LSTM over the rows of each sequence in xs; returns the
    final hidden states as columns, (hidden, B), column i for xs[i].

    Gate order along the stacked weight rows is input, forget, cell, output;
    initial hidden and cell states are zero. The sequences may differ in
    length. They run longest first, and step t advances only the sequences
    longer than t, so an ended sequence keeps its state and, in the backward,
    passes its gradient through unchanged. For one sequence the forward keeps
    the operation order of the per-frame composition of primitives, so it is
    bit-identical to it; the backward is hand-written BPTT over the saved
    gates.
    """
    xs = list(xs)
    if not xs:
        raise DimensionError("lstm_final: need at least one sequence")
    for t in (*xs, wih, whh, b):
        _need_2d(t, "lstm_final")
    four_h, hidden = whh.shape
    if four_h != 4 * hidden:
        raise DimensionError(f"lstm_final: whh {whh.shape} is not (4h, h)")
    for x in xs:
        if wih.shape != (four_h, x.shape[1]):
            raise DimensionError(f"lstm_final: wih {wih.shape} incompatible with input {x.shape}")
    if b.shape != (four_h, 1):
        raise DimensionError(f"lstm_final: b {b.shape} is not ({four_h}, 1)")
    sig, dsig = _UNARY["sigmoid"]
    tnh, dtnh = _UNARY["tanh"]
    wd, ud, bd = wih.data, whh.data, b.data
    lengths = np.array([x.shape[0] for x in xs])
    order = np.argsort(-lengths, kind="stable")  # longest first
    frame = np.arange(lengths[order[0]])[:, None]
    running = lengths[order] > frame  # steps x B; each row is a prefix of `order`
    active = running.sum(axis=1).tolist()
    starts = np.cumsum(lengths) - lengths
    # every frame in step-major order: step t holds frame t of each running sequence
    pick = (starts[order] + frame)[running]
    xall = xs[0].data if len(xs) == 1 else np.concatenate([x.data for x in xs])
    xp = xall[pick]
    z_in = xp @ wd.T  # frames x 4h, one matmul for all steps
    h = np.zeros((hidden, active[0]))
    c = np.zeros((hidden, active[0]))
    out = np.empty((hidden, len(xs)))
    steps = []
    keep = _begin(*xs, wih, whh, b)[1]  # only a recorded forward keeps its steps
    lo = 0
    for n, still in zip(active, active[1:] + [0]):
        h_prev, c_prev = h[:, :n], c[:, :n]
        z = (z_in[lo:lo + n].T + ud @ h_prev) + bd
        gi = sig(z[:hidden])
        gf = sig(z[hidden:2 * hidden])
        gg = tnh(z[2 * hidden:3 * hidden])
        go = sig(z[3 * hidden:])
        c = gf * c_prev + gi * gg
        tc = tnh(c)
        h = go * tc
        if keep:
            steps.append((gi, gf, gg, go, c_prev, h_prev, tc))
        # the sequences that end here leave their final state
        out[:, order[still:n]] = h[:, still:n]
        lo += n

    def back(g: np.ndarray) -> None:
        g_sorted = g[:, order]
        dz = np.empty((len(pick), four_h))
        dh = dc = np.zeros((hidden, 0))
        hi = len(pick)
        for t in range(len(active) - 1, -1, -1):
            gi, gf, gg, go, c_prev, _, tc = steps[t]
            n, m = active[t], dh.shape[1]
            if n > m:  # the sequences that end at step t take their gradient here
                dh = np.concatenate([dh, g_sorted[:, m:n]], axis=1)
                dc = np.concatenate([dc, np.zeros((hidden, n - m))], axis=1)
            # the sigmoid and tanh derivatives read only their outputs, so no
            # pre-activation is kept
            dc = dc + dh * go * dtnh(None, tc)
            col = dz[hi - n:hi].T
            col[:hidden] = dc * gg * dsig(None, gi)
            col[hidden:2 * hidden] = dc * c_prev * dsig(None, gf)
            col[2 * hidden:3 * hidden] = dc * gi * dtnh(None, gg)
            col[3 * hidden:] = dh * tc * dsig(None, go)
            dh = ud.T @ col
            dc = dc * gf
            hi -= n
        if any(x.requires_grad for x in xs):
            dx = np.empty_like(xall)
            dx[pick] = dz @ wd
            for x, s in zip(xs, starts):
                if x.requires_grad:
                    x._accum(dx[s:s + x.shape[0]])
        if wih.requires_grad:
            wih._accum(dz.T @ xp)
        if whh.requires_grad:
            h_prev = np.concatenate([s[5] for s in steps], axis=1)  # h x frames
            whh._accum(dz.T @ h_prev.T)
        if b.requires_grad:
            b._accum(dz.sum(axis=0).reshape(four_h, 1))

    return _finish(out, (*xs, wih, whh, b), back)


# weight names of one decoder block, after its prefix
BLOCK_WEIGHTS = ("ln1.g", "ln1.b", "wq", "bq", "wk", "bk", "wv", "bv", "wo", "bo",
                 "ln2.g", "ln2.b", "wf1", "bf1", "wf2", "bf2")


def decoder_block(x: Tensor, w: dict[str, Tensor], prefix: str, heads: int,
                  last: int, first: Sequence[int] | None = None,
                  cache: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None) -> Tensor:
    """One pre-norm transformer block over the rows of one or more samples:

        h1 = ln1(x);  q, k, v = h1 wq + bq, h1 wk + bk, h1 wv + bv
        x1 = x + attention(q, k, v) wo + bo
        out = x1 + gelu(ln2(x1) wf1 + bf1) wf2 + bf2

    with weights w[prefix + name] for the names in BLOCK_WEIGHTS and exact
    GELU. Attention is causal and multi-head: each head owns d / heads
    adjacent columns and attends with softmax of q k^T / sqrt(d / heads),
    over the keys of its own sample, future positions masked to MASK_VALUE.

    x holds one sample's (l, d) rows or, with `first`, the rows of
    B = len(first) samples stacked, (B l, d), each sample's l rows at
    positions 0 .. l - 1. Keys and values come from every row; queries, the
    output projection and the feed-forward run only on `last` rows of each
    sample, rows first[b] .. first[b] + last - 1 of sample b (the last `last`
    rows without `first`). Returns those rows, (B last, d), in sample order.
    A sample right-padded to l rows keeps its padding out of its real rows.

    `cache`, for untaped calls only, is a key/value cache (keys, values, at):
    two (B, heads, cap, d / heads) arrays and each sample's first position.
    Sample b's rows then sit at positions at[b] .. at[b] + l - 1, their keys
    and values are written there, and its queries attend over the cache's
    first max(at) + l positions, query j seeing those up to
    at[b] + first[b] + j; the positions below at[b] must hold its earlier
    rows. With no cache every query sees its own sample's rows only.

    The block is one tape record. For one sample the forward keeps the
    operation order of the chain of primitives it replaces, so it is
    bit-identical to it; the backward always computes dx and computes a
    weight's gradient only when that weight requires one.
    """
    _need_2d(x, "decoder_block")
    rows, d = x.shape
    if heads <= 0 or d % heads != 0:
        raise DimensionError(f"decoder_block: width {d} not divisible by {heads} heads")
    b_count = 1 if first is None else len(first)
    if b_count == 0 or rows % b_count:
        raise DimensionError(f"decoder_block: {rows} rows do not split into {b_count} samples")
    l = rows // b_count
    first = np.array([l - last] if first is None else first, dtype=np.int64)
    if not 1 <= last <= l or first.min() < 0 or first.max() + last > l:
        raise DimensionError(f"decoder_block: cannot return {last} rows from {first.tolist()} "
                             f"of {l} rows")
    ws = [w[prefix + name] for name in BLOCK_WEIGHTS]
    g1, b1, wq, bq, wk, bk, wv, bv, wo, bo, g2, b2, wf1, bf1, wf2, bf2 = ws
    s = 1.0 / math.sqrt(d // heads)

    def split(a: np.ndarray) -> np.ndarray:
        """(B n, d) rows -> contiguous (B, heads, n, d / heads)."""
        return np.ascontiguousarray(a.reshape(b_count, -1, heads, d // heads).swapaxes(1, 2))

    def merge(a: np.ndarray) -> np.ndarray:
        """(B, heads, n, d / heads) -> (B n, d) rows."""
        return a.swapaxes(1, 2).reshape(-1, d)

    starts = np.arange(b_count) * l + first
    # the query rows, as a slice when they are contiguous
    pick = (slice(starts[0], starts[0] + b_count * last) if b_count == 1 or last == l
            else (starts[:, None] + np.arange(last)).reshape(-1))
    h1, xhat1, inv1 = _layernorm(x.data, g1.data, b1.data)
    hq = h1[pick]
    q, k, v = hq @ wq.data, h1 @ wk.data, h1 @ wv.data
    q += bq.data
    k += bk.data
    v += bv.data
    qh = split(q)
    if cache is None:
        kh, vh, at = split(k), split(v), 0
    else:
        if _begin(x, *ws)[1]:
            raise TapeStateError("decoder_block: a key/value cache is for untaped calls only")
        keys, values, at = cache
        span = int(at.max()) + l
        if keys.shape != values.shape or keys.shape[:2] != (b_count, heads) or span > keys.shape[2]:
            raise DimensionError(f"decoder_block: cache {keys.shape} cannot take {l} rows "
                                 f"at positions {at.tolist()}")
        index = np.arange(b_count)[:, None], slice(None), at[:, None] + np.arange(l)
        keys[index] = k.reshape(b_count, l, heads, d // heads)
        values[index] = v.reshape(b_count, l, heads, d // heads)
        kh, vh = keys[:, :, :span], values[:, :, :span]
    del q, k, v  # qh, kh and vh hold them; every array below lives until the call returns
    # query j of sample b sits at position at[b] + first[b] + j and sees keys up to it
    seen = (at + first)[:, None, None] + np.arange(last)[:, None]
    att = qh @ kh.swapaxes(-1, -2)
    att *= s
    # a raw score is far below MASK_VALUE's ulp, so adding MASK_VALUE to it
    # would give exactly MASK_VALUE too
    np.copyto(att, MASK_VALUE, where=(np.arange(kh.shape[2]) > seen)[:, None])
    att -= att.max(axis=-1, keepdims=True)
    np.exp(att, out=att)
    att /= att.sum(axis=-1, keepdims=True)
    merged = merge(att @ vh)
    x1 = merged @ wo.data
    x1 += bo.data
    x1 += x.data[pick]
    h2, xhat2, inv2 = _layernorm(x1, g2.data, b2.data)
    a = h2 @ wf1.data
    a += bf1.data
    p = _gaussian_cdf(a)  # kept for the GELU derivative
    gl = a * p
    out = gl @ wf2.data
    out += bf2.data
    out += x1

    def linear_back(inp: np.ndarray, wt: Tensor, bt: Tensor, g: np.ndarray) -> np.ndarray:
        """Accumulate the weight and bias gradients of inp @ wt + bt; return dinp."""
        if bt.requires_grad:
            bt._accum(g.sum(axis=0, keepdims=True))
        if wt.requires_grad:
            wt._accum(inp.T @ g)
        return g @ wt.data.T

    def back(g: np.ndarray) -> None:
        da = linear_back(gl, wf2, bf2, g)
        da *= _gelu_grad(a, p)
        dx1 = _layernorm_back(linear_back(h2, wf1, bf1, da), xhat2, inv2, g2, b2)
        del da  # the largest array, dead here
        dx1 += g
        gh = split(linear_back(merged, wo, bo, dx1))
        # att * (datt - (datt * att).sum(axis=-1, keepdims=True)) * s, in place
        dscores = gh @ vh.swapaxes(-1, -2)
        dscores -= (dscores * att).sum(axis=-1, keepdims=True)
        dscores *= att
        dscores *= s
        dh1 = linear_back(h1, wv, bv, merge(att.swapaxes(-1, -2) @ gh))
        dh1 += linear_back(h1, wk, bk, merge(dscores.swapaxes(-1, -2) @ qh))
        dh1[pick] += linear_back(hq, wq, bq, merge(dscores @ kh))
        dx = _layernorm_back(dh1, xhat1, inv1, g1, b1)
        dx[pick] += dx1
        if x.requires_grad:
            x._accum(dx)

    return _finish(out, (x, *ws), back)


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


def rows_cross_entropy(logits: Tensor, targets: Sequence[int], groups: int = 1,
                       mask: np.ndarray | None = None) -> Tensor:
    """Max-shifted cross-entropy of each logit row against its target id.
    The rows fall into `groups` equal runs, one per sample, and each run's
    losses are summed over its rows; returns the (groups,) sums. Given a
    boolean row `mask`, only its True rows count: a False row adds no loss
    and gets no gradient."""
    _need_2d(logits, "rows_cross_entropy")
    ids = np.asarray(list(targets), dtype=np.int64)
    n, v = logits.shape
    if ids.shape != (n,):
        raise DimensionError(f"rows_cross_entropy: {n} rows but {ids.size} targets")
    if ids.min() < 0 or ids.max() >= v:
        raise DimensionError(f"rows_cross_entropy: target outside 0..{v - 1}")
    if groups < 1 or n % groups:
        raise DimensionError(f"rows_cross_entropy: {n} rows do not split into {groups} groups")
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (n,):
            raise DimensionError(f"rows_cross_entropy: {n} rows but a mask of {mask.size}")
        if not mask.reshape(groups, -1).any(axis=1).all():
            raise DimensionError("rows_cross_entropy: a group has no row in the mask")
    z = logits.data - logits.data.max(axis=1, keepdims=True)
    ez = np.exp(z)
    denom = ez.sum(axis=1, keepdims=True)
    rows = np.arange(n)
    per_row = np.log(denom[:, 0]) - z[rows, ids]
    if mask is not None:
        per_row = np.where(mask, per_row, 0.0)
    probs = ez / denom

    def back(g: np.ndarray) -> None:
        if logits.requires_grad:
            d = probs.copy()
            d[rows, ids] -= 1.0
            # each row's seed of its group, and 0 for a row outside the mask
            seeds = np.repeat(g, n // groups)
            d *= (seeds if mask is None else np.where(mask, seeds, 0.0))[:, None]
            logits._accum(d)

    return _finish(per_row.reshape(groups, -1).sum(axis=1), (logits,), back)


def zero_grads(params: Iterable[Tensor]) -> None:
    for p in params:
        p.zero_grad()
