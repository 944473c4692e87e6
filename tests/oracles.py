"""Independent oracles shared by the test suite.

Everything in here is deliberately naive: plain Python loops, math/mpmath
scalars, no calls into the package's own numeric kernels. Slow is fine,
wrong is not. The exceptions are at the end: the per-frame LSTM, the
per-head attention and the per-layer decoder block composed from the tape's
primitives, which the fused kernels replaced and must reproduce; the
adapter's forward for one sample as a chain of column-vector primitives,
which the batched adapter replaced; the training step with one backbone
tape per sample, which the padded sub-batches replaced; sample preparation
with two embedding lookups per sample, which the blockwise gather replaced;
and greedy decoding of one sample that runs the full forward again for
every new token, the reference that the batched key/value-cached decoding
is checked against.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import erf

from mmadapt import tensor as T
from mmadapt.backbone import EOS, tokenize
from mmadapt.errors import LengthError
from mmadapt.trainer import label_loss, label_token_ids, padded_inputs, pseudo_blocks


def matmul_loops(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    n, k = a.shape
    k2, m = b.shape
    assert k == k2
    out = np.zeros((n, m))
    for i in range(n):
        for j in range(m):
            acc = 0.0
            for t in range(k):
                acc += a[i, t] * b[t, j]
            out[i, j] = acc
    return out


def gelu_scalar(x: float) -> float:
    return 0.5 * x * (1.0 + math.erf(x / math.sqrt(2.0)))


def softmax_list(v) -> list[float]:
    m = max(v)
    e = [math.exp(t - m) for t in v]
    s = sum(e)
    return [t / s for t in e]


def cross_entropy_scalar(logits, target: int) -> float:
    m = max(logits)
    lse = m + math.log(sum(math.exp(t - m) for t in logits))
    return lse - logits[target]


def fd_grad(loss_fn, arr: np.ndarray, eps: float = 1e-5) -> np.ndarray:
    """Central finite differences of a scalar-valued closure w.r.t. arr.

    Mutates arr in place one element at a time and restores it; loss_fn must
    re-read arr on every call.
    """
    g = np.zeros_like(arr)
    it = np.nditer(arr, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        orig = arr[idx]
        arr[idx] = orig + eps
        fp = loss_fn()
        arr[idx] = orig - eps
        fm = loss_fn()
        arr[idx] = orig
        g[idx] = (fp - fm) / (2.0 * eps)
    return g


def max_rel_err(a: np.ndarray, b: np.ndarray, floor: float = 1e-6) -> float:
    """Worst-case relative error with a small floor so 0-vs-0 compares clean."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float(np.max(np.abs(a - b) / denom))


def lstm_scalar_step(x, h_prev, c_prev, w_ih, w_hh, b):
    """One LSTM step in pure loops. Gate order i, f, g, o over row blocks."""
    hdim = len(h_prev)
    z = []
    for r in range(4 * hdim):
        acc = b[r]
        for j in range(len(x)):
            acc += w_ih[r][j] * x[j]
        for j in range(hdim):
            acc += w_hh[r][j] * h_prev[j]
        z.append(acc)
    sig = lambda t: 1.0 / (1.0 + math.exp(-t))
    h_new, c_new = [], []
    for j in range(hdim):
        i_g = sig(z[j])
        f_g = sig(z[hdim + j])
        g_g = math.tanh(z[2 * hdim + j])
        o_g = sig(z[3 * hdim + j])
        c = f_g * c_prev[j] + i_g * g_g
        h_new.append(o_g * math.tanh(c))
        c_new.append(c)
    return h_new, c_new


def pearson_scalar(p, g) -> float | None:
    n = len(p)
    mp = sum(p) / n
    mg = sum(g) / n
    num = sum((a - mp) * (b - mg) for a, b in zip(p, g))
    vp = sum((a - mp) ** 2 for a in p)
    vg = sum((b - mg) ** 2 for b in g)
    if vp == 0.0 or vg == 0.0:
        return None
    return num / math.sqrt(vp * vg)


def f1_binary(preds_pos, golds_pos) -> float:
    """F1 of the positive class from boolean lists."""
    tp = sum(1 for p, g in zip(preds_pos, golds_pos) if p and g)
    fp = sum(1 for p, g in zip(preds_pos, golds_pos) if p and not g)
    fn = sum(1 for p, g in zip(preds_pos, golds_pos) if not p and g)
    if 2 * tp + fp + fn == 0:
        return 0.0
    return 2 * tp / (2 * tp + fp + fn)


def weighted_f1_loops(preds, golds, n_classes: int) -> float:
    total = len(golds)
    acc = 0.0
    for c in range(n_classes):
        support = sum(1 for g in golds if g == c)
        if support == 0:
            continue
        f1 = f1_binary([p == c for p in preds], [g == c for g in golds])
        acc += (support / total) * f1
    return acc


# ---------------------------------------------------------------------------
# taped loop forms of the fused kernels


def lstm_final_loop(x, wih, whh, b, hidden: int):
    """The LSTM as one recorded op group per frame; returns h_last (hidden x 1)."""
    h = T.Tensor._wrap(np.zeros((hidden, 1)), False, None)
    c = T.Tensor._wrap(np.zeros((hidden, 1)), False, None)
    z_in = T.matmul(x, T.transpose(wih))
    for t in range(x.shape[0]):
        z_t = T.transpose(T.slice_rows(z_in, t, t + 1))
        z = T.add(T.add(z_t, T.matmul(whh, h)), b)
        gate_in = T.sigmoid(T.slice_rows(z, 0, hidden))
        gate_forget = T.sigmoid(T.slice_rows(z, hidden, 2 * hidden))
        cell_new = T.tanh(T.slice_rows(z, 2 * hidden, 3 * hidden))
        gate_out = T.sigmoid(T.slice_rows(z, 3 * hidden, 4 * hidden))
        c = T.add(T.hadamard(gate_forget, c), T.hadamard(gate_in, cell_new))
        h = T.hadamard(gate_out, T.tanh(c))
    return h


def causal_mha_loop(q, k, v, heads: int):
    """Causal multi-head attention as one recorded op group per head."""
    dh = q.shape[1] // heads
    inv = 1.0 / math.sqrt(dh)
    outs = []
    for j in range(heads):
        lo, hi = j * dh, (j + 1) * dh
        att = T.softmax_rows(T.causal_attention_scores(
            T.slice_cols(q, lo, hi), T.slice_cols(k, lo, hi), inv))
        outs.append(T.matmul(att, T.slice_cols(v, lo, hi)))
    return outs[0] if len(outs) == 1 else T.stack_columns(outs)


def decoder_block_chain(x, w, prefix: str, heads: int):
    """One pre-norm decoder block over all rows as one recorded op per
    primitive, attention per head."""
    def linear(a, name):
        return T.add_rowvec(T.matmul(a, w[prefix + "w" + name]), w[prefix + "b" + name])

    h1 = T.layernorm_rows(x, w[prefix + "ln1.g"], w[prefix + "ln1.b"])
    merged = causal_mha_loop(linear(h1, "q"), linear(h1, "k"), linear(h1, "v"), heads)
    x = T.add(x, linear(merged, "o"))
    h2 = T.layernorm_rows(x, w[prefix + "ln2.g"], w[prefix + "ln2.b"])
    return T.add(x, linear(T.gelu(linear(h2, "f1")), "f2"))


# ---------------------------------------------------------------------------
# the adapter, one sample at a time


def pseudo_tokens_chain(params, text_rows, audio, vision, state):
    """One sample's (n, embed) pseudo-token block, every activation a column
    vector and every LSTM frame a recorded op group."""
    c = params.config

    def linear(name, col):
        return T.add(T.matmul(params[name + ".w"], col), params[name + ".b"])

    def lstm(tag, x, hidden):
        return lstm_final_loop(x, params[tag + "_lstm.wih"], params[tag + "_lstm.whh"],
                               params[tag + "_lstm.b"], hidden)

    def constant(arr):
        return T.Tensor._wrap(arr, False, None)

    variant = state.variant
    if variant == "no_audio_vision":
        vision_final, audio_final = constant(state.subst_vision), constant(state.subst_audio)
    else:
        vision_final = (constant(np.zeros((c.vision_hidden, 1))) if variant == "no_vision"
                        else lstm("vision", vision, c.vision_hidden))
        audio_final = (constant(np.zeros((c.audio_hidden, 1))) if variant == "no_audio"
                       else lstm("audio", audio, c.audio_hidden))
    vision_col = linear("vision_proj", vision_final)
    audio_col = linear("audio_proj", audio_final)
    if variant in ("no_mixer", "no_text"):
        mixed = T.add(vision_col, audio_col)
    else:
        text_col = linear("text_proj", T.transpose(T.reduce_mean_rows(text_rows)))
        mixed = T.add(T.hadamard(vision_col, text_col), T.hadamard(audio_col, text_col))
    fused = mixed
    if variant != "no_fusion":
        cols = [linear(f"fuse.{k}.up", T.gelu(linear(f"fuse.{k}.down", mixed)))
                for k in c.scale_divisors]
        fused = T.add_scalar(T.matmul(T.stack_columns(cols), params["mix.w"]),
                             params["mix.b"])
    u = T.add(T.matmul(params["expand.w3"], fused), params["expand.b3"])
    return T.matmul(params["expand.w4"], T.transpose(u))


# ---------------------------------------------------------------------------
# the training step, one backbone tape per sample


def batch_step_per_sample(backbone, params, batch, state):
    """`trainer.batch_step` with each sample's loss on a tape of its own, its
    pseudo-token block as the leaf and its own unpadded backbone forward;
    accumulates the same gradients and returns each sample's loss."""
    n = params.config.token_count
    with T.Tape() as adapter_tape:
        pseudo = pseudo_blocks(params, batch, state)
    leaf_grads = np.empty_like(pseudo.data)
    losses = []
    for i, p in enumerate(batch):
        leaf = T.Tensor._wrap(pseudo.data[i * n:(i + 1) * n], True, None)
        with T.Tape() as tape:
            rows, _ = padded_inputs([p], leaf)
            logits = backbone.forward_rows(rows, last=len(p.label_ids) + 1)
            loss = label_loss(logits, [p.label_ids])
            tape.backward(T.scale(loss, 1.0 / len(batch)))
        leaf_grads[i * n:(i + 1) * n] = leaf.grad
        losses.append(loss.item())
    adapter_tape.backward(pseudo, grad=leaf_grads)
    return losses


# ---------------------------------------------------------------------------
# sample preparation, one sample at a time


def prepare_per_sample(backbone, samples, preset, n_prefix, drops_text):
    """Each sample's (text_rows, const_rows, label_ids) from its own
    `backbone.embed` calls; the first sample over max_seq raises LengthError
    before any later sample is looked at."""
    prompt_ids = tokenize(preset.prompt)
    max_seq = backbone.config.max_seq
    out = []
    for s in samples:
        text_ids = tokenize(s.text)
        label_ids = label_token_ids(preset, s.label)
        kept = [] if drops_text else text_ids
        length = n_prefix + len(kept) + len(prompt_ids) + len(label_ids)
        if length > max_seq:
            raise LengthError(f"sample {s.sid!r}: input length {length} exceeds max {max_seq}")
        const_rows = backbone.embed(kept + prompt_ids + label_ids)
        text_rows = backbone.embed(text_ids) if drops_text else const_rows[:len(text_ids)]
        out.append((text_rows, const_rows, label_ids))
    return out


# ---------------------------------------------------------------------------
# greedy decoding one sample at a time


def generate_uncached_ids(backbone, rows, max_new: int = 8) -> list[int]:
    """Greedy decoding that runs the full forward again for every new token;
    the ids `backbone.generate` must emit from its batched key/value cache."""
    rows = rows.data
    out: list[int] = []
    for _ in range(max_new):
        if rows.shape[0] >= backbone.config.max_seq:
            break
        logits = backbone.forward_rows(T.Tensor._wrap(rows, False, None))
        nxt = int(np.argmax(logits.data[-1]))
        if nxt == EOS:
            break
        out.append(nxt)
        rows = np.concatenate([rows, backbone.embed([nxt])], axis=0)
    return out


# ---------------------------------------------------------------------------
# the decoder block and its helpers in plain expressions, one new array per
# operator, which the in-place kernels must reproduce bit for bit


def layernorm_plain(x, gain, bias):
    d = x.shape[1]
    xc = x - np.add.reduce(x, axis=1, keepdims=True) / d
    inv = 1.0 / np.sqrt(np.add.reduce(xc * xc, axis=1, keepdims=True) / d + T.LAYERNORM_EPS)
    xhat = xc * inv
    return xhat * gain + bias, xhat, inv


def layernorm_back_plain(g, xhat, inv, gain):
    """(dx, d gain, d bias)."""
    gx = g * gain
    d = g.shape[1]
    dx = inv * (gx - np.add.reduce(gx, axis=1, keepdims=True) / d
                - xhat * (np.add.reduce(gx * xhat, axis=1, keepdims=True) / d))
    return dx, (g * xhat).sum(axis=0, keepdims=True), g.sum(axis=0, keepdims=True)


def gelu_plain(x):
    """(2 Phi(x), x Phi(x), d/dx x Phi(x))."""
    t = 1.0 + erf(x * (1.0 / math.sqrt(2.0)))
    return t, x * (0.5 * t), 0.5 * t + x * np.exp(-0.5 * x * x) * (1.0 / math.sqrt(2.0 * math.pi))


def decoder_block_plain(x, w, heads: int, last: int, first, g):
    """`T.decoder_block` over the weights w[name] of BLOCK_WEIGHTS, with no
    cache, and its backward from the cotangent g. Returns the output and the
    gradients of x and of every weight by name."""
    b_count, d = len(first), x.shape[1]
    l, s = x.shape[0] // b_count, 1.0 / math.sqrt(d // heads)

    def split(a):
        return np.ascontiguousarray(a.reshape(b_count, -1, heads, d // heads).swapaxes(1, 2))

    def merge(a):
        return a.swapaxes(1, 2).reshape(-1, d)

    pick = ((np.arange(b_count) * l + np.asarray(first))[:, None] + np.arange(last)).reshape(-1)
    h1, xhat1, inv1 = layernorm_plain(x, w["ln1.g"], w["ln1.b"])
    hq = h1[pick]
    qh = split(hq @ w["wq"] + w["bq"])
    kh, vh = split(h1 @ w["wk"] + w["bk"]), split(h1 @ w["wv"] + w["bv"])
    seen = np.asarray(first)[:, None, None] + np.arange(last)[:, None]
    att = (qh @ kh.swapaxes(-1, -2)) * s
    np.copyto(att, T.MASK_VALUE, where=(np.arange(l) > seen)[:, None])
    e = np.exp(att - att.max(axis=-1, keepdims=True))
    att = e / e.sum(axis=-1, keepdims=True)
    merged = merge(att @ vh)
    x1 = x[pick] + (merged @ w["wo"] + w["bo"])
    h2, xhat2, inv2 = layernorm_plain(x1, w["ln2.g"], w["ln2.b"])
    a = h2 @ w["wf1"] + w["bf1"]
    t, gl, dgelu = gelu_plain(a)
    out = x1 + (gl @ w["wf2"] + w["bf2"])

    grads = {}

    def linear_back(inp, name, gout):
        grads["b" + name], grads["w" + name] = gout.sum(axis=0, keepdims=True), inp.T @ gout
        return gout @ w["w" + name].T

    def norm_back(gout, xhat, inv, name):
        dx, grads[name + ".g"], grads[name + ".b"] = layernorm_back_plain(
            gout, xhat, inv, w[name + ".g"])
        return dx

    da = linear_back(gl, "f2", g) * dgelu
    dx1 = g + norm_back(linear_back(h2, "f1", da), xhat2, inv2, "ln2")
    gh = split(linear_back(merged, "o", dx1))
    datt = gh @ vh.swapaxes(-1, -2)
    dscores = att * (datt - (datt * att).sum(axis=-1, keepdims=True)) * s
    dv = merge(att.swapaxes(-1, -2) @ gh)
    dk = merge(dscores.swapaxes(-1, -2) @ qh)
    dh1 = linear_back(h1, "v", dv) + linear_back(h1, "k", dk)
    dh1[pick] += linear_back(hq, "q", merge(dscores @ kh))
    dx = norm_back(dh1, xhat1, inv1, "ln1")
    dx[pick] += dx1
    return out, dx, grads
