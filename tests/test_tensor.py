"""Autodiff core: forward oracles, finite-difference gradient checks,
tape lifecycle rules."""

import gc
import math
import tracemalloc
import weakref

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from mmadapt import tensor as T
from mmadapt.backbone import BackboneConfig, init_weights
from mmadapt.errors import DimensionError, DomainError, TapeStateError, TokenError

from oracles import (cross_entropy_scalar, decoder_block_chain, decoder_block_plain, fd_grad,
                     gelu_plain, layernorm_back_plain, layernorm_plain, lstm_final_loop,
                     matmul_loops, max_rel_err)

RNG = np.random.default_rng(20260815)
PRIM_TOL = 1e-6  # primitive backward vs central differences, step 1e-5


def loss_of(out: T.Tensor, w: np.ndarray) -> T.Tensor:
    """Reduce an op output to a scalar with fixed mixing weights."""
    return T.sum_all(T.hadamard(out, T.Tensor(w)))


def check_grads(build, arrays: dict[str, np.ndarray], tol: float = PRIM_TOL) -> None:
    """build(tensors) -> scalar Tensor; compares tape grads to central diffs."""
    tensors = {k: T.Tensor(v.copy(), requires_grad=True) for k, v in arrays.items()}
    with T.Tape() as tape:
        root = build(tensors)
        tape.backward(root)
    # the plain views share storage with the tensors above, so fd_grad's
    # in-place nudges are visible to the rebuilt forward pass
    plain = {k: T.Tensor._wrap(v.data, False, None) for k, v in tensors.items()}
    for name, t in tensors.items():
        fd = fd_grad(lambda: build(plain).item(), t.data)
        assert t.grad is not None, f"{name}: no gradient buffer"
        err = max_rel_err(t.grad, fd)
        assert err <= tol, f"{name}: rel err {err:.3e} > {tol}"


# ---------------------------------------------------------------------------
# forward oracles


def test_matmul_matches_triple_loop_oracle():
    for shape in [(1, 1, 1), (3, 4, 2), (5, 7, 6), (2, 9, 3)]:
        n, k, m = shape
        a = RNG.uniform(-2, 2, (n, k))
        b = RNG.uniform(-2, 2, (k, m))
        got = T.matmul(T.Tensor(a), T.Tensor(b)).data
        assert max_rel_err(got, matmul_loops(a, b), floor=1e-12) <= 1e-12


def test_gelu_matches_high_precision_gaussian_cdf():
    mpmath.mp.dps = 50
    for x in [-3.0, -1.0, -0.25, 0.0, 0.5, 1.0, 2.5]:
        want = float(mpmath.mpf(x) * mpmath.ncdf(mpmath.mpf(x)))
        got = T.gelu(T.Tensor([x])).data[0]
        assert abs(got - want) <= 1e-14 + 1e-12 * abs(want)


def test_gelu_at_one_reference_value():
    got = T.gelu(T.Tensor([1.0])).data[0]
    assert_allclose(got, 0.5 * (1.0 + math.erf(1.0 / math.sqrt(2.0))), rtol=1e-15)


def test_gelu_is_bit_identical_to_the_two_erf_formula():
    """Keeping 1 + erf(x / sqrt 2) from the forward for the backward changes
    no bit of the output or of the gradient."""
    from scipy.special import erf

    x = np.concatenate([RNG.uniform(-7, 7, 998), [0.0, -0.0]]).reshape(10, 100)
    g = RNG.uniform(-1, 1, x.shape)
    xt = T.Tensor(x, requires_grad=True)
    with T.Tape() as tape:
        out = T.gelu(xt)
        tape.backward(T.sum_all(T.hadamard(out, T.Tensor(g))))
    c, k = 1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0 * math.pi)
    assert_array_equal(out.data, 0.5 * x * (1.0 + erf(x * c)))
    assert_array_equal(xt.grad, g * (0.5 * (1.0 + erf(x * c)) + x * np.exp(-0.5 * x * x) * k))


def test_sigmoid_tanh_forwards():
    x = np.array([[-1.5, 0.0, 0.7]])
    assert_allclose(T.sigmoid(T.Tensor(x)).data, 1 / (1 + np.exp(-x)), rtol=1e-15)
    assert_allclose(T.tanh(T.Tensor(x)).data, np.tanh(x), rtol=1e-15)


def test_reduce_mean_rows_example():
    out = T.reduce_mean_rows(T.Tensor([[1.0, 3.0], [5.0, 7.0]]))
    assert_array_equal(out.data, [[3.0, 5.0]])


def test_softmax_cross_entropy_two_logit_example():
    loss = T.softmax_cross_entropy(T.Tensor([10.0, -10.0]), 0)
    assert_allclose(loss.item(), math.log1p(math.exp(-20.0)), rtol=1e-6)


def test_softmax_cross_entropy_uniform_logits():
    loss = T.softmax_cross_entropy(T.Tensor(np.zeros(16)), 3)
    assert_allclose(loss.item(), math.log(16.0), rtol=1e-12)


def test_softmax_cross_entropy_matches_scalar_oracle():
    for _ in range(20):
        v = RNG.uniform(-5, 5, 11)
        t = int(RNG.integers(0, 11))
        got = T.softmax_cross_entropy(T.Tensor(v), t).item()
        assert abs(got - cross_entropy_scalar(list(v), t)) <= 1e-12


def test_softmax_rows_rows_sum_to_one():
    x = RNG.uniform(-4, 4, (5, 9))
    y = T.softmax_rows(T.Tensor(x)).data
    assert_allclose(y.sum(axis=1), np.ones(5), rtol=1e-12)
    assert np.all(y >= 0)


def test_embedding_lookup_rows_equal_table_rows():
    table = T.Tensor(RNG.uniform(-1, 1, (7, 4)))
    out = T.embedding_lookup(table, [5])
    assert_array_equal(out.data, table.data[[5]])
    out2 = T.embedding_lookup(table, [2, 2, 6])
    assert_array_equal(out2.data, table.data[[2, 2, 6]])


def test_embedding_lookup_rejects_out_of_range():
    table = T.Tensor(np.zeros((7, 4)))
    with pytest.raises(TokenError):
        T.embedding_lookup(table, [7])
    with pytest.raises(TokenError):
        T.embedding_lookup(table, [-1])


def test_causal_mask_future_rows_cannot_leak():
    """Changing a future key row leaves earlier softmax rows bit-identical."""
    q = RNG.uniform(-2, 2, (5, 4))
    k1 = RNG.uniform(-2, 2, (5, 4))
    k2 = k1.copy()
    k2[4] = RNG.uniform(-2, 2, 4) * 3.0
    s1 = T.softmax_rows(T.causal_attention_scores(T.Tensor(q), T.Tensor(k1), 0.5)).data
    s2 = T.softmax_rows(T.causal_attention_scores(T.Tensor(q), T.Tensor(k2), 0.5)).data
    assert_array_equal(s1[:4], s2[:4])
    # masked attention weights are exactly zero
    assert s1[0, 1] == 0.0 and s1[2, 3] == 0.0 and s1[2, 4] == 0.0


# ---------------------------------------------------------------------------
# gradient checks (central differences, step 1e-5)


def test_matmul_grads():
    check_grads(
        lambda t: loss_of(T.matmul(t["a"], t["b"]), W),
        {"a": RNG.uniform(-2, 2, (3, 4)), "b": RNG.uniform(-2, 2, (4, 2))},
    )


W = RNG.uniform(-1, 1, (3, 2))


def test_hadamard_add_scale_grads():
    w = RNG.uniform(-1, 1, (3, 3))
    check_grads(
        lambda t: loss_of(T.scale(T.add(T.hadamard(t["a"], t["b"]), t["c"]), 0.7), w),
        {k: RNG.uniform(-2, 2, (3, 3)) for k in "abc"},
    )


def test_add_rowvec_add_scalar_grads():
    w = RNG.uniform(-1, 1, (4, 3))
    check_grads(
        lambda t: loss_of(T.add_scalar(T.add_rowvec(t["x"], t["b"]), t["s"]), w),
        {"x": RNG.uniform(-2, 2, (4, 3)), "b": RNG.uniform(-2, 2, (1, 3)),
         "s": RNG.uniform(-2, 2, (1,))},
    )


@pytest.mark.parametrize("fname", ["sigmoid", "tanh", "gelu"])
def test_unary_grads(fname):
    w = RNG.uniform(-1, 1, (2, 5))
    check_grads(
        lambda t: loss_of(getattr(T, fname)(t["x"]), w),
        {"x": RNG.uniform(-2, 2, (2, 5))},
    )


def test_sigmoid_derivative_at_zero_is_quarter():
    x = T.Tensor([0.0], requires_grad=True)
    with T.Tape() as tape:
        tape.backward(T.sum_all(T.sigmoid(x)))
    assert_allclose(x.grad, [0.25], rtol=1e-15)


def test_gelu_derivative_matches_high_precision():
    mpmath.mp.dps = 40
    for xv in [-2.0, -0.6, 0.0, 0.3, 1.7]:
        x = T.Tensor([xv], requires_grad=True)
        with T.Tape() as tape:
            tape.backward(T.sum_all(T.gelu(x)))
        want = float(mpmath.diff(lambda z: z * mpmath.ncdf(z), mpmath.mpf(xv)))
        assert abs(x.grad[0] - want) <= 1e-12


def test_reduce_mean_sum_grads():
    w = RNG.uniform(-1, 1, (1, 4))
    check_grads(
        lambda t: loss_of(T.reduce_mean_rows(t["x"]), w),
        {"x": RNG.uniform(-2, 2, (5, 4))},
    )


def test_softmax_cross_entropy_grads():
    check_grads(
        lambda t: T.softmax_cross_entropy(t["v"], 2),
        {"v": RNG.uniform(-2, 2, 7)},
    )


def test_softmax_rows_grads():
    w = RNG.uniform(-1, 1, (3, 5))
    check_grads(
        lambda t: loss_of(T.softmax_rows(t["x"]), w),
        {"x": RNG.uniform(-2, 2, (3, 5))},
    )


def test_layernorm_grads():
    w = RNG.uniform(-1, 1, (3, 6))
    check_grads(
        lambda t: loss_of(T.layernorm_rows(t["x"], t["g"], t["b"]), w),
        {"x": RNG.uniform(-2, 2, (3, 6)), "g": RNG.uniform(0.5, 2, (1, 6)),
         "b": RNG.uniform(-1, 1, (1, 6))},
        tol=1e-5,  # composed of several row reductions; still far under 1e-4
    )


def test_causal_attention_grads():
    w = RNG.uniform(-1, 1, (4, 4))
    check_grads(
        lambda t: loss_of(T.softmax_rows(T.causal_attention_scores(t["q"], t["k"], 0.5)), w),
        {"q": RNG.uniform(-2, 2, (4, 3)), "k": RNG.uniform(-2, 2, (4, 3))},
    )


# ---------------------------------------------------------------------------
# fused kernels against the taped loops they replace


def run_taped(fn, arrays, w):
    """Forward fn over fresh grad-requiring copies of arrays, backward from
    a fixed mix of the output; return the output and every input gradient."""
    tensors = [T.Tensor(a.copy(), requires_grad=True) for a in arrays]
    with T.Tape() as tape:
        out = fn(*tensors)
        tape.backward(loss_of(out, w))
    return out.data, [t.grad for t in tensors]


@pytest.mark.parametrize("frames", [1, 10])
def test_lstm_final_matches_taped_frame_loop(frames):
    width, hidden = 8, 32
    rng = np.random.default_rng(frames)
    arrays = [rng.uniform(-1, 1, (frames, width)),
              rng.uniform(-1, 1, (4 * hidden, width)),
              rng.uniform(-1, 1, (4 * hidden, hidden)),
              rng.uniform(-1, 1, (4 * hidden, 1))]
    w = rng.uniform(-1, 1, (hidden, 1))
    got, got_grads = run_taped(lambda x, *ws: T.lstm_final([x], *ws), arrays, w)
    want, want_grads = run_taped(
        lambda *t: lstm_final_loop(*t, hidden), arrays, w)
    assert_array_equal(got, want)
    for name, g, ref in zip(("x", "wih", "whh", "b"), got_grads, want_grads):
        assert max_rel_err(g, ref, floor=1e-12) <= 1e-12, name


def test_lstm_final_batch_matches_taped_frame_loop_per_sequence():
    """Sequences of different lengths in one batch, the longest not first:
    each output column and every gradient equal the per-sequence frame loop."""
    width, hidden = 5, 6
    rng = np.random.default_rng(11)
    lengths = [3, 1, 7, 7, 2]
    xs = [rng.uniform(-1, 1, (l, width)) for l in lengths]
    weights = [rng.uniform(-1, 1, (4 * hidden, width)),
               rng.uniform(-1, 1, (4 * hidden, hidden)),
               rng.uniform(-1, 1, (4 * hidden, 1))]
    w = rng.uniform(-1, 1, (hidden, len(xs)))
    got, got_grads = run_taped(
        lambda *t: T.lstm_final(list(t[:len(xs)]), *t[len(xs):]), xs + weights, w)
    want_grads = [np.zeros_like(a) for a in weights]
    for i, x in enumerate(xs):
        want, grads = run_taped(lambda *t: lstm_final_loop(*t, hidden), [x] + weights,
                                w[:, i:i + 1])
        assert max_rel_err(got[:, i:i + 1], want, floor=1e-12) <= 1e-12, i
        assert max_rel_err(got_grads[i], grads[0], floor=1e-12) <= 1e-12, i
        for acc, g in zip(want_grads, grads[1:]):
            acc += g
    for name, g, ref in zip(("wih", "whh", "b"), got_grads[len(xs):], want_grads):
        assert np.max(np.abs(g - ref)) <= 1e-12 * np.max(np.abs(ref)), name


def test_lstm_final_rejects_mismatched_shapes():
    x = T.Tensor(np.ones((3, 2)))
    ok = dict(wih=np.ones((8, 2)), whh=np.ones((8, 2)), b=np.ones((8, 1)))
    for key, bad in (("wih", np.ones((8, 3))), ("whh", np.ones((8, 3))),
                     ("b", np.ones((4, 1)))):
        args = {**ok, key: bad}
        with pytest.raises(DimensionError):
            T.lstm_final([x], *(T.Tensor(args[k]) for k in ("wih", "whh", "b")))


def block_weights(rng, width=16, ffn=32):
    """Random weights of one decoder block under the prefix "h0."."""
    shapes = {"wf1": (width, ffn), "bf1": (1, ffn), "wf2": (ffn, width)}
    return {"h0." + n: rng.uniform(-1, 1, shapes.get(n, (width, width) if n[0] == "w"
                                                      else (1, width)))
            for n in T.BLOCK_WEIGHTS}


def run_block(fn, x, weights, w, trainable=True):
    """run_taped over x and the block weights, which get gradients only when
    trainable; fn(x, weight dict) -> output tensor."""
    names = list(weights)
    if trainable:
        return run_taped(lambda x, *ws: fn(x, dict(zip(names, ws))),
                         [x, *weights.values()], w)
    fixed = {n: T.Tensor(a) for n, a in weights.items()}
    out, grads = run_taped(lambda x: fn(x, fixed), [x], w)
    return out, grads + [None] * len(names)


@pytest.mark.parametrize("heads", [1, 2, 4])
@pytest.mark.parametrize("rows", [1, 46])
def test_causal_mha_matches_taped_head_loop(heads, rows):
    """The decoder block, attention included, equals the chain of primitives
    with per-head attention: the forward bit for bit, and the gradients of x
    and of every weight, trainable or frozen, to 1e-12."""
    rng = np.random.default_rng(100 * heads + rows)
    x = rng.uniform(-2, 2, (rows, 16))
    weights = block_weights(rng)
    w = rng.uniform(-1, 1, (rows, 16))
    for trainable in (True, False):
        got, got_grads = run_block(
            lambda x, ws: T.decoder_block(x, ws, "h0.", heads, rows), x, weights, w,
            trainable)
        want, want_grads = run_block(
            lambda x, ws: decoder_block_chain(x, ws, "h0.", heads), x, weights, w, trainable)
        assert_array_equal(got, want)
        for name, g, ref in zip(["x", *weights], got_grads, want_grads):
            assert (g is None) == (ref is None), name
            if g is not None:
                assert max_rel_err(g, ref, floor=1e-12) <= 1e-12, name


@pytest.mark.parametrize("heads", [1, 2, 4])
def test_causal_mha_future_rows_cannot_leak(heads):
    """Changing the last input row of a decoder block leaves earlier output
    rows bit-identical, in every head."""
    rng = np.random.default_rng(heads)
    weights = {n: T.Tensor(a) for n, a in block_weights(rng, 8, 16).items()}
    x1 = rng.uniform(-2, 2, (6, 8))
    x2 = x1.copy()
    x2[5] = rng.uniform(-2, 2, 8)
    o1 = T.decoder_block(T.Tensor(x1), weights, "h0.", heads, 6).data
    o2 = T.decoder_block(T.Tensor(x2), weights, "h0.", heads, 6).data
    assert_array_equal(o1[:5], o2[:5])
    assert not np.array_equal(o1[5], o2[5])


@pytest.mark.parametrize("heads", [1, 2, 4])
@pytest.mark.parametrize("lq", [1, 3])
def test_causal_mha_fewer_queries_equal_last_rows_of_square_call(heads, lq):
    """A decoder block asked for its last lq of lk rows: the output and
    every gradient equal those of the full call with its last lq rows read."""
    rng = np.random.default_rng(10 * heads + lq)
    lk = 7
    x = rng.uniform(-2, 2, (lk, 16))
    weights = block_weights(rng)
    w = rng.uniform(-1, 1, (lq, 16))
    got, got_grads = run_block(
        lambda x, ws: T.decoder_block(x, ws, "h0.", heads, lq), x, weights, w)
    want, want_grads = run_block(
        lambda x, ws: T.slice_rows(T.decoder_block(x, ws, "h0.", heads, lk), lk - lq, lk),
        x, weights, w)
    assert_allclose(got, want, rtol=0, atol=1e-12)
    for name, g, ref in zip(["x", *weights], got_grads, want_grads):
        assert_allclose(g, ref, rtol=0, atol=1e-12, err_msg=name)


@pytest.mark.parametrize("heads", [1, 2, 4])
@pytest.mark.parametrize("last", [1, 3, 7])
def test_decoder_block_key_bias_gradient_is_zero(heads, last):
    """The key bias adds q . bk to every score of a query row, which softmax
    cancels, so its gradient is zero up to roundoff: the tape's bk gradient
    stays below 1e-12 of the query bias's, which does reach the loss."""
    rng = np.random.default_rng(10 * heads + last)
    x = rng.uniform(-2, 2, (7, 16))
    weights = block_weights(rng)
    w = rng.uniform(-1, 1, (last, 16))
    _, grads = run_block(lambda x, ws: T.decoder_block(x, ws, "h0.", heads, last),
                         x, weights, w)
    grad = dict(zip(["x", *weights], grads))
    assert np.max(np.abs(grad["h0.bk"])) <= 1e-12 * np.max(np.abs(grad["h0.bq"]))


@pytest.mark.parametrize("heads", [1, 2, 4])
def test_decoder_block_over_a_padded_batch_equals_each_samples_own_call(heads):
    """Samples of 5, 9, 3 and 7 rows, right-padded to 9, with windows of 2,
    4, 1 and 3 query rows padded to 4 from rows min(length - window, 9 - 4):
    each window's outputs and each sample's input gradient equal those of
    the sample's own call, and the weight gradients their sum over the
    samples, to 1e-12 of the largest entry (the key bias's gradient is zero
    up to roundoff, see below); the padding gets an input gradient of 0.

    Untaped with a key/value cache, the call gives the same outputs bit for
    bit and leaves each sample's keys and values at its positions 0 .. 8;
    one row per sample at a position at[b] over that cache then equals row
    at[b] of the sample's own call, to 1e-12."""
    rng = np.random.default_rng(heads)
    lengths, windows, l, w_max = (5, 9, 3, 7), (2, 4, 1, 3), 9, 4
    first = [min(n - k, l - w_max) for n, k in zip(lengths, windows)]
    xs = [rng.uniform(-2, 2, (n, 16)) for n in lengths]
    ws = [rng.uniform(-1, 1, (k, 16)) for k in windows]
    weights = block_weights(rng)
    x = np.zeros((4 * l, 16))
    w = np.zeros((4 * w_max, 16))
    for b, (xb, wb, at) in enumerate(zip(xs, ws, first)):
        x[b * l:b * l + len(xb)] = xb
        skip = len(xb) - len(wb) - at  # window rows before this sample's own
        w[b * w_max + skip:b * w_max + skip + len(wb)] = wb
    got, got_grads = run_block(
        lambda x, ws: T.decoder_block(x, ws, "h0.", heads, w_max, first), x, weights, w)
    want_weights = [np.zeros_like(g) for g in got_grads[1:]]
    for b, (xb, wb, at) in enumerate(zip(xs, ws, first)):
        want, grads = run_block(
            lambda x, ws: T.decoder_block(x, ws, "h0.", heads, len(wb)), xb, weights, wb)
        skip = len(xb) - len(wb) - at
        rows = got[b * w_max + skip:b * w_max + skip + len(wb)]
        assert np.max(np.abs(rows - want)) <= 1e-12 * np.max(np.abs(want)), b
        dx = got_grads[0][b * l:(b + 1) * l]
        assert np.max(np.abs(dx[:len(xb)] - grads[0])) <= 1e-12 * np.max(np.abs(grads[0])), b
        assert np.all(dx[len(xb):] == 0.0), b
        for acc, g in zip(want_weights, grads[1:]):
            acc += g
    for name, g, ref in zip(weights, got_grads[1:], want_weights):
        if name != "h0.bk":
            assert np.max(np.abs(g - ref)) <= 1e-12 * np.max(np.abs(ref)), name

    fixed = {n: T.Tensor(a) for n, a in weights.items()}
    keys, values = np.zeros((2, 4, heads, l + 2, 16 // heads))
    plain = T.decoder_block(T.Tensor(x), fixed, "h0.", heads, w_max, first)
    cached = T.decoder_block(T.Tensor(x), fixed, "h0.", heads, w_max, first,
                             (keys, values, np.zeros(4, dtype=np.int64)))
    assert_array_equal(cached.data, plain.data)
    h1 = T.layernorm_rows(T.Tensor(x), fixed["h0.ln1.g"], fixed["h0.ln1.b"]).data
    for b, xb in enumerate(xs):
        for cache, w_name, b_name in ((keys, "h0.wk", "h0.bk"), (values, "h0.wv", "h0.bv")):
            want = h1[b * l:b * l + len(xb)] @ weights[w_name] + weights[b_name]
            want = want.reshape(len(xb), heads, -1).swapaxes(0, 1)
            assert np.max(np.abs(cache[b, :, :len(xb)] - want)) <= 1e-12 * np.max(np.abs(want))
    assert not keys[:, :, l:].any() and not values[:, :, l:].any()
    # positions after at[b] hold later rows' keys, which the row must not see
    at = np.array([n // 2 for n in lengths])
    step = T.decoder_block(T.Tensor(np.stack([xb[p] for xb, p in zip(xs, at)])), fixed,
                           "h0.", heads, 1, [0] * 4, (keys, values, at))
    for b, (xb, p) in enumerate(zip(xs, at)):
        want = T.decoder_block(T.Tensor(xb), fixed, "h0.", heads, len(xb)).data[p]
        assert np.max(np.abs(step.data[b] - want)) <= 1e-12 * np.max(np.abs(want)), b


def test_causal_mha_rejects_bad_heads_and_shapes():
    rng = np.random.default_rng(0)
    weights = {n: T.Tensor(a) for n, a in block_weights(rng, 6, 12).items()}
    x = T.Tensor(np.ones((3, 6)))
    with pytest.raises(DimensionError):
        T.decoder_block(x, weights, "h0.", 4, 3)
    for last in (0, 4):
        with pytest.raises(DimensionError):
            T.decoder_block(x, weights, "h0.", 2, last)
    # 3 rows that do not split into 2 samples, or windows of 2 rows that
    # start before or run past a sample's rows, or no samples at all
    for first in ([0, 0], [-1], [2], []):
        with pytest.raises(DimensionError):
            T.decoder_block(x, weights, "h0.", 2, 2, first)
    # a cache of the wrong shape or too short for the rows, or any cache
    # under a recording tape
    at = np.zeros(1, dtype=np.int64)
    for shape, start in (((1, 3, 4, 3), at), ((1, 2, 4, 3), at + 2), ((1, 2, 2, 3), at)):
        with pytest.raises(DimensionError):
            T.decoder_block(x, weights, "h0.", 2, 3, [0], (np.zeros(shape), np.zeros(shape), start))
    keys, values = np.zeros((2, 1, 2, 4, 3))
    x.requires_grad = True
    with T.Tape(), pytest.raises(TapeStateError):
        T.decoder_block(x, weights, "h0.", 2, 3, [0], (keys, values, at))


def test_slice_concat_stack_transpose_grads():
    w = RNG.uniform(-1, 1, (4, 2))

    def build(t):
        joined = T.concat_rows([t["a"], t["b"]])          # (4, 3)
        left = T.slice_cols(joined, 0, 1)                 # (4, 1)
        right = T.slice_rows(T.transpose(joined), 1, 3)   # rows 1..2 of (3, 4)
        wide = T.stack_columns([left, T.transpose(right)])  # (4, 3) -> take 2 cols
        return loss_of(T.slice_cols(wide, 0, 2), w)

    check_grads(build, {"a": RNG.uniform(-2, 2, (2, 3)), "b": RNG.uniform(-2, 2, (2, 3))})


def test_embedding_lookup_grads_scatter_add():
    table = T.Tensor(RNG.uniform(-1, 1, (6, 3)), requires_grad=True)
    w = np.ones((4, 3))
    with T.Tape() as tape:
        out = T.embedding_lookup(table, [1, 4, 1, 0])
        tape.backward(loss_of(out, w))
    want = np.zeros((6, 3))
    for i in [1, 4, 1, 0]:
        want[i] += 1.0
    assert_array_equal(table.grad, want)


@pytest.mark.parametrize("ids", [[2, 3, 4], [0, 1, 2, 3, 4, 5], [5], [3, 4, 5, 0], [4, 3, 2],
                                 [0, 1, 0, 1], [1, 3, 5]])
def test_embedding_lookup_grad_adds_onto_the_table_grad_like_add_at(ids):
    """A contiguous run of ids takes a slice add, any other ids np.add.at;
    both give the bits np.add.at gives, on top of a gradient already there."""
    table = T.Tensor(RNG.uniform(-1, 1, (6, 3)), requires_grad=True)
    table.grad = RNG.uniform(-1, 1, (6, 3))
    g = RNG.uniform(-1, 1, (len(ids), 3))
    want = table.grad.copy()
    np.add.at(want, ids, g)
    with T.Tape() as tape:
        tape.backward(T.embedding_lookup(table, ids), grad=g)
    assert_array_equal(table.grad, want)


def test_frozen_table_gets_no_gradient():
    table = T.Tensor(RNG.uniform(-1, 1, (6, 3)), requires_grad=False)
    x = T.Tensor(RNG.uniform(-1, 1, (4, 3)), requires_grad=True)
    with T.Tape() as tape:
        out = T.add(T.embedding_lookup(table, [0, 2, 3, 5]), x)
        tape.backward(T.sum_all(out))
    assert table.grad is None
    assert x.grad is not None


# ---------------------------------------------------------------------------
# tape lifecycle


def test_tape_is_single_use():
    x = T.Tensor([1.0, 2.0], requires_grad=True)
    with T.Tape() as tape:
        root = T.sum_all(x)
        tape.backward(root)
        with pytest.raises(TapeStateError):
            tape.backward(root)


def test_consumed_tape_frees_activations_without_cyclic_gc():
    x = T.Tensor(RNG.uniform(-1, 1, (3, 4)), requires_grad=True)
    gc.disable()
    try:
        with T.Tape() as tape:
            hidden = T.tanh(x)
            root = T.sum_all(hidden)
            tape.backward(root)
        freed = weakref.ref(hidden.data)
        with pytest.raises(TapeStateError):
            tape.backward(root)
        del tape, hidden, root
        assert freed() is None
    finally:
        gc.enable()
    assert x.grad is not None


def test_backward_requires_recorded_root():
    x = T.Tensor([1.0], requires_grad=True)
    with pytest.raises(TapeStateError):
        T.Tape().backward(x)


def test_backward_requires_scalar_root():
    x = T.Tensor([[1.0, 2.0]], requires_grad=True)
    with T.Tape() as tape:
        y = T.scale(x, 2.0)
        with pytest.raises(DimensionError):
            tape.backward(y)


def test_backward_seed_gives_the_vector_jacobian_product():
    """A seeded non-scalar root backpropagates what the scalar root
    sum(root * seed) does, and a seed of the wrong shape is refused."""
    xv, wv = RNG.uniform(-2, 2, (3, 4)), RNG.uniform(-2, 2, (4, 2))
    seed = RNG.uniform(-1, 1, (3, 2))
    grads = []
    for seeded in (True, False):
        x = T.Tensor(xv, requires_grad=True)
        with T.Tape() as tape:
            y = T.matmul(T.tanh(x), T.Tensor(wv))
            if seeded:
                tape.backward(y, grad=seed)
            else:
                tape.backward(loss_of(y, seed))
        grads.append(x.grad)
    assert_allclose(grads[0], grads[1], rtol=1e-14)
    x = T.Tensor(xv, requires_grad=True)
    with T.Tape() as tape:
        y = T.tanh(x)
        with pytest.raises(DimensionError):
            tape.backward(y, grad=seed)


def test_backward_linearity_across_fresh_tapes():
    """grad of (f+g) equals accumulated grads of f and g run separately."""
    xv = RNG.uniform(-2, 2, (3, 3))
    x1 = T.Tensor(xv, requires_grad=True)
    with T.Tape() as tape:
        root = T.add(T.sum_all(T.hadamard(x1, x1)), T.sum_all(T.tanh(x1)))
        tape.backward(root)
    x2 = T.Tensor(xv, requires_grad=True)
    with T.Tape() as tape:
        tape.backward(T.sum_all(T.hadamard(x2, x2)))
    with T.Tape() as tape:
        tape.backward(T.sum_all(T.tanh(x2)))
    assert_allclose(x1.grad, x2.grad, rtol=1e-15)


def test_grads_accumulate_until_cleared():
    x = T.Tensor([2.0], requires_grad=True)
    for _ in range(3):
        with T.Tape() as tape:
            tape.backward(T.sum_all(T.scale(x, 5.0)))
    assert_allclose(x.grad, [15.0])
    x.zero_grad()
    assert x.grad is None


def test_ops_outside_tape_do_not_record():
    x = T.Tensor([1.0, 2.0], requires_grad=True)
    y = T.sum_all(x)
    assert y.tape is None and not y.requires_grad
    with pytest.raises(TapeStateError):
        T.Tape().backward(y)


def test_unreachable_grads_untouched():
    x = T.Tensor([1.0], requires_grad=True)
    y = T.Tensor([1.0], requires_grad=True)
    with T.Tape() as tape:
        _unused = T.scale(y, 3.0)
        root = T.sum_all(T.scale(x, 2.0))
        tape.backward(root)
    assert y.grad is None


def test_nested_tapes_rejected():
    with T.Tape():
        with pytest.raises(TapeStateError):
            with T.Tape():
                pass


# ---------------------------------------------------------------------------
# shape and domain validation


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(DimensionError) as ei:
        T.matmul(T.Tensor(np.zeros((2, 3))), T.Tensor(np.zeros((2, 3))))
    assert "(2, 3)" in str(ei.value)


def test_constructor_validation():
    with pytest.raises(DimensionError):
        T.Tensor(np.zeros((2, 2, 2, 2)))
    with pytest.raises(DimensionError, match="rank must be 1..2"):
        T.Tensor(np.zeros((2, 2, 2)))
    with pytest.raises(DimensionError):
        T.Tensor(np.zeros((0, 3)))
    with pytest.raises(DomainError):
        T.Tensor([np.nan, 1.0])
    with pytest.raises(DomainError):
        T.Tensor([np.inf])


def test_slice_bounds_checked():
    x = T.Tensor(np.zeros((3, 3)))
    with pytest.raises(DimensionError):
        T.slice_rows(x, 2, 5)
    with pytest.raises(DimensionError):
        T.slice_cols(x, 3, 3)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 2**31 - 1))
def test_transpose_involution(r, c, seed):
    x = np.random.default_rng(seed).uniform(-5, 5, (r, c))
    assert_array_equal(T.transpose(T.transpose(T.Tensor(x))).data, x)


def test_rows_cross_entropy_matches_per_row_oracle():
    x = RNG.uniform(-4, 4, (6, 9))
    targets = [int(t) for t in RNG.integers(0, 9, 6)]
    want_rows = [cross_entropy_scalar(list(r), t) for r, t in zip(x, targets)]
    got = T.rows_cross_entropy(T.Tensor(x), targets).item()
    assert abs(got - sum(want_rows)) <= 1e-12


def test_rows_cross_entropy_grads():
    targets = [2, 0, 4]
    check_grads(
        lambda t: T.rows_cross_entropy(t["x"], targets),
        {"x": RNG.uniform(-2, 2, (3, 5))},
    )


def test_rows_cross_entropy_groups_reduce_their_rows_in_the_mask():
    """Two groups of three rows each sum their own rows in the mask
    against the per-row oracle; a row outside the mask adds no loss, and the
    seeded gradient reaches only the rows in the mask."""
    x = RNG.uniform(-4, 4, (6, 9))
    targets = [1, 3, 8, 5, 0, 2]
    mask = np.array([True, False, False, False, True, True])
    seed = np.array([0.7, -1.3])
    t = T.Tensor(x, requires_grad=True)
    with T.Tape() as tape:
        out = T.rows_cross_entropy(t, targets, groups=2, mask=mask)
        tape.backward(out, grad=seed)
    for g, rows in enumerate(([0], [4, 5])):
        want = sum(cross_entropy_scalar(list(x[r]), targets[r]) for r in rows)
        assert abs(out.data[g] - want) <= 1e-12
    assert np.all(t.grad[[1, 2, 3]] == 0.0)
    check_grads(lambda t: T.sum_all(T.rows_cross_entropy(t["x"], targets, groups=2,
                                                         mask=mask)),
                {"x": x.copy()})
    unmasked = T.rows_cross_entropy(T.Tensor(x), targets, groups=2).data
    for g in range(2):
        want = sum(cross_entropy_scalar(list(x[r]), targets[r]) for r in range(3 * g, 3 * g + 3))
        assert abs(unmasked[g] - want) <= 1e-12
    with pytest.raises(DimensionError):
        T.rows_cross_entropy(T.Tensor(x), targets, groups=4)
    with pytest.raises(DimensionError):  # the middle group has no row in the mask
        T.rows_cross_entropy(T.Tensor(x), targets, groups=3, mask=mask)
    with pytest.raises(DimensionError):
        T.rows_cross_entropy(T.Tensor(x), targets, groups=2, mask=mask[:5])


def test_rows_cross_entropy_validation():
    x = T.Tensor(np.zeros((3, 4)))
    with pytest.raises(DimensionError):
        T.rows_cross_entropy(x, [0, 1])
    with pytest.raises(DimensionError):
        T.rows_cross_entropy(x, [0, 1, 4])
    with pytest.raises(DimensionError):  # a negative id is rejected, not skipped
        T.rows_cross_entropy(x, [0, -1, 2])
    with pytest.raises(DimensionError):  # also under a mask that leaves its row out
        T.rows_cross_entropy(x, [0, -1, 2], mask=[True, False, True])


# ---------------------------------------------------------------------------
# the in-place kernels against their plain expressions, bit for bit


def assert_same_bits(got, want, msg=""):
    assert_array_equal(np.asarray(got).view(np.int64), np.asarray(want).view(np.int64), msg)


def test_erf_is_odd_to_the_bit():
    """The GELU takes erf of |x / sqrt 2| and copies the sign back, because
    scipy's erf branches on its input's sign and runs faster on |x|. That
    keeps every bit only while scipy's erf is odd to the bit, -0.0 included;
    if a future scipy breaks it, this names the cause before any checkpoint
    byte changes."""
    from scipy.special import erf

    top = np.finfo(np.float64).max
    edges = np.array([0.0, 0.5, 1.0, 1e-300, top, 1e308])
    x = np.concatenate([np.linspace(0, 7, 1_000_001), np.linspace(5.8, 6.0, 20_001), edges,
                        np.nextafter(edges, 0.0), np.nextafter(edges[:4], 2.0)])
    for x in (x, -x):
        assert_same_bits(np.copysign(erf(np.abs(x)), x), erf(x))
        assert_same_bits(T._gaussian_cdf(x), 0.5 * (1.0 + erf(x * (1.0 / math.sqrt(2.0)))))


# the row counts of a training sub-batch, a prefill block and a pretraining line
WORKLOAD_SHAPES = [(8, 42), (16, 40), (1, 200)]


@pytest.mark.parametrize("samples,rows", WORKLOAD_SHAPES)
def test_layernorm_helpers_match_their_plain_expressions(samples, rows):
    rng = np.random.default_rng(samples * rows)
    x = rng.normal(0.1, 1.5, (samples * rows, 64))
    gain, bias = rng.uniform(0.5, 1.5, (1, 64)), rng.normal(0.0, 0.1, (1, 64))
    want = layernorm_plain(x, gain, bias)
    for got, ref in zip(T._layernorm(x, gain, bias), want):
        assert_same_bits(got, ref)
    g = rng.normal(size=x.shape)
    want_dx, want_dgain, want_dbias = layernorm_back_plain(g, want[1], want[2], gain)
    for trainable in (True, False):
        gt, bt = T.Tensor(gain, requires_grad=trainable), T.Tensor(bias, requires_grad=trainable)
        assert_same_bits(T._layernorm_back(g, want[1], want[2], gt, bt), want_dx)
        if trainable:
            assert_same_bits(gt.grad, want_dgain)
            assert_same_bits(bt.grad, want_dbias)
        else:
            assert gt.grad is None and bt.grad is None


@pytest.mark.parametrize("samples,rows", WORKLOAD_SHAPES)
def test_gelu_helpers_match_their_plain_expressions(samples, rows):
    rng = np.random.default_rng(samples + rows)
    a = rng.normal(-0.3, 1.5, (samples * rows, 256))
    a[0, :8] = [0.0, -0.0, 6.0, -6.0, 40.0, -40.0, 1e-300, -1e-300]
    t, gl, dgelu = gelu_plain(a)
    p = T._gaussian_cdf(a)
    assert_same_bits(p, 0.5 * t)
    assert_same_bits(a * p, gl)
    assert_same_bits(T._gelu_grad(a, p), dgelu)


def backbone_block_weights(rng):
    """Layer 0 of a default backbone, every entry nudged so that no bias is
    zero and no gain is one."""
    return {n[3:]: t.data + rng.normal(0.0, 0.1, t.shape)
            for n, t in init_weights(BackboneConfig(), rng).items() if n.startswith("h0.")}


@pytest.mark.parametrize("trainable", [True, False])
@pytest.mark.parametrize("samples,rows,last", [(8, 42, 3), (16, 40, 1), (1, 200, 200)])
def test_decoder_block_matches_its_plain_expressions(samples, rows, last, trainable):
    """The block's output, input gradient and weight gradients have the bits
    of the same block written with one new array per operator, on a ragged
    batch: sample b has a random length, its padding rows are zero, and its
    `last` query rows end at its last real row."""
    rng = np.random.default_rng(samples * rows + last)
    w = backbone_block_weights(rng)
    lengths = rng.integers(last, rows + 1, samples)
    lengths[0] = rows
    first = (lengths - last).tolist()
    x = rng.normal(0.0, 1.0, (samples, rows, 64))
    x[np.arange(rows) >= lengths[:, None]] = 0.0
    x = x.reshape(-1, 64)
    g = rng.normal(size=(samples * last, 64))
    want_out, want_dx, want_grads = decoder_block_plain(x, w, 2, last, first, g)
    xt = T.Tensor(x, requires_grad=True)
    weights = {"h0." + n: T.Tensor(a, requires_grad=trainable) for n, a in w.items()}
    with T.Tape() as tape:
        out = T.decoder_block(xt, weights, "h0.", 2, last, first)
        tape.backward(out, grad=g)
    assert_same_bits(out.data, want_out)
    assert_same_bits(xt.grad, want_dx)
    for name, t in weights.items():
        if trainable:
            assert_same_bits(t.grad, want_grads[name[3:]], name)
        else:
            assert t.grad is None, name


def test_frozen_block_backward_allocates_under_two_and_a_half_ffn_arrays():
    """The backward of one frozen-weight block over a training sub-batch of
    8 samples x 42 rows allocates, at its peak, at most 2.5 FFN-sized
    arrays (rows x 256 float64) beyond what its forward holds: each
    elementwise step writes into an array it owns, and the GELU's gradient
    is freed once dead. Reads 2.25 arrays; one new array per operator read
    4.25, and keeping the GELU's gradient to the end 2.58."""
    rng = np.random.default_rng(842)
    w = {"h0." + n: T.Tensor(a) for n, a in backbone_block_weights(rng).items()}
    xt = T.Tensor(rng.normal(0.0, 1.0, (8 * 42, 64)), requires_grad=True)
    with T.Tape() as tape:
        out = T.decoder_block(xt, w, "h0.", 2, 42, [0] * 8)
    g = rng.normal(size=out.shape)
    tracemalloc.start()
    try:
        tape.backward(out, grad=g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * (8 * 42 * 256 * 8), f"{peak / 2**20:.2f} MiB"
