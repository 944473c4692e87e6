"""Optimizer primitives: AdamW with decoupled decay, global-norm clipping,
and the warmup/cosine learning-rate schedule."""

import math

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from mmadapt.errors import ConfigError, NumericError
from mmadapt.optim import (BETA1, BETA2, EPS, AdamWState, adamw_step, clip_global_norm,
                           lr_schedule)
from mmadapt.tensor import Tensor

RNG = np.random.default_rng(515)


def _param(arr) -> Tensor:
    t = Tensor(np.asarray(arr, dtype=np.float64), requires_grad=True)
    return t


def test_zero_grad_zero_decay_leaves_parameters_unchanged():
    p = _param([[1.0, -2.0], [0.5, 3.0]])
    p.grad = np.zeros((2, 2))
    before = p.data.copy()
    adamw_step([("p", p)], AdamWState(), lr=0.1)
    assert_array_equal(p.data, before)


def test_missing_grad_buffer_treated_as_zero():
    p = _param([[4.0]])
    assert p.grad is None
    adamw_step([("p", p)], AdamWState(), lr=0.5)
    assert p.data[0, 0] == 4.0


def test_first_step_closed_form():
    # bias correction makes the first update lr * g/(|g| + eps) for any g
    p = _param([[1.0]])
    p.grad = np.array([[1.0]])
    adamw_step([("p", p)], AdamWState(), lr=0.1)
    assert p.data[0, 0] == pytest.approx(0.9, abs=1e-7)


def test_decoupled_decay_with_zero_grad_is_pure_shrink():
    p = _param([[1.0, -8.0]])
    p.grad = np.zeros((1, 2))
    adamw_step([("p", p)], AdamWState(), lr=0.5, weight_decay=0.5)
    # dyadic lr and decay make p * (1 - lr*decay) exact
    assert_array_equal(p.data, np.array([[0.75, -6.0]]))


def test_nan_gradient_aborts_naming_parameter():
    p = _param([[1.0]])
    p.grad = np.array([[np.nan]])
    with pytest.raises(NumericError, match="bad_tensor"):
        adamw_step([("bad_tensor", p)], AdamWState(), lr=0.1)


def test_state_must_cover_parameter_set():
    p = _param([[1.0]])
    q = _param([[2.0]])
    p.grad = np.ones((1, 1))
    q.grad = np.ones((1, 1))
    state = AdamWState()
    adamw_step([("p", p)], state, lr=0.1)
    with pytest.raises(ConfigError, match="parameter set"):
        adamw_step([("q", q)], state, lr=0.1)


def _adamw_reference(p0, grads, lr, betas=(0.9, 0.999), eps=1e-8, decay=0.0):
    m = np.zeros_like(p0)
    v = np.zeros_like(p0)
    p = p0.copy()
    for t, g in enumerate(grads, start=1):
        m = betas[0] * m + (1 - betas[0]) * g
        v = betas[1] * v + (1 - betas[1]) * (g * g)
        m_hat = m / (1 - betas[0] ** t)
        v_hat = v / (1 - betas[1] ** t)
        p = p - lr * m_hat / (np.sqrt(v_hat) + eps)
        p = p - lr * decay * p
    return p


@pytest.mark.parametrize("decay", [0.0, 0.01])
def test_multi_step_trajectory_matches_reference(decay):
    p0 = RNG.normal(size=(3, 4))
    grads = [RNG.normal(size=(3, 4)) for _ in range(7)]
    p = _param(p0.copy())
    state = AdamWState()
    for g in grads:
        p.grad = g.copy()
        adamw_step([("p", p)], state, lr=3e-3, weight_decay=decay)
    want = _adamw_reference(p0, grads, lr=3e-3, decay=decay)
    assert np.max(np.abs(p.data - want)) <= 1e-12
    assert state.step == 7


def test_step_has_the_bits_of_the_plain_update_and_makes_its_moments_once():
    p0 = RNG.normal(size=(5, 7))
    p = _param(p0.copy())
    state = AdamWState()
    m, v, want = np.zeros_like(p0), np.zeros_like(p0), p0.copy()
    for t in range(1, 8):
        g = RNG.normal(size=p0.shape)
        p.grad = g.copy()
        adamw_step([("p", p)], state, lr=3e-3, weight_decay=0.01)
        if t == 1:
            moments = state.m["p"], state.v["p"]
        m = BETA1 * m + (1.0 - BETA1) * g
        v = BETA2 * v + (1.0 - BETA2) * (g * g)
        want = want - 3e-3 * ((m / (1.0 - BETA1 ** t)) / (np.sqrt(v / (1.0 - BETA2 ** t)) + EPS))
        want = want - 3e-3 * 0.01 * want
        assert_array_equal(p.data.view(np.int64), want.view(np.int64))
        assert_array_equal(p.grad, g)
    assert state.m["p"] is moments[0] and state.v["p"] is moments[1]


def test_clip_scales_to_max_norm_and_returns_preclip():
    p = _param([[3.0]])
    q = _param([[4.0]])
    p.grad = np.array([[3.0]])
    q.grad = np.array([[4.0]])
    returned = clip_global_norm([("p", p), ("q", q)], max_norm=1.0)
    assert returned == pytest.approx(5.0)
    clipped = math.sqrt((p.grad ** 2).item() + (q.grad ** 2).item())
    assert clipped == pytest.approx(1.0)
    assert p.grad[0, 0] == pytest.approx(0.6)
    assert q.grad[0, 0] == pytest.approx(0.8)


def test_clip_below_threshold_is_identity():
    p = _param([[1.0]])
    p.grad = np.array([[0.25]])
    returned = clip_global_norm([("p", p)], max_norm=1.0)
    assert returned == 0.25
    assert p.grad[0, 0] == 0.25


def test_clip_skips_parameters_without_grads():
    p = _param([[1.0]])
    q = _param([[1.0]])
    q.grad = np.array([[2.0]])
    assert clip_global_norm([("p", p), ("q", q)], max_norm=10.0) == 2.0
    assert p.grad is None


def test_schedule_endpoints_are_exact():
    total = 200
    warmup = max(1, round(0.1 * total))
    assert lr_schedule(0, total, 5e-3) == 0.0
    assert lr_schedule(warmup, total, 5e-3) == 5e-3
    assert lr_schedule(total, total, 5e-3) == 0.0


def test_schedule_ramps_linearly_then_decays_monotonically():
    total, base = 100, 1.0
    warmup = max(1, round(0.1 * total))
    for step in range(warmup):
        assert lr_schedule(step, total, base) == pytest.approx(base * step / warmup)
    values = [lr_schedule(s, total, base) for s in range(warmup, total + 1)]
    assert all(a >= b for a, b in zip(values, values[1:]))
    assert values[0] == base


def test_schedule_validates_inputs():
    with pytest.raises(ConfigError):
        lr_schedule(0, 0, 1e-3)
    with pytest.raises(ConfigError):
        lr_schedule(-1, 10, 1e-3)
    with pytest.raises(ConfigError):
        lr_schedule(11, 10, 1e-3)


def test_schedule_tiny_run_has_nonzero_interior():
    # with one total step the warmup span is one step: 0 at 0, 0 at the end
    assert lr_schedule(0, 1, 1e-2) == 0.0
    assert lr_schedule(1, 1, 1e-2) == 0.0
    # two steps: the middle step carries the peak
    assert lr_schedule(1, 2, 1e-2) == 1e-2
