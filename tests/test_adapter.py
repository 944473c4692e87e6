"""Adapter stages vs independent loop oracles, the batched adapter vs the
per-sample chain, ablation variant semantics, parameter accounting,
checkpoint round trips."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from mmadapt import adapter as A
from mmadapt import tensor as T
from mmadapt.errors import CheckpointError, ConfigError
from oracles import (fd_grad, gelu_scalar, lstm_scalar_step, max_rel_err,
                     pseudo_tokens_chain)

RNG = np.random.default_rng(4242)

CFG = A.AdapterConfig(audio_width=5, vision_width=3, audio_hidden=6,
                      vision_hidden=4, mix_width=32, token_count=4,
                      embed_width=16, scale_divisors=(8, 16, 32))


def make_params(config=CFG, seed=1):
    return A.AdapterParams.init(config, np.random.default_rng(seed))


def sample_inputs(config=CFG, seed=2, la=7, lv=5, lt=6):
    rng = np.random.default_rng(seed)
    return (T.Tensor(rng.uniform(-1, 1, (lt, config.embed_width))),
            T.Tensor(rng.uniform(-1, 1, (la, config.audio_width))),
            T.Tensor(rng.uniform(-1, 1, (lv, config.vision_width))))


# ---------------------------------------------------------------------------
# stage oracles


def test_lstm_single_step_matches_scalar_oracle():
    for trial in range(10):
        rng = np.random.default_rng(100 + trial)
        width, hidden = 4, 3
        x = rng.uniform(-1, 1, (1, width))
        wih = rng.uniform(-1, 1, (4 * hidden, width))
        whh = rng.uniform(-1, 1, (4 * hidden, hidden))
        b = rng.uniform(-1, 1, (4 * hidden, 1))
        got = A.lstm_final_state(T.Tensor(x), T.Tensor(wih), T.Tensor(whh),
                                 T.Tensor(b), hidden).data[:, 0]
        want, _ = lstm_scalar_step(list(x[0]), [0.0] * hidden, [0.0] * hidden,
                                   wih.tolist(), whh.tolist(), b[:, 0].tolist())
        assert max_rel_err(got, np.array(want), floor=1e-12) <= 1e-12


def test_lstm_multi_step_matches_scalar_oracle():
    rng = np.random.default_rng(8)
    width, hidden, steps = 3, 5, 6
    x = rng.uniform(-1, 1, (steps, width))
    wih = rng.uniform(-1, 1, (4 * hidden, width))
    whh = rng.uniform(-1, 1, (4 * hidden, hidden))
    b = rng.uniform(-1, 1, (4 * hidden, 1))
    h, c = [0.0] * hidden, [0.0] * hidden
    for t in range(steps):
        h, c = lstm_scalar_step(list(x[t]), h, c, wih.tolist(), whh.tolist(),
                                b[:, 0].tolist())
    got = A.lstm_final_state(T.Tensor(x), T.Tensor(wih), T.Tensor(whh),
                             T.Tensor(b), hidden).data[:, 0]
    assert max_rel_err(got, np.array(h), floor=1e-12) <= 1e-12


def test_lstm_all_zero_weights_gives_zero_state():
    hidden = 4
    z = lambda s: T.Tensor._wrap(np.zeros(s), False, None)
    out = A.lstm_final_state(T.Tensor(np.ones((5, 3))), z((16, 3)), z((16, 4)),
                             z((16, 1)), hidden)
    assert_array_equal(out.data, np.zeros((hidden, 1)))


def tgm_oracle(params, text, v_final, a_final):
    c = params.config
    pooled = [sum(text[:, j]) / text.shape[0] for j in range(c.embed_width)]
    w, b = params["text_proj.w"].data, params["text_proj.b"].data
    t_col = [sum(w[i, j] * pooled[j] for j in range(c.embed_width)) + b[i, 0]
             for i in range(c.mix_width)]
    wv, bv = params["vision_proj.w"].data, params["vision_proj.b"].data
    v_col = [sum(wv[i, j] * v_final[j] for j in range(c.vision_hidden)) + bv[i, 0]
             for i in range(c.mix_width)]
    wa, ba = params["audio_proj.w"].data, params["audio_proj.b"].data
    a_col = [sum(wa[i, j] * a_final[j] for j in range(c.audio_hidden)) + ba[i, 0]
             for i in range(c.mix_width)]
    return np.array([v_col[i] * t_col[i] + a_col[i] * t_col[i]
                     for i in range(c.mix_width)])


def test_text_guided_mix_matches_loop_oracle():
    for trial in range(10):
        rng = np.random.default_rng(300 + trial)
        params = make_params(seed=trial)
        text = rng.uniform(-1, 1, (4, CFG.embed_width))
        vf = rng.uniform(-1, 1, CFG.vision_hidden)
        af = rng.uniform(-1, 1, CFG.audio_hidden)
        got = A.text_guided_mix(params, T.Tensor(text),
                                T.Tensor(vf.reshape(-1, 1)),
                                T.Tensor(af.reshape(-1, 1))).data[:, 0]
        assert max_rel_err(got, tgm_oracle(params, text, vf, af), floor=1e-12) <= 1e-12


def msf_oracle(params, mixed):
    c = params.config
    cols = []
    for k in c.scale_divisors:
        wd, bd = params[f"fuse.{k}.down.w"].data, params[f"fuse.{k}.down.b"].data
        wu, bu = params[f"fuse.{k}.up.w"].data, params[f"fuse.{k}.up.b"].data
        narrow = c.mix_width // k
        down = [gelu_scalar(sum(wd[i, j] * mixed[j] for j in range(c.mix_width)) + bd[i, 0])
                for i in range(narrow)]
        cols.append([sum(wu[i, j] * down[j] for j in range(narrow)) + bu[i, 0]
                     for i in range(c.mix_width)])
    mw, mb = params["mix.w"].data, params["mix.b"].data
    return np.array([sum(cols[s][i] * mw[s, 0] for s in range(len(cols))) + mb[0]
                     for i in range(c.mix_width)])


def test_fuse_scales_matches_loop_oracle():
    for trial in range(10):
        rng = np.random.default_rng(400 + trial)
        params = make_params(seed=50 + trial)
        mixed = rng.uniform(-2, 2, CFG.mix_width)
        got = A.fuse_scales(params, T.Tensor(mixed.reshape(-1, 1))).data[:, 0]
        assert max_rel_err(got, msf_oracle(params, mixed), floor=1e-12) <= 1e-12


def expander_oracle(params, fused):
    c = params.config
    w3, b3 = params["expand.w3"].data, params["expand.b3"].data
    w4 = params["expand.w4"].data
    u = [sum(w3[i, j] * fused[j] for j in range(c.mix_width)) + b3[i, 0]
         for i in range(c.embed_width)]
    return np.array([[w4[r, 0] * u[i] for i in range(c.embed_width)]
                     for r in range(c.token_count)])


def test_expand_tokens_matches_loop_oracle():
    for trial in range(10):
        rng = np.random.default_rng(500 + trial)
        params = make_params(seed=90 + trial)
        fused = rng.uniform(-2, 2, CFG.mix_width)
        got = A.expand_tokens(params, T.Tensor(fused.reshape(-1, 1))).data
        assert max_rel_err(got, expander_oracle(params, fused), floor=1e-12) <= 1e-12


def test_pseudo_tokens_rank_at_most_one():
    for trial in range(25):
        params = make_params(seed=600 + trial)
        text, audio, vision = sample_inputs(seed=700 + trial)
        p = A.build_pseudo_tokens(params, text, audio, vision).data
        s = np.linalg.svd(p, compute_uv=False)
        assert s[1] / s[0] <= 1e-9, f"trial {trial}: singular ratio {s[1]/s[0]:.2e}"


def test_text_gating_scales_linearly_with_zero_biases():
    params = make_params(seed=9)
    for name in ("text_proj.b", "vision_proj.b", "audio_proj.b"):
        params[name].data[:] = 0.0
    text, audio, vision = sample_inputs(seed=10)
    vf = A.lstm_final_state(vision, params["vision_lstm.wih"],
                            params["vision_lstm.whh"], params["vision_lstm.b"],
                            CFG.vision_hidden)
    af = A.lstm_final_state(audio, params["audio_lstm.wih"],
                            params["audio_lstm.whh"], params["audio_lstm.b"],
                            CFG.audio_hidden)
    base = A.text_guided_mix(params, text, vf, af).data
    scaled = A.text_guided_mix(params, T.scale(text, 3.5), vf, af).data
    assert_allclose(scaled, 3.5 * base, rtol=1e-12)


# ---------------------------------------------------------------------------
# variants


def test_full_variant_is_default_bit_identical():
    params = make_params()
    text, audio, vision = sample_inputs()
    a = A.build_pseudo_tokens(params, text, audio, vision)
    b = A.build_pseudo_tokens(params, text, audio, vision, A.VariantState("full"))
    assert_array_equal(a.data, b.data)


def test_no_text_and_no_mixer_share_the_adapter_graph():
    params = make_params()
    text, audio, vision = sample_inputs()
    a = A.build_pseudo_tokens(params, text, audio, vision, A.VariantState("no_text"))
    b = A.build_pseudo_tokens(params, text, audio, vision, A.VariantState("no_mixer"))
    assert_array_equal(a.data, b.data)
    # and only no_text also drops the raw text from the backbone input
    assert A.VariantState("no_text").drops_text_input
    assert not A.VariantState("no_mixer").drops_text_input


def test_no_fusion_is_identity_on_mixed_column():
    params = make_params()
    text, audio, vision = sample_inputs()
    got = A.build_pseudo_tokens(params, text, audio, vision,
                                A.VariantState("no_fusion")).data
    vf = A.lstm_final_state(vision, params["vision_lstm.wih"],
                            params["vision_lstm.whh"], params["vision_lstm.b"],
                            CFG.vision_hidden)
    af = A.lstm_final_state(audio, params["audio_lstm.wih"],
                            params["audio_lstm.whh"], params["audio_lstm.b"],
                            CFG.audio_hidden)
    want = A.expand_tokens(params, A.text_guided_mix(params, text, vf, af)).data
    assert_array_equal(got, want)


def test_no_audio_is_invariant_to_audio_perturbation():
    params = make_params()
    text, audio, vision = sample_inputs()
    state = A.VariantState("no_audio")
    p1 = A.build_pseudo_tokens(params, text, audio, vision, state).data
    audio2 = T.Tensor(audio.data + np.float64(2.0))
    p2 = A.build_pseudo_tokens(params, text, audio2, vision, state).data
    assert_array_equal(p1, p2)
    vision2 = T.Tensor(vision.data * 1.7)
    p3 = A.build_pseudo_tokens(params, text, audio, vision2, state).data
    assert np.any(p3 != p1)


def test_no_vision_is_invariant_to_vision_perturbation():
    params = make_params()
    text, audio, vision = sample_inputs()
    state = A.VariantState("no_vision")
    p1 = A.build_pseudo_tokens(params, text, audio, vision, state).data
    p2 = A.build_pseudo_tokens(params, text, audio,
                               T.Tensor(vision.data * -2.0), state).data
    assert_array_equal(p1, p2)


def test_no_audio_vision_uses_fixed_substitutes():
    params = make_params()
    text, audio, vision = sample_inputs()
    state = A.make_variant_state("no_audio_vision", CFG, np.random.default_rng(3))
    assert state.subst_audio is not None and state.subst_vision is not None
    p1 = A.build_pseudo_tokens(params, text, audio, vision, state).data
    p2 = A.build_pseudo_tokens(params, text, T.Tensor(audio.data * 3),
                               T.Tensor(vision.data * -1), state).data
    assert_array_equal(p1, p2)
    # but text still gates, so different text moves the tokens
    p3 = A.build_pseudo_tokens(params, T.Tensor(text.data * 2), audio, vision,
                               state).data
    assert np.any(p3 != p1)
    # same seed draws the same substitutes; different seed draws different ones
    again = A.make_variant_state("no_audio_vision", CFG, np.random.default_rng(3))
    assert_array_equal(again.subst_audio, state.subst_audio)
    other = A.make_variant_state("no_audio_vision", CFG, np.random.default_rng(4))
    assert np.any(other.subst_audio != state.subst_audio)


def test_unknown_variant_rejected():
    with pytest.raises(ConfigError):
        A.VariantState("no_everything")


def test_gradient_reaches_every_parameter():
    params = make_params()
    text, audio, vision = sample_inputs()
    w = RNG.uniform(-1, 1, (CFG.token_count, CFG.embed_width))
    with T.Tape() as tape:
        p = A.build_pseudo_tokens(params, text, audio, vision)
        tape.backward(T.sum_all(T.hadamard(p, T.Tensor(w))))
    for name, t in params.named():
        assert t.grad is not None, f"{name} got no gradient"


def test_dropped_branch_is_detached_from_gradients():
    params = make_params()
    text, audio, vision = sample_inputs()
    with T.Tape() as tape:
        p = A.build_pseudo_tokens(params, text, audio, vision,
                                  A.VariantState("no_audio"))
        tape.backward(T.sum_all(p))
    assert params["audio_lstm.wih"].grad is None
    assert params["vision_lstm.wih"].grad is not None


# ---------------------------------------------------------------------------
# the batched adapter vs the per-sample chain


def batch_inputs(size, seed):
    """Per-sample inputs whose audio and vision lengths differ, with a 1-frame
    sequence among them and the longest sequence last."""
    rng = np.random.default_rng(seed)
    la, lv, lt = (rng.integers(2, 9, size) for _ in range(3))
    la[size // 2], lv[0] = 1, 1
    la[-1], lv[-1] = 9, 10
    draw = lambda l, width: T.Tensor(rng.uniform(-1, 1, (int(l), width)))
    return ([draw(l, CFG.embed_width) for l in lt], [draw(l, CFG.audio_width) for l in la],
            [draw(l, CFG.vision_width) for l in lv])


def assert_close(got, want, what=""):
    """Equal to 1e-12 of the reference's largest entry (or absolutely below 1)."""
    err = float(np.max(np.abs(got - want)))
    assert err <= 1e-12 * max(1.0, float(np.max(np.abs(want)))), f"{what}: {err:.3e}"


@pytest.mark.parametrize("size", [1, 3, 32])
@pytest.mark.parametrize("variant", A.VARIANTS)
def test_batched_adapter_matches_per_sample_oracle(variant, size):
    params = make_params(seed=size)
    state = A.make_variant_state(variant, CFG, np.random.default_rng(size))
    texts, audios, visions = batch_inputs(size, seed=100 + size)
    n = CFG.token_count
    seed = np.random.default_rng(size).uniform(-1, 1, (size * n, CFG.embed_width))
    with T.Tape() as tape:
        got = A.build_pseudo_tokens(params, texts, audios, visions, state)
        tape.backward(got, grad=seed)
    assert got.shape == (size * n, CFG.embed_width)
    got_grads = {name: t.grad for name, t in params.named()}
    params.zero_grads()
    for i in range(size):
        rows = slice(i * n, (i + 1) * n)
        with T.Tape() as tape:
            want = pseudo_tokens_chain(params, texts[i], audios[i], visions[i], state)
            tape.backward(T.sum_all(T.hadamard(want, T.Tensor(seed[rows]))))
        assert_close(got.data[rows], want.data, f"sample {i}")
        s = np.linalg.svd(got.data[rows], compute_uv=False)
        assert s[1] <= 1e-9 * s[0], f"sample {i}: singular ratio {s[1] / s[0]:.2e}"
    for name, t in params.named():
        if t.grad is None:
            assert got_grads[name] is None, name
        else:
            assert_close(got_grads[name], t.grad, name)


def test_single_sample_is_a_batch_of_one():
    params = make_params()
    text, audio, vision = sample_inputs()
    alone = A.build_pseudo_tokens(params, text, audio, vision).data
    listed = A.build_pseudo_tokens(params, [text], [audio], [vision]).data
    assert_array_equal(alone, listed)
    assert alone.shape == (CFG.token_count, CFG.embed_width)


def test_batch_needs_one_matrix_of_each_kind_per_sample():
    params = make_params()
    text, audio, vision = sample_inputs()
    with pytest.raises(T.DimensionError):
        A.build_pseudo_tokens(params, [text, text], [audio, audio], [vision])
    with pytest.raises(T.DimensionError):
        A.build_pseudo_tokens(params, [], [], [])


# ---------------------------------------------------------------------------
# composed finite-difference sweep (small config, every parameter)


def test_every_parameter_matches_finite_differences():
    config = A.AdapterConfig(audio_width=3, vision_width=2, audio_hidden=3,
                             vision_hidden=2, mix_width=8, token_count=2,
                             embed_width=4, scale_divisors=(2, 4, 8))
    params = make_params(config, seed=77)
    rng = np.random.default_rng(78)
    text = rng.uniform(-1, 1, (3, 4))
    audio = rng.uniform(-1, 1, (4, 3))
    vision = rng.uniform(-1, 1, (3, 2))
    w = rng.uniform(-1, 1, (2, 4))

    def forward() -> float:
        p = A.build_pseudo_tokens(params, T.Tensor(text), T.Tensor(audio),
                                  T.Tensor(vision))
        return float((p.data * w).sum())

    with T.Tape() as tape:
        p = A.build_pseudo_tokens(params, T.Tensor(text), T.Tensor(audio),
                                  T.Tensor(vision))
        tape.backward(T.sum_all(T.hadamard(p, T.Tensor(w))))
    worst = 0.0
    for name, t in params.named():
        fd = fd_grad(forward, t.data)
        err = max_rel_err(t.grad, fd)
        worst = max(worst, err)
        assert err <= 1e-4, f"{name}: rel err {err:.3e}"
    assert worst <= 1e-4


# ---------------------------------------------------------------------------
# parameter accounting


def test_count_matches_hand_expansion():
    config = A.AdapterConfig(audio_width=3, vision_width=2, audio_hidden=1,
                             vision_hidden=1, mix_width=32, token_count=1,
                             embed_width=1, scale_divisors=(8, 16, 32))
    # hand count: lstms 20+16, projections 64*3, bottlenecks 292+162+97,
    # channel mix 4, expander 33+1
    assert A.count_trainable(config) == 817
    assert make_params(config).count() == 817


def test_count_closed_form_equals_materialized():
    for seed in range(5):
        rng = np.random.default_rng(1000 + seed)
        ks = (1, 2, 4)
        h = int(rng.integers(1, 8)) * 4
        config = A.AdapterConfig(
            audio_width=int(rng.integers(1, 12)),
            vision_width=int(rng.integers(1, 12)),
            audio_hidden=int(rng.integers(1, 10)),
            vision_hidden=int(rng.integers(1, 10)),
            mix_width=h, token_count=int(rng.integers(1, 6)),
            embed_width=int(rng.integers(1, 64)), scale_divisors=ks)
        assert A.count_trainable(config) == A.AdapterParams.init(config, rng).count()


def test_doubling_token_count_adds_exactly_n():
    base = A.count_trainable(CFG)
    doubled = A.count_trainable(A.AdapterConfig(
        CFG.audio_width, CFG.vision_width, CFG.audio_hidden, CFG.vision_hidden,
        CFG.mix_width, CFG.token_count * 2, CFG.embed_width, CFG.scale_divisors))
    assert doubled - base == CFG.token_count


def test_sweep_reports_closest_admissible_width():
    out = A.sweep_mix_width(target=1_350_000, embed_width=2048, audio_width=74,
                            vision_width=35, audio_hidden=64, vision_hidden=32,
                            token_count=4)
    assert out["mix_width"] % 32 == 0
    assert out["count"] == A.count_trainable(A.AdapterConfig(
        74, 35, 64, 32, out["mix_width"], 4, 2048))
    # every other admissible width sits further from the target
    for h in range(32, 2049, 32):
        c = A.count_trainable(A.AdapterConfig(74, 35, 64, 32, h, 4, 2048))
        assert abs(c - 1_350_000) >= abs(out["count"] - 1_350_000)


def test_config_validation():
    with pytest.raises(ConfigError):
        A.AdapterConfig(1, 1, 1, 1, 30, 1, 8, (8, 16, 32))  # 30 % 8 != 0
    with pytest.raises(ConfigError):
        A.AdapterConfig(0, 1, 1, 1, 32, 1, 8)
    with pytest.raises(ConfigError):
        A.AdapterConfig(1, 1, 1, 1, 32, 0, 8)


# ---------------------------------------------------------------------------
# checkpoints


def test_adapter_checkpoint_round_trip(tmp_path):
    params = make_params(seed=55)
    state = A.make_variant_state("no_audio_vision", CFG, np.random.default_rng(5))
    p1, p2 = tmp_path / "a1.msea", tmp_path / "a2.msea"
    A.save_adapter(p1, params, state, backbone_checksum=123456789)
    loaded, lstate, lsum = A.load_adapter(p1)
    assert lsum == 123456789
    assert lstate.variant == "no_audio_vision"
    assert_array_equal(lstate.subst_audio, state.subst_audio)
    assert_array_equal(lstate.subst_vision, state.subst_vision)
    for (n1, t1), (n2, t2) in zip(loaded.named(), params.named()):
        assert n1 == n2
        assert_array_equal(t1.data, t2.data)
    A.save_adapter(p2, loaded, lstate, backbone_checksum=lsum)
    assert p1.read_bytes() == p2.read_bytes()


def test_adapter_checkpoint_corruption_detected(tmp_path):
    params = make_params()
    p = tmp_path / "a.msea"
    A.save_adapter(p, params, A.VariantState("full"), 0)
    blob = bytearray(p.read_bytes())
    assert bytes(blob[:4]) == b"MSEA"
    blob[len(blob) // 2] ^= 0x40
    p.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError):
        A.load_adapter(p)


@pytest.mark.parametrize("config", [
    CFG, A.AdapterConfig(74, 35, 64, 32, 512, 4, 64),
    A.AdapterConfig(3, 5, 7, 9, 64, 11, 13, (2, 4, 8, 16))])
def test_init_follows_the_param_table(config):
    table = A.param_table(config)
    params = A.AdapterParams.init(config, np.random.default_rng(0))
    assert [(n, t.shape) for n, t in params.named()] == [
        (n, shape) for n, (shape, _) in table.items()]


def test_adapter_load_draws_no_random_numbers(tmp_path, monkeypatch):
    params = make_params()
    state = A.make_variant_state("no_audio_vision", CFG, np.random.default_rng(5))
    A.save_adapter(tmp_path / "a.msea", params, state, 0)

    def refuse(*args, **kwargs):
        raise AssertionError("a checkpoint load drew random numbers")

    monkeypatch.setattr(np.random, "default_rng", refuse)
    loaded, lstate, _ = A.load_adapter(tmp_path / "a.msea")
    assert_array_equal(lstate.subst_vision, state.subst_vision)
    assert [n for n, _ in loaded.named()] == list(A.param_table(CFG))


@pytest.mark.parametrize("variant, subst_vision, subst_audio, match", [
    ("no_audio_vision", None, None, r"is None, expected 'subst\.vision'"),
    ("no_audio_vision", np.zeros((3, 1)), np.zeros((6, 1)),
     r"'subst\.vision' has shape \(3, 1\), expected \(4, 1\)"),
    ("no_audio_vision", np.zeros((4, 1)), None, r"is None, expected 'subst\.audio'"),
    ("full", np.zeros((4, 1)), None, r"record \d+ is 'subst\.vision', expected None"),
])
def test_adapter_load_checks_the_variant_substitutes(tmp_path, variant, subst_vision,
                                                     subst_audio, match):
    """no_audio_vision files hold both substitute states at their shapes, and
    other variants hold neither."""
    state = A.VariantState(variant, subst_vision, subst_audio)
    A.save_adapter(tmp_path / "a.msea", make_params(), state, 0)
    with pytest.raises(CheckpointError, match=match):
        A.load_adapter(tmp_path / "a.msea")


def test_adapter_forward_width_validation():
    params = make_params()
    text, audio, vision = sample_inputs()
    with pytest.raises(Exception):
        A.build_pseudo_tokens(params, text, vision, audio)  # swapped widths
