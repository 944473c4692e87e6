"""Frozen backbone: tokenizer, transformer forward vs a loop oracle,
causality, generation, pretraining, freeze semantics, checkpoint format."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from mmadapt import backbone as B
from mmadapt import tensor as T
from mmadapt.adapter import AdapterParams, make_variant_state
from mmadapt.errors import (CheckpointError, ConfigError, FrozenViolation,
                            LengthError, TokenError)
from mmadapt.serialize import checksum64, pack_tensors
from mmadapt.trainer import prepare_samples, sample_loss

RNG = np.random.default_rng(99)

TINY = B.BackboneConfig(embed_width=16, layers=1, heads=2, ffn_mult=2, max_seq=48)


def make_frozen(config=TINY, seed=5):
    w = B.init_weights(config, np.random.default_rng(seed))
    return B.FrozenBackbone(config, w)


# ---------------------------------------------------------------------------
# tokenizer


@settings(max_examples=80, deadline=None)
@given(st.text(max_size=40))
def test_tokenize_round_trip(s):
    ids = B.tokenize(s)
    assert all(0 <= i < 256 for i in ids)
    assert B.detokenize(ids) == s


def test_vocab_constants():
    assert B.VOCAB_SIZE == 259
    assert (B.BOS, B.EOS, B.PAD) == (256, 257, 258)


def test_detokenize_drops_specials_and_rejects_out_of_range():
    assert B.detokenize(B.tokenize("ab") + [B.EOS, B.PAD, B.BOS]) == "ab"
    with pytest.raises(TokenError):
        B.detokenize([259])


# ---------------------------------------------------------------------------
# forward oracle


def oracle_forward(config, w, rows):
    """Step-by-step transformer forward in plain loops (1 head per slice)."""
    eps = 1e-5
    d = config.embed_width
    dh = d // config.heads
    l = rows.shape[0]
    x = rows + w["pos"][:l]

    def ln(m, g, b):
        out = np.zeros_like(m)
        for i in range(m.shape[0]):
            mu = sum(m[i]) / d
            var = sum((t - mu) ** 2 for t in m[i]) / d
            for j in range(d):
                out[i, j] = (m[i, j] - mu) / math.sqrt(var + eps) * g[0, j] + b[0, j]
        return out

    for li in range(config.layers):
        p = f"h{li}."
        h1 = ln(x, w[p + "ln1.g"], w[p + "ln1.b"])
        q = h1 @ w[p + "wq"] + w[p + "bq"]
        k = h1 @ w[p + "wk"] + w[p + "bk"]
        v = h1 @ w[p + "wv"] + w[p + "bv"]
        merged = np.zeros((l, d))
        for hj in range(config.heads):
            lo = hj * dh
            for i in range(l):
                scores = [np.dot(q[i, lo:lo + dh], k[j, lo:lo + dh]) / math.sqrt(dh)
                          for j in range(i + 1)]
                m = max(scores)
                e = [math.exp(s - m) for s in scores]
                z = sum(e)
                for j in range(i + 1):
                    merged[i, lo:lo + dh] += (e[j] / z) * v[j, lo:lo + dh]
        x = x + merged @ w[p + "wo"] + w[p + "bo"]
        h2 = ln(x, w[p + "ln2.g"], w[p + "ln2.b"])
        a = h2 @ w[p + "wf1"] + w[p + "bf1"]
        ge = np.array([[0.5 * t * (1 + math.erf(t / math.sqrt(2))) for t in row] for row in a])
        x = x + ge @ w[p + "wf2"] + w[p + "bf2"]
    xf = ln(x, w["lnf.g"], w["lnf.b"])
    return xf @ w["embed"].T


def test_forward_matches_loop_oracle():
    config = B.BackboneConfig(embed_width=4, layers=1, heads=1, ffn_mult=2, max_seq=16)
    frozen = make_frozen(config, seed=11)
    rows = RNG.uniform(-1, 1, (6, 4))
    got = frozen.forward_rows(T.Tensor(rows)).data
    want = oracle_forward(config, {n: t.data for n, t in frozen._weights.items()}, rows)
    assert np.max(np.abs(got - want)) <= 1e-10
    assert got.shape == (6, B.VOCAB_SIZE)


def test_forward_matches_loop_oracle_two_layers_two_heads():
    frozen = make_frozen(TINY, seed=3)
    cfg2 = B.BackboneConfig(embed_width=16, layers=2, heads=2, ffn_mult=2, max_seq=48)
    frozen2 = make_frozen(cfg2, seed=3)
    rows = RNG.uniform(-1, 1, (5, 16))
    got = frozen2.forward_rows(T.Tensor(rows)).data
    want = oracle_forward(cfg2, {n: t.data for n, t in frozen2._weights.items()}, rows)
    assert np.max(np.abs(got - want)) <= 1e-10
    del frozen


def assert_future_permutation_leaves_prefix_logits(frozen):
    ids = B.tokenize("abcdefgh")
    rows1 = frozen.embed(ids)
    ids2 = ids[:5] + [ids[6], ids[5], ids[7]]  # permute two future tokens
    rows2 = frozen.embed(ids2)
    l1 = frozen.forward_rows(T.Tensor(rows1)).data
    l2 = frozen.forward_rows(T.Tensor(rows2)).data
    assert_array_equal(l1[:5], l2[:5])


def test_causality_future_permutation_leaves_prefix_logits_bit_identical():
    assert TINY.heads == 2
    assert_future_permutation_leaves_prefix_logits(make_frozen())


@pytest.mark.parametrize("heads", [1, 4])
def test_causality_holds_for_every_head_count(heads):
    config = B.BackboneConfig(embed_width=16, layers=2, heads=heads, ffn_mult=2,
                              max_seq=48)
    assert_future_permutation_leaves_prefix_logits(make_frozen(config))


def test_forward_rejects_overlong_and_wrong_width():
    frozen = make_frozen()
    with pytest.raises(LengthError):
        frozen.forward_rows(T.Tensor(np.zeros((TINY.max_seq + 1, 16)) + 0.1))
    with pytest.raises(Exception):
        frozen.forward_rows(T.Tensor(np.ones((4, 8))))


def test_gradient_flows_to_pseudo_prefix_but_not_frozen_weights():
    frozen = make_frozen()
    label_ids = [48, B.EOS]
    const = T.Tensor(frozen.embed(B.tokenize("hiq:") + label_ids))
    pseudo = T.Tensor(RNG.uniform(-0.5, 0.5, (3, 16)), requires_grad=True)
    with T.Tape() as tape:
        logits = frozen.forward_rows(T.concat_rows([pseudo, const]))
        # rows 6 and 7 predict the label ids at positions 7 and 8
        loss = T.rows_cross_entropy(T.slice_rows(logits, 6, 8), label_ids)
        tape.backward(loss)
    assert pseudo.grad is not None and np.any(pseudo.grad != 0)
    assert all(t.grad is None for t in frozen._weights.values())


# ---------------------------------------------------------------------------
# embedding and generation


def test_embed_single_id_equals_table_row():
    frozen = make_frozen()
    assert_array_equal(frozen.embed([65]), frozen._weights["embed"].data[[65]])


def test_generate_is_deterministic_and_respects_max_new():
    frozen = make_frozen()
    rows = frozen.embed(B.tokenize("hello ans:"))
    [a] = B.generate(frozen, T.Tensor(rows), [len(rows)], max_new=5)
    [b] = B.generate(frozen, T.Tensor(rows), [len(rows)], max_new=5)
    assert a == b
    # at most 5 byte ids were emitted, and replacement decoding never
    # yields more characters than bytes
    assert len(a) <= 5


# ---------------------------------------------------------------------------
# pretraining and freezing


def test_pretrain_zero_steps_keeps_seeded_init():
    frozen, losses = B.pretrain_backbone(["abc"], steps=0, seed=77, config=TINY)
    assert losses == []
    ref = B.init_weights(TINY, np.random.default_rng(77))
    for name, t in frozen._weights.items():
        assert_array_equal(t.data, ref[name].data)


@pytest.mark.parametrize("knobs", [dict(steps=-5), dict(lr=0.0), dict(lr=-1.0),
                                   dict(weight_decay=-0.1), dict(lr=math.inf), dict(lr=math.nan),
                                   dict(weight_decay=math.inf), dict(weight_decay=math.nan)])
def test_pretrain_rejects_knobs_that_cannot_train(knobs):
    """A negative step count, a learning rate <= 0, a negative weight decay or
    a non-finite rate or decay is a ConfigError, not an untrained,
    gradient-ascent or non-finite backbone."""
    with pytest.raises(ConfigError):
        B.pretrain_backbone(["abc"], **{"steps": 1, "seed": 77, "config": TINY, **knobs})


def test_pretrain_loss_halves_on_three_string_corpus():
    corpus = ["red light means stop", "green light means go", "blue light means wait"]
    frozen, losses = B.pretrain_backbone(corpus, steps=500, seed=13, config=TINY)
    first = sum(losses[:10]) / 10
    last = sum(losses[-10:]) / 10
    assert last < 0.5 * first, f"first {first:.3f} last {last:.3f}"
    frozen.verify()


def test_pretrain_is_deterministic():
    corpus = ["aaa bbb", "ccc ddd"]
    f1, l1 = B.pretrain_backbone(corpus, steps=40, seed=5, config=TINY)
    f2, l2 = B.pretrain_backbone(corpus, steps=40, seed=5, config=TINY)
    assert l1 == l2
    assert f1.checksum == f2.checksum


def test_pretrain_memorizes_constant_label():
    corpus = [t + " judge:+1.0" for t in
              ["the sky is wide", "rain came early", "we left at noon"]]
    frozen, _ = B.pretrain_backbone(corpus, steps=450, seed=21, config=TINY, lr=4e-3)
    rows = frozen.embed(B.tokenize("the sky is wide judge:"))
    assert B.generate(frozen, T.Tensor(rows), [len(rows)], max_new=6) == ["+1.0"]


def records_per_tape(monkeypatch, run) -> list[int]:
    """Tape lengths at each backward that run() makes, before it frees them."""
    lengths = []
    backward = T.Tape.backward

    def counted(tape, root):
        lengths.append(len(tape._records))
        backward(tape, root)

    monkeypatch.setattr(T.Tape, "backward", counted)
    run()
    monkeypatch.setattr(T.Tape, "backward", backward)
    return lengths


@pytest.mark.parametrize("pretraining", [False, True])
def test_each_backbone_layer_is_one_tape_record(monkeypatch, small_synth,
                                                small_adapter_config, pretraining):
    """A taped sample loss and a pretraining step each record one entry per
    backbone layer: a backbone two layers deeper fills a tape two records
    longer."""
    def run(layers):
        config = B.BackboneConfig(embed_width=32, layers=layers, heads=2, ffn_mult=2,
                                  max_seq=96)
        if pretraining:
            return lambda: B.pretrain_backbone(["one line of text"], steps=1, seed=3,
                                               config=config)
        frozen = make_frozen(config)
        rng = np.random.default_rng(0)
        params = AdapterParams.init(small_adapter_config, rng)
        state = make_variant_state("full", small_adapter_config, rng)
        p = prepare_samples(frozen, small_synth["train"][:1], small_synth.preset,
                            small_adapter_config.token_count, False)[0]

        def step():
            with T.Tape() as tape:
                tape.backward(sample_loss(frozen, params, p, state))
        return step

    (one,) = records_per_tape(monkeypatch, run(1))
    (three,) = records_per_tape(monkeypatch, run(3))
    assert three - one == 2


def test_frozen_weights_are_write_protected():
    frozen = make_frozen()
    with pytest.raises((ValueError, RuntimeError)):
        frozen._weights["embed"].data[0, 0] = 9.9


def test_verify_detects_forced_drift():
    frozen = make_frozen()
    frozen.verify()
    w = frozen._weights["lnf.g"].data
    w.setflags(write=True)
    w[0, 0] += 1.0
    with pytest.raises(FrozenViolation):
        frozen.verify()


@pytest.mark.parametrize("config", [TINY, B.BackboneConfig()], ids=["tiny", "default"])
def test_checksum_hashes_the_packed_config_and_tensors(config):
    frozen = make_frozen(config, seed=12)
    packed = pack_tensors([(n, t.data) for n, t in frozen._weights.items()])
    assert frozen.content_checksum() == checksum64(config.pack() + packed)
    assert frozen.checksum == frozen.content_checksum()


# drift as (bits a weight freezes with, bits it drifts to): one ulp, the sign
# of a zero, and a NaN's payload
DRIFTS = [(0x3FE0000000000000, 0x3FE0000000000001), (0, 1 << 63),
          (0x7FF8000000000001, 0x7FF8000000000002)]


@pytest.mark.parametrize("verified", [False, True], ids=["unverified", "verified"])
@pytest.mark.parametrize("name", list(B.weight_shapes(TINY)))
def test_verify_sees_every_bit_of_every_tensor(name, verified):
    """Drift in any tensor fails verify, whether the first call hashes it
    or a later call compares it with the pinned copy."""
    for frozen_bits, drifted_bits in DRIFTS:
        w = B.init_weights(TINY, np.random.default_rng(5))
        w[name].data.view(np.uint64)[0, 0] = frozen_bits
        frozen = B.FrozenBackbone(TINY, w)
        if verified:
            frozen.verify()
            frozen.verify()  # the pinned copy passes its own bits, NaN included
        data = frozen._weights[name].data
        data.setflags(write=True)
        data.view(np.uint64)[0, 0] = drifted_bits
        with pytest.raises(FrozenViolation):
            frozen.verify()


@pytest.mark.parametrize("verified", [False, True], ids=["unverified", "verified"])
@pytest.mark.parametrize("swap", ["values", "shape"])
def test_verify_sees_a_swapped_tensor(swap, verified):
    frozen = make_frozen()
    if verified:
        frozen.verify()
    old = frozen._weights["h0.wq"].data
    frozen._weights["h0.wq"] = T.Tensor(old + 1e-9 if swap == "values" else old[:-1])
    with pytest.raises(FrozenViolation):
        frozen.verify()


def test_verify_hashes_once_and_pins_only_when_called(monkeypatch):
    frozen = make_frozen()
    assert frozen._pinned is None
    hashes = []

    def counted(*parts):
        hashes.append(1)
        return checksum64(*parts)

    monkeypatch.setattr(B, "checksum64", counted)
    for _ in range(20):
        frozen.verify()
    assert len(hashes) == 1


def test_checkpoint_round_trip_bit_exact(tmp_path):
    frozen = make_frozen(seed=31)
    p1, p2 = tmp_path / "b1.mseb", tmp_path / "b2.mseb"
    frozen.save(p1)
    loaded = B.FrozenBackbone.load(p1)
    assert loaded.checksum == frozen.checksum
    assert loaded.config == frozen.config
    loaded.save(p2)
    assert p1.read_bytes() == p2.read_bytes()
    rows = RNG.uniform(-1, 1, (4, 16))
    assert_array_equal(loaded.forward_rows(T.Tensor(rows)).data,
                       frozen.forward_rows(T.Tensor(rows)).data)


def test_checkpoint_magic_and_corruption(tmp_path):
    frozen = make_frozen()
    p = tmp_path / "b.mseb"
    frozen.save(p)
    blob = bytearray(p.read_bytes())
    assert bytes(blob[:4]) == b"MSEB"
    blob[40] ^= 0x01
    p.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError):
        B.FrozenBackbone.load(p)


def test_checkpoint_load_rejects_wrong_tensor_shape(tmp_path):
    """A tensor cut short fails at load, naming itself and both shapes,
    instead of mid-forward."""
    from mmadapt.serialize import write_container
    frozen = make_frozen()
    tensors = [(n, t.data[:, :8] if n == "h0.wq" else t.data)
               for n, t in frozen._weights.items()]
    p = tmp_path / "cut.mseb"
    write_container(p, B.BACKBONE_MAGIC, TINY.pack(), tensors)
    with pytest.raises(CheckpointError, match=r"'h0\.wq' has shape \(16, 8\), "
                                              r"expected \(16, 16\)"):
        B.FrozenBackbone.load(p)


def test_checkpoint_load_rejects_duplicated_tensor(tmp_path):
    """A second record of a tensor is refused, not loaded with the last copy
    winning."""
    from mmadapt.serialize import write_container
    frozen = make_frozen()
    tensors = [(n, t.data) for n, t in frozen._weights.items()]
    tensors.append(("embed", np.zeros_like(frozen._weights["embed"].data)))
    p = tmp_path / "dup.mseb"
    write_container(p, B.BACKBONE_MAGIC, TINY.pack(), tensors)
    with pytest.raises(CheckpointError, match=r"'embed'"):
        B.FrozenBackbone.load(p)


def test_checkpoint_load_rejects_missing_and_reordered_tensors(tmp_path):
    from mmadapt.serialize import write_container
    tensors = [(n, t.data) for n, t in make_frozen()._weights.items()]
    p = tmp_path / "bad.mseb"
    write_container(p, B.BACKBONE_MAGIC, TINY.pack(), tensors[:-1])
    with pytest.raises(CheckpointError, match=r"record 19 is None, expected 'lnf\.b'"):
        B.FrozenBackbone.load(p)
    write_container(p, B.BACKBONE_MAGIC, TINY.pack(), [tensors[1], tensors[0]] + tensors[2:])
    with pytest.raises(CheckpointError, match=r"record 0 is 'pos', expected 'embed'"):
        B.FrozenBackbone.load(p)


def test_checkpoint_load_draws_no_random_numbers(tmp_path, monkeypatch):
    frozen = make_frozen()
    frozen.save(tmp_path / "b.mseb")

    def refuse(*args, **kwargs):
        raise AssertionError("a checkpoint load drew random numbers")

    monkeypatch.setattr(np.random, "default_rng", refuse)
    assert B.FrozenBackbone.load(tmp_path / "b.mseb").checksum == frozen.checksum


@pytest.mark.parametrize("config", [
    TINY, B.BackboneConfig(),
    B.BackboneConfig(embed_width=12, layers=3, heads=3, ffn_mult=3, max_seq=7)])
def test_init_weights_follow_the_shape_table(config):
    shapes = B.weight_shapes(config)
    weights = B.init_weights(config, np.random.default_rng(0))
    assert [(n, t.shape) for n, t in weights.items()] == list(shapes.items())


def test_block_weights_are_the_block_names_of_the_table():
    names = B.weight_shapes(B.BackboneConfig(layers=2))
    block = {n[len("h1."):] for n in names if n.startswith("h1.")}
    assert set(T.BLOCK_WEIGHTS) == block
    assert len(T.BLOCK_WEIGHTS) == len(block)


def test_pretrain_loss_starts_near_uniform():
    corpus = ["some text here judge:+1.0"]
    _, losses = B.pretrain_backbone(corpus, steps=3, seed=2, config=TINY)
    # untrained byte model: mean CE should be within a nat or so of ln(259)
    assert abs(losses[0] - math.log(B.VOCAB_SIZE)) < 1.5
