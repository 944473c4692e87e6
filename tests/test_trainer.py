"""Training loop: label loss, pretraining corpus, runs, and seed protocol."""

import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_array_equal

import mmadapt.trainer as trainer_mod
from mmadapt import backbone as B
from mmadapt import tensor as T
from mmadapt.adapter import AdapterConfig, AdapterParams, load_adapter, make_variant_state
from mmadapt.backbone import EOS, BackboneConfig, tokenize
from mmadapt.corpus import FeatureSample, SyntheticSpec, generate_synthetic
from mmadapt.errors import ConfigError, DimensionError, InputError, LengthError, NumericError
from mmadapt.metrics import format_label, score_predictions
from mmadapt.presets import get_preset, synthetic_preset
from mmadapt.trainer import (
    TrainConfig,
    aggregate_seed_metrics,
    batch_step,
    build_pretrain_corpus,
    evaluate_split,
    label_loss,
    multi_seed_run,
    padded_inputs,
    prepare_samples,
    sample_loss,
    train_run,
)

from oracles import batch_step_per_sample, cross_entropy_scalar, prepare_per_sample
from decoding import make_frozen, preset_samples


# ---------------------------------------------------------------------------
# label loss


def test_label_loss_matches_token_loop_oracle():
    rng = np.random.default_rng(0)
    for _ in range(20):
        rows = int(rng.integers(6, 14))
        vocab = int(rng.integers(5, 40))
        n = int(rng.integers(1, 5))
        first = int(rng.integers(1, rows - n + 1))
        logits = rng.standard_normal((rows, vocab))
        ids = [int(rng.integers(0, vocab)) for _ in range(n)]
        positions = list(range(first, first + n))
        # the label block at `positions`, and the row before it, as the window
        got = label_loss(T.Tensor(logits[first - 1:first + n]), [ids]).item()
        want = sum(cross_entropy_scalar(list(logits[p - 1]), i)
                   for p, i in zip(positions, ids))
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


def test_label_loss_uniform_five_tokens():
    logits = T.Tensor(np.zeros((6, 259)))
    loss = label_loss(logits, [[1, 2, 3, 4, EOS]])
    assert loss.item() == pytest.approx(5 * math.log(259), rel=1e-12)


def test_label_loss_certain_prediction_is_zero():
    logits = np.zeros((3, 10))
    ids = [3, 7]
    logits[0, 3] = 1000.0
    logits[1, 7] = 1000.0
    loss = label_loss(T.Tensor(logits), [ids])
    assert loss.item() == pytest.approx(0.0, abs=1e-12)


def test_label_loss_gradient_reaches_logits():
    logits = T.Tensor(np.random.default_rng(1).standard_normal((3, 9)),
                      requires_grad=True)
    with T.Tape() as tape:
        loss = label_loss(logits, [[2, 5]])
        tape.backward(loss)
    grad = logits.grad
    assert grad is not None
    # the two predicting rows receive gradient; the last window row, the
    # final label token's own position, predicts nothing
    assert np.any(grad[0] != 0.0) and np.any(grad[1] != 0.0)
    assert np.all(grad[2] == 0.0)


def test_label_loss_validation():
    with pytest.raises(InputError):
        label_loss(T.Tensor(np.zeros((1, 9))), [[]])


@pytest.mark.parametrize("rows", [1, 2, 4, 6])
def test_label_loss_rejects_a_window_of_the_wrong_length(rows):
    with pytest.raises(InputError, match="needs 3 logits rows"):
        label_loss(T.Tensor(np.zeros((rows, 9))), [[1, 2]])


# ---------------------------------------------------------------------------
# config validation


def test_train_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(learning_rate=0.0)
    with pytest.raises(ConfigError):
        TrainConfig(warmup_fraction=1.0)
    with pytest.raises(ConfigError):
        TrainConfig(epochs=-1)
    with pytest.raises(ConfigError):
        TrainConfig(batch_size=0)
    with pytest.raises(ConfigError):
        TrainConfig(train_fraction=0.0)
    with pytest.raises(ConfigError):
        TrainConfig(variant="bogus")
    with pytest.raises(ConfigError):
        TrainConfig(seeds=())
    with pytest.raises(ConfigError, match="weight decay"):
        TrainConfig(weight_decay=-0.1)
    for value in (math.nan, math.inf):
        with pytest.raises(ConfigError, match="learning rate"):
            TrainConfig(learning_rate=value)
    for value in (math.nan, math.inf):
        with pytest.raises(ConfigError, match="clip norm"):
            TrainConfig(clip_norm=value)
        with pytest.raises(ConfigError, match="weight decay"):
            TrainConfig(weight_decay=value)


# ---------------------------------------------------------------------------
# pretraining corpus


def test_pretrain_corpus_geometry(small_synth):
    preset = small_synth.preset
    lines = build_pretrain_corpus(small_synth, preset, n_prefix=3)
    assert lines == sorted(set(lines), key=lines.index)
    bodies = set()
    for line in lines:
        assert len(line) > 3
        bodies.add(line[3:])
    # every body appears with both an informative and a neutral prefix
    assert len(lines) == 2 * len(bodies)
    for body in bodies:
        label = body[-1]
        assert label * 3 + body in lines
        assert "   " + body in lines


def test_pretrain_corpus_bodies_follow_samples(small_synth):
    preset = small_synth.preset
    lines = build_pretrain_corpus(small_synth, preset, n_prefix=2)
    sample = small_synth["train"][0]
    label = format_label("emotion", sample.label, class_count=3)
    body = sample.text + preset.prompt + label
    assert label * 2 + body in lines
    assert "  " + body in lines


def test_pretrain_corpus_zero_prefix(small_synth):
    lines = build_pretrain_corpus(small_synth, small_synth.preset, n_prefix=0)
    # hinted and neutral collapse to the same line at zero prefix
    assert len(lines) == len(set(lines))
    for line in lines:
        assert not line.startswith(" ")


# ---------------------------------------------------------------------------
# prepared samples


def test_prepare_samples_shapes(small_synth, small_backbone,
                                small_adapter_config):
    preset = small_synth.preset
    prepared = prepare_samples(small_backbone, small_synth["valid"], preset,
                               n_prefix=2, drops_text=False)
    assert len(prepared) == 9
    p = prepared[0]
    assert p.n_prefix == 2
    assert p.label_ids[-1] == EOS
    assert len(p.label_ids) == 2  # one numeral + end marker
    assert p.text_rows.shape == (len(tokenize(small_synth["valid"][0].text)),
                                 small_backbone.config.embed_width)


def test_prepared_layout_boundaries(small_backbone):
    preset = replace(get_preset("mosei"), prompt="promp")
    sample = FeatureSample("s", "sevench", -1.5, np.ones((2, 3)), np.ones((2, 3)), "test")
    p, = prepare_samples(small_backbone, [sample], preset, n_prefix=4, drops_text=False)
    label = tokenize("-1.5") + [EOS]
    assert p.label_ids == label
    assert_array_equal(p.const_rows, small_backbone.embed(tokenize("sevenchpromp") + label))
    assert_array_equal(p.text_rows, p.const_rows[:7])
    pseudo = T.Tensor(np.full((4, small_backbone.config.embed_width), 0.5))
    train, [length] = padded_inputs([p], pseudo)
    assert train.shape[0] == length == 4 + 7 + 5 + 5
    assert_array_equal(train.data[:4], pseudo.data)
    assert_array_equal(train.data[4:], p.const_rows)


BUDGET_PRESETS = {
    **{name: get_preset(name) for name in ("mosei", "sims_v2", "meld", "cherma")},
    "synthetic": synthetic_preset(3, 8, 8),
    "score-10": replace(get_preset("mosei"), score_range=(-10.0, 10.0)),
}


@pytest.mark.parametrize("name", list(BUDGET_PRESETS))
def test_eval_token_budget_is_the_longest_label_plus_eos(name):
    """Over every valid label (each class, or a 0.01 grid of the score
    range), the longest canonical label plus the end marker is the budget.
    A (-10, 10) range needs 6: "+10.0" and EOS."""
    preset = BUDGET_PRESETS[name]
    if preset.task == "score":
        lo, hi = preset.score_range
        values = np.linspace(lo, hi, int(round(100 * (hi - lo))) + 1)
    else:
        values = range(preset.class_count)
    longest = max(len(trainer_mod.label_token_ids(preset, float(v))) for v in values)
    assert trainer_mod.eval_token_budget(preset) == longest
    assert longest == {"mosei": 5, "sims_v2": 5, "score-10": 6}.get(name, 2)


def test_prepare_samples_drops_text(small_synth, small_backbone):
    preset = small_synth.preset
    samples = small_synth["valid"][:2]
    prepared = prepare_samples(small_backbone, samples, preset, n_prefix=2, drops_text=True)
    for s, p in zip(samples, prepared):
        # the backbone input holds only the prompt and label rows
        assert_array_equal(p.const_rows, small_backbone.embed(
            tokenize(preset.prompt) + p.label_ids))
        # the adapter-side text rows are still available for reuse elsewhere
        assert_array_equal(p.text_rows, small_backbone.embed(tokenize(s.text)))
        assert p.text_rows.shape[0] > 0


def test_prepare_samples_rejects_overflow(small_synth, small_backbone):
    sample = replace(small_synth["valid"][0], text="x" * small_backbone.config.max_seq)
    with pytest.raises(LengthError, match="exceeds max"):
        prepare_samples(small_backbone, [sample], small_synth.preset, n_prefix=2,
                        drops_text=False)
    # without the text the same sample fits
    prepare_samples(small_backbone, [sample], small_synth.preset, n_prefix=2, drops_text=True)


def rows_or_refusal(prepare):
    """Each sample's text rows and constant rows as (shape, dtype, bytes)
    and its label ids, from `prepare()`, or the message of the LengthError
    it raised."""
    try:
        out = prepare()
    except LengthError as exc:
        return str(exc)
    bits = lambda a: (a.shape, a.dtype.str, a.tobytes())
    return [(bits(text), bits(const), ids) for text, const, ids in out]


@pytest.mark.parametrize("drops_text", [False, True])
@pytest.mark.parametrize("name", ["mosei", "sims_v2", "meld", "cherma", "synthetic"])
def test_prepare_samples_matches_the_per_sample_oracle(small_synth, name, drops_text):
    """The text rows, constant rows and label ids of every sample, over more
    samples than one embedding gather takes, are bit-equal to two embedding
    lookups per sample, and each keeps its own sample's id, label and
    features; the first sample over max_seq raises the oracle's LengthError,
    even from a later gather block; no samples give []."""
    block = trainer_mod.BLOCK
    frozen = make_frozen(BackboneConfig(embed_width=16, layers=1, heads=2, ffn_mult=2,
                                        max_seq=256))
    if name == "synthetic":
        preset = small_synth.preset
        samples = [*small_synth["train"], *small_synth["valid"], *small_synth["test"]] * 2
    else:
        preset, samples = preset_samples(name, 2 * block + 5, np.random.default_rng(len(name)))
    assert len(samples) > block + 1
    long_text = [*samples]
    for i in (block + 1, len(samples) - 1):
        long_text[i] = replace(samples[i], text="x" * 256)
    n = preset.adapter_defaults.token_count
    for batch, n_prefix, refused in ((samples, n, None), (long_text, n, block + 1),
                                     (samples, 256, 0), ([], n, None)):
        got = rows_or_refusal(lambda: [
            (p.text_rows, p.const_rows, p.label_ids)
            for p in prepare_samples(frozen, batch, preset, n_prefix, drops_text)])
        assert got == rows_or_refusal(
            lambda: prepare_per_sample(frozen, batch, preset, n_prefix, drops_text))
        if refused is not None and not (drops_text and batch is long_text):
            assert got.startswith(f"sample {batch[refused].sid!r}: input length"), got
        else:
            assert len(got) == len(batch)
    prepared = prepare_samples(frozen, samples, preset, n, drops_text)
    assert all(p.sid == s.sid and p.gold == s.label and p.audio is s.audio
               and p.vision is s.vision and p.n_prefix == n for p, s in zip(prepared, samples))


def test_padded_inputs_lays_out_pads_and_counts_each_sample():
    """Each sample's pseudo rows, then its constant rows, then exactly zero
    rows up to the longest; without labels the same minus the label block."""
    rng = np.random.default_rng(4)
    frozen = make_frozen(BackboneConfig(embed_width=16, layers=1, heads=2, ffn_mult=2,
                                        max_seq=256))
    preset, samples = preset_samples("meld", 5, rng)
    prepared = prepare_samples(frozen, samples, preset, n_prefix=2, drops_text=False)
    assert len({p.length for p in prepared}) > 1
    width = frozen.config.embed_width
    pseudo = T.Tensor(np.random.default_rng(0).uniform(0.5, 1.0, (10, width)))
    for labels in (True, False):
        rows, lengths = padded_inputs(prepared, pseudo, labels=labels)
        l = max(lengths)
        assert rows.shape == (5 * l, width)
        for b, p in enumerate(prepared):
            own = p.const_rows.shape[0] - (0 if labels else len(p.label_ids))
            assert lengths[b] == 2 + own
            sample = rows.data[b * l:(b + 1) * l]
            assert_array_equal(sample[:2], pseudo.data[2 * b:2 * b + 2])
            assert_array_equal(sample[2:lengths[b]], p.const_rows[:own])
            assert np.all(sample[lengths[b]:] == 0.0)
    # the labelled layout, each sample cut to its rows, is the one without
    # labels plus the label block
    with_labels, long = padded_inputs(prepared, pseudo)
    without, short = padded_inputs(prepared, pseudo, labels=False)
    for b, p in enumerate(prepared):
        assert long[b] == short[b] + len(p.label_ids)
        assert_array_equal(with_labels.data[b * max(long):][:short[b]],
                           without.data[b * max(short):][:short[b]])


def test_padded_inputs_checks_the_pseudo_rows(small_synth, small_backbone):
    prepared = prepare_samples(small_backbone, small_synth["valid"][:2], small_synth.preset,
                               n_prefix=2, drops_text=False)
    width = small_backbone.config.embed_width
    for bad in (1, 3, 5):
        for labels in (True, False):
            with pytest.raises(DimensionError):
                padded_inputs(prepared, T.Tensor(np.full((bad, width), 0.1)), labels=labels)


def test_sample_loss_gradient_reaches_all_params(small_synth, small_backbone,
                                                 small_adapter_config):
    rng = np.random.default_rng(3)
    params = AdapterParams.init(small_adapter_config, rng)
    state = make_variant_state("full", small_adapter_config, rng)
    prepared = prepare_samples(small_backbone, small_synth["train"][:1],
                               small_synth.preset, n_prefix=2, drops_text=False)
    with T.Tape() as tape:
        loss = sample_loss(small_backbone, params, prepared[0], state)
        tape.backward(loss)
    for name, tensor in params.named():
        assert tensor.grad is not None, name
        assert np.any(tensor.grad != 0.0), name


def test_batch_step_gradients_equal_the_sum_over_per_sample_tapes(
        small_synth, small_backbone, small_adapter_config):
    rng = np.random.default_rng(4)
    params = AdapterParams.init(small_adapter_config, rng)
    state = make_variant_state("full", small_adapter_config, rng)
    batch = prepare_samples(small_backbone, small_synth["train"][:5],
                            small_synth.preset, n_prefix=2, drops_text=False)
    assert len({p.audio.shape[0] for p in batch}) > 1  # the lengths differ
    losses = batch_step(small_backbone, params, batch, state)
    got = {name: tensor.grad.copy() for name, tensor in params.named()}
    params.zero_grads()
    want = []
    for p in batch:
        with T.Tape() as tape:
            loss = sample_loss(small_backbone, params, p, state)
            tape.backward(T.scale(loss, 1.0 / len(batch)))
        want.append(loss.item())
    assert np.max(np.abs(np.subtract(losses, want))) <= 1e-12 * max(want)
    for name, tensor in params.named():
        scale = max(1.0, float(np.max(np.abs(tensor.grad))))
        assert np.max(np.abs(got[name] - tensor.grad)) <= 1e-12 * scale, name


def ragged_labels(backbone, batch):
    """The batch with label blocks of 2 to 6 ids, since a preset's canonical
    labels all have one length."""
    out = []
    for i, p in enumerate(batch):
        ids = tokenize("+1.25"[:1 + i % 5]) + [EOS]
        body = p.const_rows[:p.const_rows.shape[0] - len(p.label_ids)]
        out.append(replace(p, const_rows=np.concatenate([body, backbone.embed(ids)]),
                           label_ids=ids))
    return out


def check_batch_step_against_the_oracle(preset_name, variant, size):
    rng = np.random.default_rng(size)
    frozen = make_frozen(BackboneConfig(embed_width=32, layers=2, heads=2, ffn_mult=2,
                                        max_seq=256), seed=size)
    preset, samples = preset_samples(preset_name, size, rng)
    acfg = AdapterConfig(audio_width=preset.audio_width, vision_width=preset.vision_width,
                         audio_hidden=8, vision_hidden=8, mix_width=32,
                         token_count=preset.adapter_defaults.token_count, embed_width=32)
    params = AdapterParams.init(acfg, rng)
    state = make_variant_state(variant, acfg, rng)
    batch = prepare_samples(frozen, samples, preset, acfg.token_count, state.drops_text_input)
    if preset.task == "score":
        batch = ragged_labels(frozen, batch)
    if size > 1 and not state.drops_text_input:
        assert len({p.length for p in batch}) > 1
    losses = batch_step(frozen, params, batch, state)
    got = {name: t.grad for name, t in params.named()}
    params.zero_grads()
    want = batch_step_per_sample(frozen, params, batch, state)
    assert np.max(np.abs(np.subtract(losses, want))) <= 1e-12 * max(want)
    for name, t in params.named():
        assert (got[name] is None) == (t.grad is None), name
        if t.grad is not None:
            assert np.max(np.abs(got[name] - t.grad)) <= 1e-12 * np.max(np.abs(t.grad)), name


@pytest.mark.parametrize("size", [1, 7, 8, 13, 32])
@pytest.mark.parametrize("variant", ["full", "no_text", "no_audio_vision"])
@pytest.mark.parametrize("preset_name", ["mosei", "meld"])
def test_batch_step_matches_the_per_sample_oracle(preset_name, variant, size):
    """Each sample's loss and every adapter gradient of the padded sub-batch
    step equal those of one backbone tape per sample to 1e-12, relative to
    the largest entry, over ragged text lengths, ragged label lengths (the
    score preset's labels are made ragged), whole and short sub-batches."""
    check_batch_step_against_the_oracle(preset_name, variant, size)


@pytest.mark.parametrize("preset_name", ["mosei", "meld"])
def test_batch_step_under_a_small_row_budget_matches_the_oracle(monkeypatch, preset_name):
    """A row budget that cuts the batch into pairs and single samples (mosei's
    inputs of 55-73 rows) or into single samples (meld's of 89-109) changes
    no loss or gradient."""
    monkeypatch.setattr(B, "TRAIN_ROWS", 150)
    check_batch_step_against_the_oracle(preset_name, "full", 13)


def test_sub_batches_cut_the_batch_in_order_of_length():
    def cut(lengths):
        return B.sub_batches(lengths, B.TRAIN_BLOCK, B.TRAIN_ROWS)

    # 8 samples at most, each sub-batch in order of length
    assert cut([40, 10, 30, 20, 40, 10, 30, 20, 45, 5]) == [[9, 1, 5, 3, 7, 2, 6, 0], [4, 8]]
    # at most TRAIN_ROWS rows once padded; a longer sample goes alone
    assert cut([100, 300, 50, 200, 400, 90]) == [[2, 5, 0], [3], [1], [4]]
    assert cut([48] * 9) == [list(range(8)), [8]]
    # decoding: equal lengths keep their order, 16 samples at a time
    assert B.sub_batches([42] * 50, B.DECODE_BLOCK, math.inf) == [
        list(range(0, 16)), list(range(16, 32)), list(range(32, 48)), [48, 49]]


@settings(max_examples=300, derandomize=True, deadline=None)
@given(lengths=st.lists(st.integers(1, 60), max_size=40), samples=st.integers(1, 10),
       rows=st.one_of(st.integers(1, 300), st.just(math.inf)))
def test_sub_batches_partition_the_batch_in_length_order_under_both_caps(lengths, samples,
                                                                         rows):
    subs = B.sub_batches(lengths, samples, rows)
    assert sorted(i for sub in subs for i in sub) == list(range(len(lengths)))
    # taken in order, the sub-batches are the indices stably sorted by length
    flat = [i for sub in subs for i in sub]
    assert flat == sorted(range(len(lengths)), key=lambda i: lengths[i])
    for sub in subs:
        assert all((lengths[a], a) < (lengths[b], b) for a, b in zip(sub, sub[1:]))
        assert 1 <= len(sub) <= samples
        assert len(sub) == 1 or len(sub) * lengths[sub[-1]] <= rows
    # each cut is forced: the next sample would break a cap
    for sub, nxt in zip(subs, subs[1:]):
        assert len(sub) == samples or (len(sub) + 1) * lengths[nxt[0]] > rows


# ---------------------------------------------------------------------------
# training runs


def _tiny_config(**kw):
    defaults = dict(learning_rate=5e-3, epochs=1, batch_size=8,
                    warmup_fraction=0.1, seeds=(5,))
    defaults.update(kw)
    return TrainConfig(**defaults)


def test_zero_epoch_run_saves_initial_params(tmp_path, small_synth,
                                             small_backbone,
                                             small_adapter_config):
    config = _tiny_config(epochs=0)
    result = train_run(small_backbone, small_synth, small_adapter_config,
                       config, seed=5, out_dir=tmp_path)
    rng = np.random.default_rng(5)
    expected = AdapterParams.init(small_adapter_config, rng)
    for (name, got), (_, want) in zip(result.params.named(), expected.named()):
        assert np.array_equal(got.data, want.data), name
    assert result.best_epoch is None
    assert result.best_valid is None
    assert result.checkpoint_path is not None and result.checkpoint_path.exists()


def test_train_run_deterministic_checkpoints(tmp_path, small_synth,
                                             small_backbone,
                                             small_adapter_config):
    config = _tiny_config(epochs=1)
    a = train_run(small_backbone, small_synth, small_adapter_config, config,
                  seed=5, out_dir=tmp_path / "a")
    b = train_run(small_backbone, small_synth, small_adapter_config, config,
                  seed=5, out_dir=tmp_path / "b")
    assert a.checkpoint_path.read_bytes() == b.checkpoint_path.read_bytes()
    assert a.step_losses == b.step_losses
    log = "train-full-seed5.jsonl"
    assert (tmp_path / "a" / log).read_bytes() == (tmp_path / "b" / log).read_bytes()
    steps = [json.loads(line) for line in (tmp_path / "a" / log).read_text().splitlines()
             if '"step"' in line]
    assert steps and all(math.isfinite(r["grad_norm"]) for r in steps)


def test_train_run_keeps_backbone_frozen(tmp_path, small_synth, small_backbone,
                                         small_adapter_config):
    before = small_backbone.content_checksum()
    train_run(small_backbone, small_synth, small_adapter_config,
              _tiny_config(epochs=1), seed=6, out_dir=tmp_path)
    assert small_backbone.content_checksum() == before
    small_backbone.verify()


def test_train_run_writes_step_log(tmp_path, small_synth, small_backbone,
                                   small_adapter_config):
    config = _tiny_config(epochs=2, batch_size=8)
    result = train_run(small_backbone, small_synth, small_adapter_config,
                       config, seed=5, out_dir=tmp_path)
    log_path = tmp_path / "train-full-seed5.jsonl"
    records = [json.loads(line) for line in log_path.read_text().splitlines()]
    steps = [r for r in records if "step" in r]
    epochs = [r for r in records if "epoch" in r]
    assert len(steps) == 2 * math.ceil(24 / 8)
    assert len(epochs) == 2
    assert all(r["lr"] >= 0 for r in steps)
    assert all(math.isfinite(r["grad_norm"]) and r["grad_norm"] > 0 for r in steps)
    assert [r["step"] for r in steps] == list(range(len(steps)))
    assert result.best_epoch in (1, 2)


def test_train_run_checkpoint_reloads(tmp_path, small_synth, small_backbone,
                                      small_adapter_config):
    result = train_run(small_backbone, small_synth, small_adapter_config,
                       _tiny_config(epochs=1), seed=9, out_dir=tmp_path)
    params, state, checksum = load_adapter(result.checkpoint_path)
    assert checksum == small_backbone.checksum
    assert state.variant == "full"
    for (name, got), (_, want) in zip(params.named(), result.params.named()):
        assert np.array_equal(got.data, want.data), name


def test_train_run_loss_decreases(small_synth, small_backbone,
                                  small_adapter_config):
    config = _tiny_config(epochs=6, batch_size=4, learning_rate=8e-3)
    result = train_run(small_backbone, small_synth, small_adapter_config,
                       config, seed=5)
    losses = result.step_losses
    assert len(losses) >= 20
    start = float(np.mean(losses[:10]))
    end = float(np.mean(losses[-10:]))
    assert end < start


def test_train_run_subsampling_shrinks_epoch(small_synth, small_backbone,
                                             small_adapter_config):
    full = train_run(small_backbone, small_synth, small_adapter_config,
                     _tiny_config(epochs=1, batch_size=4), seed=5)
    half = train_run(small_backbone, small_synth, small_adapter_config,
                     _tiny_config(epochs=1, batch_size=4, train_fraction=0.5),
                     seed=5)
    assert len(full.step_losses) == math.ceil(24 / 4)
    assert len(half.step_losses) == math.ceil(12 / 4)


def test_train_run_variant_checkpoint_round_trip(tmp_path, small_synth,
                                                 small_backbone,
                                                 small_adapter_config):
    config = _tiny_config(epochs=1, variant="no_audio_vision")
    result = train_run(small_backbone, small_synth, small_adapter_config,
                       config, seed=4, out_dir=tmp_path)
    params, state, _ = load_adapter(result.checkpoint_path)
    assert state.variant == "no_audio_vision"
    assert np.array_equal(state.subst_audio, result.state.subst_audio)
    assert np.array_equal(state.subst_vision, result.state.subst_vision)


# ---------------------------------------------------------------------------
# evaluation


def test_evaluate_split_counts(small_synth, small_backbone,
                               small_adapter_config):
    rng = np.random.default_rng(3)
    params = AdapterParams.init(small_adapter_config, rng)
    state = make_variant_state("full", small_adapter_config, rng)
    prepared = prepare_samples(small_backbone, small_synth["test"],
                               small_synth.preset, n_prefix=2,
                               drops_text=False)
    report = evaluate_split(small_backbone, params, state, prepared,
                            small_synth.preset)
    assert report.count == 12
    assert report.family == "emotion"
    assert 0.0 <= report.values["acc"] <= 1.0
    assert 0 <= report.fallback_count <= 12


def test_evaluate_split_deterministic(small_synth, small_backbone,
                                      small_adapter_config):
    rng = np.random.default_rng(3)
    params = AdapterParams.init(small_adapter_config, rng)
    state = make_variant_state("full", small_adapter_config, rng)
    prepared = prepare_samples(small_backbone, small_synth["test"][:5],
                               small_synth.preset, n_prefix=2,
                               drops_text=False)
    a = evaluate_split(small_backbone, params, state, prepared,
                       small_synth.preset)
    b = evaluate_split(small_backbone, params, state, prepared,
                       small_synth.preset)
    assert a.values == b.values


def test_evaluate_split_ignores_batch_composition(monkeypatch, tmp_path, small_backbone,
                                                  small_adapter_config):
    """The adapter runs on blocks of BLOCK samples, so a sample shares
    its block with different samples when a split is evaluated whole or in
    50-sample chunks. A batched column may differ in the last bit between the
    two, but the generated text and the metrics must not."""
    ds = generate_synthetic(SyntheticSpec(train=2, valid=2, test=150, seed=77), tmp_path)
    rng = np.random.default_rng(3)
    params = AdapterParams.init(small_adapter_config, rng)
    state = make_variant_state("full", small_adapter_config, rng)
    prepared = prepare_samples(small_backbone, ds["test"], ds.preset, n_prefix=2,
                               drops_text=False)
    assert len(prepared) > 2 * trainer_mod.BLOCK
    parse = trainer_mod.parse_generated
    seen = []

    def record(task, text, **kwargs):
        value, fallback = parse(task, text, **kwargs)
        seen.append((text, value, fallback))
        return value, fallback

    monkeypatch.setattr(trainer_mod, "parse_generated", record)
    whole = evaluate_split(small_backbone, params, state, prepared, ds.preset)
    first = list(seen)
    seen.clear()
    preset = ds.preset
    for start in range(0, len(prepared), 50):
        part = evaluate_split(small_backbone, params, state, prepared[start:start + 50], preset)
        rows = first[start:start + 50]
        want = score_predictions(preset.metric_family, [v for _, v, _ in rows],
                                 [p.gold for p in prepared[start:start + 50]],
                                 fallback_count=sum(f for *_, f in rows),
                                 class_count=preset.class_count)
        assert part.values == want.values
    assert seen == first
    assert len({text for text, *_ in first}) > 1
    assert whole.count == len(prepared)


def test_evaluate_split_rejects_empty(small_synth, small_backbone,
                                      small_adapter_config):
    rng = np.random.default_rng(3)
    params = AdapterParams.init(small_adapter_config, rng)
    state = make_variant_state("full", small_adapter_config, rng)
    with pytest.raises(InputError):
        evaluate_split(small_backbone, params, state, [], small_synth.preset)


# ---------------------------------------------------------------------------
# multi-seed protocol


def test_aggregate_mean_is_plain_average():
    rows = [{"acc": 0.8, "wf1": 0.7}, {"acc": 0.6, "wf1": 0.9},
            {"acc": 0.7, "wf1": 0.8}]
    mean, std = aggregate_seed_metrics(rows)
    assert mean["acc"] == (0.8 + 0.6 + 0.7) / 3
    assert mean["wf1"] == (0.7 + 0.9 + 0.8) / 3
    expected_std = math.sqrt(((0.8 - 0.7) ** 2 + (0.6 - 0.7) ** 2 + 0.0) / 3)
    assert std["acc"] == pytest.approx(expected_std, abs=1e-15)


def test_aggregate_identical_rows_zero_std():
    rows = [{"acc": 0.75}] * 5
    mean, std = aggregate_seed_metrics(rows)
    assert mean["acc"] == 0.75
    assert std["acc"] == 0.0


def test_aggregate_none_propagates():
    rows = [{"corr": 0.5}, {"corr": None}]
    mean, std = aggregate_seed_metrics(rows)
    assert mean["corr"] is None and std["corr"] is None


def test_multi_seed_run_two_seeds(tmp_path, small_synth, small_backbone,
                                  small_adapter_config):
    config = _tiny_config(epochs=1, seeds=(5, 6))
    report = multi_seed_run(small_backbone, small_synth, small_adapter_config,
                            config, out_dir=tmp_path)
    assert len(report.per_seed) == 2
    accs = [r["metrics"]["acc"] for r in report.per_seed]
    assert report.mean["acc"] == sum(accs) / 2
    assert (tmp_path / "report-full.json").exists()
    saved = json.loads((tmp_path / "report-full.json").read_text())
    assert saved["mean"]["acc"] == report.mean["acc"]


def test_multi_seed_single_seed_mean_equals_row(small_synth, small_backbone,
                                                small_adapter_config):
    config = _tiny_config(epochs=1, seeds=(5,))
    report = multi_seed_run(small_backbone, small_synth, small_adapter_config,
                            config)
    assert report.mean == report.per_seed[0]["metrics"]


def in_process(tasks):
    """A `usable_workers` that keeps every cell in this process, where a
    monkeypatched function reaches it."""
    return 1


def test_multi_seed_run_prepares_the_eval_split_once(monkeypatch, small_synth, small_backbone,
                                                    small_adapter_config):
    real = trainer_mod.prepare_samples
    splits = []

    def counting(backbone, samples, *args):
        splits.append(samples)
        return real(backbone, samples, *args)

    monkeypatch.setattr(trainer_mod, "prepare_samples", counting)
    monkeypatch.setattr(trainer_mod, "usable_workers", in_process)
    multi_seed_run(small_backbone, small_synth, small_adapter_config,
                   _tiny_config(seeds=(5, 6), variant="no_text"))
    assert sum(s is small_synth["test"] for s in splits) == 1


def test_multi_seed_marks_failed_seed(monkeypatch, small_synth, small_backbone,
                                      small_adapter_config):
    real = trainer_mod.train_run

    def flaky(backbone, dataset, adapter_config, config, seed, out_dir=None):
        if seed == 6:
            raise NumericError("gradient for mix.audio_proj is not finite")
        return real(backbone, dataset, adapter_config, config, seed, out_dir)

    monkeypatch.setattr(trainer_mod, "train_run", flaky)
    monkeypatch.setattr(trainer_mod, "usable_workers", in_process)
    config = _tiny_config(epochs=1, seeds=(5, 6))
    report = multi_seed_run(small_backbone, small_synth, small_adapter_config,
                            config)
    assert len(report.per_seed) == 1
    assert len(report.failed_seeds) == 1
    assert report.failed_seeds[0]["seed"] == 6
    assert "NumericError" in report.failed_seeds[0]["error"]


def test_multi_seed_all_failed_raises(monkeypatch, small_synth, small_backbone,
                                      small_adapter_config):
    def broken(*args, **kwargs):
        raise NumericError("boom")

    monkeypatch.setattr(trainer_mod, "train_run", broken)
    monkeypatch.setattr(trainer_mod, "usable_workers", in_process)
    with pytest.raises(InputError, match="every seed failed"):
        multi_seed_run(small_backbone, small_synth, small_adapter_config,
                       _tiny_config(seeds=(5, 6)))
