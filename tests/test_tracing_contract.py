"""The benchmark's tracer wraps public names of the package by name, so
removing or renaming one of them breaks `perfbench/run.py --trace 1`, and a
call path that stops going through one of them silently reports 0 ms for it."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from mmadapt import backbone, tensor, trainer
from mmadapt.adapter import AdapterParams, make_variant_state

ADAPTER_SPANS = ("adapter.build_pseudo_tokens", "adapter.lstm_final_state",
                 "adapter.text_guided_mix", "adapter.fuse_scales", "adapter.expand_tokens")

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.Tracer()


def test_tracer_installs_and_uninstalls_over_the_package(tracer):
    originals = (trainer.prepare_samples, tensor.gelu, tensor.Tape.backward)
    tracer.install()
    try:
        assert trainer.prepare_samples is not originals[0]
        assert tensor.gelu is not originals[1]
    finally:
        tracer.uninstall()
    assert (trainer.prepare_samples, tensor.gelu, tensor.Tape.backward) == originals


def test_training_and_eval_calls_pass_through_the_spanned_names(
        tracer, small_synth, small_backbone, small_adapter_config):
    rng = np.random.default_rng(0)
    params = AdapterParams.init(small_adapter_config, rng)
    state = make_variant_state("full", small_adapter_config, rng)
    tracer.install()
    try:
        prepared = trainer.prepare_samples(small_backbone, small_synth["test"][:2],
                                           small_synth.preset,
                                           small_adapter_config.token_count, False)
        with tensor.Tape() as tape:
            tape.backward(trainer.sample_loss(small_backbone, params, prepared[0], state))
        trainer.evaluate_split(small_backbone, params, state, prepared, small_synth.preset)
    finally:
        tracer.uninstall()
    # one training sample plus two evaluated ones, whose pseudo tokens come
    # from one adapter call and which decode as one batch
    assert tracer.count("trainer.sample_loss") == 1
    assert tracer.count("trainer.label_loss") == 1
    assert tracer.count("backbone.generate") == 1
    assert tracer.count("adapter.build_pseudo_tokens") == 2
    assert tracer.count("backbone.forward_rows") == 1  # decoding runs inside generate
    assert tracer.count("tensor.backward") == 1
    assert tracer.rows_in > 0


def _evaluating(tracer) -> dict[str, int]:
    """Span name -> how many of its spans ran inside evaluate_split."""
    spans = {sid: (name, parent) for sid, name, _, _, parent, _ in tracer.spans}
    inside: dict[str, int] = {}
    for name, parent in spans.values():
        while parent is not None and spans[parent][0] != "trainer.evaluate_split":
            parent = spans[parent][1]
        inside[name] = inside.get(name, 0) + (parent is not None)
    return inside


def test_real_training_and_evaluation_run_under_the_tracer(
        tracer, small_synth, small_backbone, small_adapter_config):
    """A batched training step seeds the adapter tape's backward by keyword,
    which the tracer's positional (tape, root) hook must let through."""
    config = trainer.TrainConfig(epochs=1, batch_size=12, seeds=(0,))
    tracer.install()
    try:
        run = trainer.train_run(small_backbone, small_synth, small_adapter_config, config, 0)
        prepared = trainer.prepare_samples(small_backbone, small_synth["test"],
                                           small_synth.preset,
                                           small_adapter_config.token_count, False)
        trainer.evaluate_split(small_backbone, run.params, run.state, prepared,
                               small_synth.preset)
    finally:
        tracer.uninstall()
    assert len(run.step_losses) == 2  # 24 train samples in batches of 12
    inside = _evaluating(tracer)
    # every adapter stage runs once per training batch and once per evaluated
    # block (one for validation, one for the test split)
    for name in ADAPTER_SPANS:
        calls = 2 if name == "adapter.lstm_final_state" else 1
        assert tracer.count(name) - inside[name] == 2 * calls, name
        assert inside[name] == 2 * calls, name
    # one backbone tape per sub-batch of TRAIN_BLOCK samples and one adapter
    # tape per batch
    assert tracer.count("tensor.backward") == 2 * -(-12 // backbone.TRAIN_BLOCK) + 2
    assert inside.get("tensor.backward", 0) == 0
