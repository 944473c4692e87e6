"""Row pruning and cached decoding: `forward_rows(..., last=)` against the
full forward, greedy decoding against the uncached oracle, and the pruned
label loss against the full-row one."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

import mmadapt.trainer as trainer_mod
from mmadapt import backbone as B
from mmadapt import tensor as T
from mmadapt.adapter import AdapterConfig, AdapterParams, make_variant_state
from mmadapt.errors import DimensionError, LengthError
from mmadapt.trainer import (eval_token_budget, label_loss, padded_inputs, prepare_samples,
                             sample_loss)

from decoding import eval_inputs, make_frozen, preset_samples
from oracles import generate_uncached_ids


def rows_of(frozen, l, seed=0):
    return np.random.default_rng(seed).uniform(-1, 1, (l, frozen.config.embed_width))


# ---------------------------------------------------------------------------
# forward_rows


@pytest.mark.parametrize("n", [1, 2, 5, 17])
def test_last_rows_equal_full_forward(n):
    frozen = make_frozen()
    rows = rows_of(frozen, 17)
    full = frozen.forward_rows(T.Tensor(rows)).data
    got = frozen.forward_rows(T.Tensor(rows), last=n).data
    assert got.shape == (n, B.VOCAB_SIZE)
    assert_allclose(got, full[-n:], rtol=0, atol=1e-12)
    if n == 17:  # nothing to prune: the very same arithmetic
        assert np.array_equal(got, full)


def test_cache_counts_toward_max_seq_and_last_is_checked():
    frozen = make_frozen()
    # the room asked for past max_seq is cut: 46 + 2 rows fill the cache
    _, cache = frozen.prefill(T.Tensor(rows_of(frozen, 46)), [46], room=8)
    frozen.step(cache, [65])
    frozen.step(cache, [66])
    with pytest.raises(LengthError, match="holds 48 rows per sample and is full"):
        frozen.step(cache, [67])
    with pytest.raises(LengthError, match="49 exceeds max 48"):
        frozen.forward_rows(T.Tensor(rows_of(frozen, 49)), last=1)
    for bad in (0, 4):
        with pytest.raises(DimensionError):
            frozen.forward_rows(T.Tensor(rows_of(frozen, 3)), last=bad)


# ---------------------------------------------------------------------------
# greedy decoding


def capture_ids(monkeypatch):
    """Make `generate` hand back the ids it decodes, not their text."""
    monkeypatch.setattr(B, "detokenize", list)


@pytest.mark.parametrize("name", ["mosei", "sims_v2", "meld", "cherma"])
def test_cached_generate_matches_uncached_on_every_corpus_preset(monkeypatch, name):
    rng = np.random.default_rng(len(name))
    config = B.BackboneConfig(embed_width=32, layers=2, heads=2, ffn_mult=2, max_seq=256)
    frozen = make_frozen(config, seed=len(name))
    preset, samples = preset_samples(name, 16, rng)
    acfg = AdapterConfig(audio_width=preset.audio_width, vision_width=preset.vision_width,
                         audio_hidden=8, vision_hidden=8, mix_width=32,
                         token_count=preset.adapter_defaults.token_count, embed_width=32)
    params = AdapterParams.init(acfg, rng)
    state = make_variant_state("full", acfg, rng)
    capture_ids(monkeypatch)
    for p in prepare_samples(frozen, samples, preset, acfg.token_count, False):
        rows, lengths = eval_inputs(params, [p], state)
        for budget in (eval_token_budget(preset), 8):
            want = generate_uncached_ids(frozen, rows, budget)
            assert B.generate(frozen, rows, lengths, budget) == [want], p.sid


def test_cached_generate_matches_uncached_on_the_synthetic_preset(
        monkeypatch, small_synth, small_backbone, small_adapter_config):
    rng = np.random.default_rng(8)
    params = AdapterParams.init(small_adapter_config, rng)
    state = make_variant_state("full", small_adapter_config, rng)
    prepared = prepare_samples(small_backbone, small_synth["test"], small_synth.preset,
                               small_adapter_config.token_count, False)
    capture_ids(monkeypatch)
    stopped_at_eos = 0
    for p in prepared:
        rows, lengths = eval_inputs(params, [p], state)
        for budget in (eval_token_budget(small_synth.preset), 8):
            want = generate_uncached_ids(small_backbone, rows, budget)
            assert B.generate(small_backbone, rows, lengths, budget) == [want], p.sid
            stopped_at_eos += len(want) < budget
    assert stopped_at_eos > 0  # the pretrained backbone ends some labels itself


@pytest.mark.parametrize("room", [0, 1, 3])
def test_cached_generate_stops_when_the_context_fills(monkeypatch, room):
    ids = B.tokenize("hello there ans:")
    config = B.BackboneConfig(embed_width=16, layers=2, heads=2, ffn_mult=2,
                              max_seq=len(ids) + room)
    frozen = make_frozen(config)
    rows = T.Tensor(frozen.embed(ids))
    capture_ids(monkeypatch)
    want = generate_uncached_ids(frozen, rows, max_new=8)
    assert len(want) == room
    assert B.generate(frozen, rows, [len(ids)], max_new=8) == [want]


# ---------------------------------------------------------------------------
# label loss on the pruned rows


def full_row_sample_loss(backbone, params, p, state):
    """sample_loss as it reads with every row of the forward computed: the
    label window is cut from the full logits."""
    rows, _ = padded_inputs([p], trainer_mod.pseudo_blocks(params, [p], state))
    logits = backbone.forward_rows(rows)
    rows = logits.shape[0]
    return label_loss(T.slice_rows(logits, rows - len(p.label_ids) - 1, rows), [p.label_ids])


@pytest.mark.parametrize("layers", [1, 2])
def test_pruned_label_loss_gradients_match_full_rows(monkeypatch, small_synth, layers):
    config = B.BackboneConfig(embed_width=32, layers=layers, heads=2, ffn_mult=2,
                              max_seq=96)
    frozen = make_frozen(config, seed=layers)
    rng = np.random.default_rng(layers)
    acfg = AdapterConfig(audio_width=8, vision_width=8, audio_hidden=8, vision_hidden=8,
                         mix_width=32, token_count=3, embed_width=32)
    params = AdapterParams.init(acfg, rng)
    state = make_variant_state("full", acfg, rng)
    prepared = prepare_samples(frozen, small_synth["train"][:4], small_synth.preset,
                               acfg.token_count, False)
    build = trainer_mod.pseudo_blocks
    for p in prepared:
        grads = []
        for loss_fn in (sample_loss, full_row_sample_loss):
            params.zero_grads()
            leaf = {}

            def pseudo_leaf(*args):
                # the pseudo rows as a leaf whose gradient can be read, fed
                # into the loss through an identity add on the adapter output
                leaf["t"] = T.Tensor(np.zeros((acfg.token_count, 32)), requires_grad=True)
                return T.add(build(*args), leaf["t"])

            monkeypatch.setattr(trainer_mod, "pseudo_blocks", pseudo_leaf)
            with T.Tape() as tape:
                loss = loss_fn(frozen, params, p, state)
                tape.backward(loss)
            grads.append((loss.item(), leaf["t"].grad.copy(),
                          {n: t.grad.copy() for n, t in params.named()}))
        (got_loss, got_pseudo, got), (want_loss, want_pseudo, want) = grads
        assert abs(got_loss - want_loss) <= 1e-12
        assert_allclose(got_pseudo, want_pseudo, rtol=0, atol=1e-12)
        for name in want:
            assert_allclose(got[name], want[name], rtol=0, atol=1e-12, err_msg=name)
