"""Batched greedy decoding: `prefill` and `step` against the full forward
of each sample's rows so far, and `generate` over padded batches of samples
against the uncached one-sample oracle."""

import numpy as np
import pytest

import mmadapt.trainer as trainer_mod
from mmadapt import backbone as B
from mmadapt import tensor as T
from mmadapt.adapter import AdapterConfig, AdapterParams, make_variant_state
from mmadapt.trainer import BLOCK, eval_token_budget, prepare_samples

from decoding import eval_inputs, make_frozen, padded, preset_samples, unpadded
from oracles import generate_uncached_ids

# a greedy step whose top two logits are this close may take either token
TIE = 1e-9


def assert_rows_close(got, want):
    """Logit rows equal to 1e-12, relative to each row's largest logit."""
    for g, w in zip(got, want):
        assert np.max(np.abs(g - w)) <= 1e-12 * np.max(np.abs(w))


def random_blocks(frozen, lengths, seed=0):
    rng = np.random.default_rng(seed)
    return [rng.uniform(-1, 1, (n, frozen.config.embed_width)) for n in lengths]


def assert_same_greedy(backbone, rows, got, want):
    """`got` equals the oracle's ids `want`, or first leaves them at a step
    where the uncached forward's top two logits are within TIE."""
    if got == want:
        return
    ends = [B.EOS] * (len(got) + len(want) + 1)
    t = next(i for i, (a, b) in enumerate(zip(got + ends, want + ends)) if a != b)
    prefix = np.concatenate([rows.data, backbone.embed(want[:t])])
    top = np.sort(backbone.forward_rows(T.Tensor(prefix)).data[-1])
    assert top[-1] - top[-2] <= TIE, f"ids {got} vs {want}"


def check_block(backbone, rows, lengths, budget):
    """generate over a padded batch against the uncached one-sample oracle."""
    got = B.generate(backbone, rows, lengths, budget)
    assert len(got) == len(lengths)
    for own, ids in zip(unpadded(rows, lengths), got):
        assert_same_greedy(backbone, own, ids, generate_uncached_ids(backbone, own, budget))
    return got


# ---------------------------------------------------------------------------
# prefill and step


@pytest.mark.parametrize("config", [
    B.BackboneConfig(embed_width=16, layers=1, heads=2, ffn_mult=2, max_seq=24),
    B.BackboneConfig(embed_width=16, layers=2, heads=2, ffn_mult=2, max_seq=24),
    B.BackboneConfig()], ids=["one-layer", "two-layer", "default"])
def test_prefill_and_steps_equal_the_per_sample_cached_forward(config):
    frozen = make_frozen(config, seed=config.layers)
    blocks = random_blocks(frozen, [7, 12, 3, 12, 9], seed=config.layers)
    logits, cache = frozen.prefill(*padded(blocks), room=4)
    assert logits.shape == (5, B.VOCAB_SIZE)
    # the longest prefill plus the room
    assert cache.layers[0][0].shape == (5, 2, 16, config.embed_width // 2)
    seen = list(blocks)  # each sample's rows so far

    def last_logits(live):
        return [frozen.forward_rows(T.Tensor(seen[s])).data[-1] for s in live]

    assert_rows_close(logits, last_logits(range(5)))
    rng = np.random.default_rng(config.layers)
    live = list(range(5))
    for keep in (None, [0, 2, 3], None, [2]):
        if keep is not None:  # some samples leave
            live = [live[j] for j in keep]
            cache = cache.select(keep)
        ids = [int(i) for i in rng.integers(0, 256, len(live))]
        for s, i in zip(live, ids):
            seen[s] = np.concatenate([seen[s], frozen.embed([i])])
        logits = frozen.step(cache, ids)
        assert_rows_close(logits, last_logits(live))
        assert list(cache.lengths) == [len(seen[s]) for s in live]
    assert cache.lengths[0] == 16  # sample 3 filled its room
    with pytest.raises(B.LengthError, match="full"):
        frozen.step(cache, [65])


def test_prefill_checks_its_input():
    """Rows of the wrong width or rank, rows that do not split into the
    samples, a sample length of 0 or past the padded length, and a batch
    longer than max_seq are refused."""
    frozen = make_frozen()
    for rows, lengths in [(np.zeros((6, 15)), [6]), (np.zeros(16), [1]),
                          (np.zeros((7, 16)), [3, 4]), (np.zeros((6, 16)), [0, 3]),
                          (np.zeros((6, 16)), [3, 4])]:
        with pytest.raises(T.DimensionError):
            frozen.prefill(T.Tensor(rows), lengths, room=1)
    with pytest.raises(B.LengthError):
        frozen.prefill(T.Tensor(np.zeros((49, 16))), [49], room=1)


# ---------------------------------------------------------------------------
# generate over padded batches


@pytest.mark.parametrize("name", ["mosei", "sims_v2", "meld", "cherma"])
def test_batched_generate_matches_both_oracles_on_every_corpus_preset(monkeypatch, name):
    rng = np.random.default_rng(len(name) + 1)
    config = B.BackboneConfig(embed_width=32, layers=2, heads=2, ffn_mult=2, max_seq=256)
    frozen = make_frozen(config, seed=len(name) + 1)
    # more samples than evaluation decodes at once, of different lengths
    preset, samples = preset_samples(name, B.DECODE_BLOCK + 5, rng)
    acfg = AdapterConfig(audio_width=preset.audio_width, vision_width=preset.vision_width,
                         audio_hidden=8, vision_hidden=8, mix_width=32,
                         token_count=preset.adapter_defaults.token_count, embed_width=32)
    params = AdapterParams.init(acfg, rng)
    state = make_variant_state("full", acfg, rng)
    prepared = prepare_samples(frozen, samples, preset, acfg.token_count, False)
    rows, lengths = eval_inputs(params, prepared, state)
    assert len(set(lengths)) > 1
    monkeypatch.setattr(B, "detokenize", list)
    for budget in (eval_token_budget(preset), 8):
        check_block(frozen, rows, lengths, budget)


def test_batched_generate_matches_both_oracles_on_the_synthetic_preset(
        monkeypatch, small_synth, small_backbone, small_adapter_config):
    rng = np.random.default_rng(8)
    params = AdapterParams.init(small_adapter_config, rng)
    state = make_variant_state("full", small_adapter_config, rng)
    prepared = prepare_samples(small_backbone, small_synth["test"] + small_synth["valid"],
                               small_synth.preset, small_adapter_config.token_count, False)
    rows, lengths = eval_inputs(params, prepared, state)
    monkeypatch.setattr(B, "detokenize", list)
    for budget in (eval_token_budget(small_synth.preset), 8):
        got = check_block(small_backbone, rows, lengths, budget)
        assert any(len(ids) < budget for ids in got)  # the backbone ends some labels


def test_samples_leave_at_eos_budget_and_max_seq_while_others_run_on(monkeypatch):
    config = B.BackboneConfig(embed_width=16, layers=2, heads=2, ffn_mult=2, max_seq=20)
    plain = make_frozen(config, seed=28)
    arrays = random_blocks(plain, [6, 19, 12, 20, 5, 18, 9], 28)
    # point the EOS row of the tied unembedding from sample 4's first hidden
    # state towards sample 0's, so that some samples end with EOS
    embed = plain._weights["embed"].data
    hidden = [np.linalg.lstsq(embed, plain.forward_rows(T.Tensor(arrays[s]), last=1).data[0],
                              rcond=None)[0]
              for s in (0, 4)]
    toward = hidden[0] - hidden[1]
    weights = {n: T.Tensor(t.data.copy()) for n, t in plain._weights.items()}
    weights["embed"].data[B.EOS] = 50.0 * toward / np.linalg.norm(toward)
    frozen = B.FrozenBackbone(config, weights)
    monkeypatch.setattr(B, "detokenize", list)
    rows, lengths = padded(arrays)
    got = check_block(frozen, rows, lengths, 8)
    # 0 and 2 end with EOS at steps 1 and 3; 1 and 5 fill max_seq; 3, of
    # max_seq rows, gets no token; 4 and 6 run out of budget
    assert [len(ids) for ids in got] == [0, 1, 2, 0, 8, 2, 8]
    # a batch of one decodes as in the batch
    assert [B.generate(frozen, *padded([a]), 8)[0] for a in arrays] == got
    assert B.generate(frozen, rows, lengths, 0) == [[]] * len(arrays)
    with pytest.raises(B.LengthError, match="21 exceeds max 20"):
        B.generate(frozen, *padded(arrays + [np.zeros((21, 16))]), 8)


def eval_world(name, small_synth, seed):
    """A seeded backbone, adapter and variant state, and more than BLOCK
    prepared samples of the named preset (BLOCK + 6 of a corpus preset), so
    that the last eval block is short."""
    rng = np.random.default_rng(seed)
    config = B.BackboneConfig(embed_width=32, layers=2, heads=2, ffn_mult=2, max_seq=256)
    frozen = make_frozen(config, seed=seed)
    if name == "synthetic":
        preset = small_synth.preset
        samples = [*small_synth["train"], *small_synth["valid"], *small_synth["test"]] * 2
    else:
        preset, samples = preset_samples(name, BLOCK + 6, rng)
    acfg = AdapterConfig(audio_width=preset.audio_width, vision_width=preset.vision_width,
                         audio_hidden=8, vision_hidden=8, mix_width=32,
                         token_count=preset.adapter_defaults.token_count, embed_width=32)
    params = AdapterParams.init(acfg, rng)
    state = make_variant_state("full", acfg, rng)
    return frozen, preset, params, state, prepare_samples(frozen, samples, preset,
                                                          acfg.token_count, False)


@pytest.mark.parametrize("name", ["mosei", "sims_v2", "meld", "cherma", "synthetic"])
def test_evaluate_split_hands_every_sample_to_detokenize_and_parse_in_order(
        monkeypatch, small_synth, name):
    """The benchmark records each sample's ids and prediction by rebinding
    `backbone.detokenize` and `trainer.parse_generated`."""
    frozen, preset, params, state, prepared = eval_world(name, small_synth, 11)
    tokens, texts = [], []
    detokenize, parse = B.detokenize, trainer_mod.parse_generated

    def record_ids(ids):
        tokens.append([int(i) for i in ids])
        return detokenize(ids)

    def record_pred(task, text, **kwargs):
        texts.append(text)
        return parse(task, text, **kwargs)

    monkeypatch.setattr(B, "detokenize", record_ids)
    monkeypatch.setattr(trainer_mod, "parse_generated", record_pred)
    trainer_mod.evaluate_split(frozen, params, state, prepared, preset)
    assert len(tokens) == len(texts) == len(prepared)
    assert texts == [detokenize(ids) for ids in tokens]
    budget = eval_token_budget(preset)
    for start in range(0, len(prepared), BLOCK):
        block = prepared[start:start + BLOCK]
        for i, own in enumerate(unpadded(*eval_inputs(params, block, state))):
            assert_same_greedy(frozen, own, tokens[start + i],
                               generate_uncached_ids(frozen, own, budget))


def test_evaluate_split_decodes_each_block_in_sub_batches_of_length_order(
        monkeypatch, small_synth):
    """On a ragged split, each eval block reaches `prefill` as the
    `sub_batches` of DECODE_BLOCK samples, each sample's rows its own, each
    sub-batch padded only to its own longest sample."""
    frozen, preset, params, state, prepared = eval_world("mosei", small_synth, 12)
    calls = []
    prefill = B.FrozenBackbone.prefill

    def record(self, rows, lengths, room):
        calls.append((rows.data.copy(), np.array(lengths)))
        return prefill(self, rows, lengths, room)

    monkeypatch.setattr(B.FrozenBackbone, "prefill", record)
    trainer_mod.evaluate_split(frozen, params, state, prepared, preset)
    padded_rows = sum(rows.shape[0] for rows, _ in calls)
    predicted = 0
    for start in range(0, len(prepared), BLOCK):
        rows, lengths = eval_inputs(params, prepared[start:start + BLOCK], state)
        assert len(set(lengths)) > 1
        own = unpadded(rows, lengths)
        for sub in B.sub_batches(lengths, B.DECODE_BLOCK, np.inf):
            got_rows, got_lengths = calls.pop(0)
            # a run of the block in length order, sliced at its own longest
            assert list(got_lengths) == sorted(got_lengths) == [lengths[i] for i in sub]
            for i, got in zip(sub, unpadded(T.Tensor(got_rows), got_lengths)):
                assert np.array_equal(got.data, own[i].data)
            predicted += len(sub) * max(lengths[sub])
    assert not calls
    assert padded_rows == predicted
