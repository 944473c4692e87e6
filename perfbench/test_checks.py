"""Each correctness check passes on the program's real output and fails on a
planted fault. Run from the repository root:

    python3 -m pytest perfbench -q
"""

import math
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import checks  # noqa: E402
import reference as R  # noqa: E402
from mmadapt import adapter, backbone, corpus, tensor as T, trainer  # noqa: E402

@pytest.fixture(scope="module")
def world(tmp_path_factory):
    """A tiny dataset, backbone and adapter checkpoint, plus both views of them."""
    root = tmp_path_factory.mktemp("world")
    ds = corpus.generate_synthetic(corpus.SyntheticSpec(train=8, valid=6, test=6, seed=3),
                                   root / "data")
    config = backbone.BackboneConfig(embed_width=16, layers=1, heads=2, ffn_mult=2, max_seq=64)
    bb, _ = backbone.pretrain_backbone(trainer.build_pretrain_corpus(ds, ds.preset, 2), 200, 5,
                                       config, lr=4e-3)
    bb.save(root / "bb.mseb")
    acfg = adapter.AdapterConfig(8, 8, 8, 8, 32, 2, 16)
    params = adapter.AdapterParams.init(acfg, np.random.default_rng(1))
    adapter.save_adapter(root / "ad.msea", params, adapter.VariantState(), bb.checksum)
    params, state, _ = adapter.load_adapter(root / "ad.msea")
    return {
        "root": root, "ds": ds, "bb": bb, "params": params, "state": state,
        "ref_bb": R.Backbone.from_file(root / "bb.mseb"),
        "ref_ad": R.Adapter.from_file(root / "ad.msea"),
        "records": {r["id"]: r for r in R.read_manifest(root / "data")},
        "prepared": trainer.prepare_samples(bb, ds["train"], ds.preset, 2, False),
    }


def _perturbed(weights: dict, name: str, delta: float = 1e-3) -> dict:
    out = {k: v.copy() for k, v in weights.items()}
    out[name].reshape(-1)[0] += delta
    return out


def test_backbone_file_digest(world, tmp_path):
    path = tmp_path / "bb.mseb"
    shutil.copy(world["root"] / "bb.mseb", path)
    before = checks.file_digest(path)
    assert checks.check_equal("backbone file", before, checks.file_digest(path)) == []
    blob = bytearray(path.read_bytes())
    blob[100] ^= 1
    path.write_bytes(bytes(blob))
    assert checks.check_equal("backbone file", before, checks.file_digest(path))


def test_reloaded_checksum(world, tmp_path):
    bb = world["bb"]
    bb.save(tmp_path / "same.mseb")
    assert checks.check_equal("checksum", bb.checksum,
                              backbone.FrozenBackbone.load(tmp_path / "same.mseb").checksum) == []
    weights = {n: T.Tensor(a) for n, a in _perturbed(world["ref_bb"].w, "h0.wq").items()}
    backbone.FrozenBackbone(bb.config, weights).save(tmp_path / "other.mseb")
    assert checks.check_equal("checksum", bb.checksum,
                              backbone.FrozenBackbone.load(tmp_path / "other.mseb").checksum)


def test_finite_losses():
    assert checks.check_finite("losses", [1.0, 0.5], 2) == []
    assert checks.check_finite("losses", [1.0, math.nan], 2)
    assert checks.check_finite("losses", [1.0], 2)


def test_rank_one(world):
    blocks = [checks.pseudo_block(world["params"], p, world["state"])
              for p in world["prepared"][:3]]
    assert checks.check_rank_one(blocks) == []
    blocks[1] = blocks[1].copy()
    blocks[1][0, 0] += 1e-3
    assert checks.check_rank_one(blocks)


def _ref_losses(world, ref_ad):
    return [R.sample_loss(world["ref_bb"], ref_ad, world["records"][p.sid], world["ds"].preset.prompt)
            for p in world["prepared"]]


def test_sample_loss_against_reference(world):
    program = [trainer.sample_loss(world["bb"], world["params"], p, world["state"]).item()
               for p in world["prepared"]]
    assert checks.check_losses_agree(program, _ref_losses(world, world["ref_ad"])) == []
    faulty = R.Adapter.from_file(world["root"] / "ad.msea")
    faulty.w = _perturbed(faulty.w, "expand.w4")
    assert checks.check_losses_agree(program, _ref_losses(world, faulty))


def test_tape_gradients_against_central_differences(world):
    p = world["prepared"][0]
    coords = [("audio_lstm.wih", 3), ("fuse.16.down.w", 5), ("expand.w4", 1), ("mix.b", 0)]
    tape = checks.tape_gradient(world["bb"], world["params"], p, world["state"], coords)
    ref_ad = R.Adapter.from_file(world["root"] / "ad.msea")
    rec = world["records"][p.sid]
    numeric = checks.numeric_gradient(
        lambda: R.sample_loss(world["ref_bb"], ref_ad, rec, world["ds"].preset.prompt),
        ref_ad.w, coords)
    assert checks.check_gradients(tape, numeric) == []
    largest = int(np.argmax(np.abs(tape)))
    tape[largest] *= 1.001
    assert checks.check_gradients(tape, numeric)


def test_best_valid_on_reload(world):
    valid = trainer.prepare_samples(world["bb"], world["ds"]["valid"], world["ds"].preset, 2, False)
    report = trainer.evaluate_split(world["bb"], world["params"], world["state"], valid,
                                    world["ds"].preset)
    again = trainer.evaluate_split(world["bb"], world["params"], world["state"], valid,
                                   world["ds"].preset).primary
    assert checks.check_equal("best_valid", report.primary, again) == []
    assert checks.check_equal("best_valid", report.primary + 1 / len(valid), again)


def _generate_ids(world):
    """Run the program's greedy decoding, recording the ids it emits."""
    ds, ids = world["ds"], []
    detokenize = backbone.detokenize

    def record(out):
        ids.append(list(out))
        return detokenize(out)

    backbone.detokenize = record
    try:
        report = trainer.evaluate_split(world["bb"], world["params"], world["state"],
                                        world["prepared"], ds.preset)
    finally:
        backbone.detokenize = detokenize
    return ids, report


def _replay(world, ids):
    return [R.greedy_steps(world["ref_bb"],
                           R.sample_rows(world["ref_bb"], world["ref_ad"], world["records"][p.sid],
                                         world["ds"].preset.prompt)[0], t, 2)
            for p, t in zip(world["prepared"], ids)]


def test_greedy_tokens_against_reference(world):
    ids, _ = _generate_ids(world)
    assert checks.check_greedy(_replay(world, ids)) == []
    flipped = [list(t) for t in ids]
    flipped[0] = [(flipped[0][0] + 1) % 256] + flipped[0][1:] if flipped[0] else [48]
    assert checks.check_greedy(_replay(world, flipped))


def test_reported_metrics_against_recomputed(world):
    ids, report = _generate_ids(world)
    k = world["ds"].preset.class_count
    preds = [R.parse_class(t, k) for t in ids]
    golds = [p.gold for p in world["prepared"]]
    assert checks.check_metrics(report.values, preds, golds, k) == []
    preds[0] = (preds[0] + 1) % k
    assert checks.check_metrics(report.values, preds, golds, k)
    preds[0] = (preds[0] - 1) % k
    off = dict(report.values, wf1=report.values["wf1"] + 1e-9)
    assert checks.check_metrics(off, preds, golds, k)


def test_logits_against_reference(world):
    ids = R.byte_ids("loud shifting scene | emotion (0-2):1") + [R.EOS]
    rows = world["ref_bb"].embed(ids)
    program = world["bb"].forward_rows(T.Tensor(rows)).data
    assert checks.check_logits(program, world["ref_bb"].logits(rows)) == []
    faulty = R.Backbone(world["bb"].config.pack(), _perturbed(world["ref_bb"].w, "h0.wf2", 1e-6))
    assert checks.check_logits(program, faulty.logits(rows))


def test_causal_independence(world):
    ids = R.byte_ids("calm steady morning | emotion (0-2):0")
    program = lambda rows: world["bb"].forward_rows(T.Tensor(rows)).data
    assert checks.check_causal(program, ids, world["ref_bb"].embed) == []
    leaky = lambda rows: world["ref_bb"].logits(rows) + rows.sum()
    assert checks.check_causal(leaky, ids, world["ref_bb"].embed)


def test_corpus_loss_below_uniform(world, tmp_path):
    lines = [R.byte_ids(s) + [R.EOS] for s in trainer.build_pretrain_corpus(
        world["ds"], world["ds"].preset, 2)]
    untrained, _ = backbone.pretrain_backbone(["x"], 0, 5, world["bb"].config)
    untrained.save(tmp_path / "untrained.mseb")
    guess = R.Backbone.from_file(tmp_path / "untrained.mseb")
    loss = float(np.mean([guess.line_loss(ids) for ids in lines]))
    assert abs(loss - checks.UNIFORM_LOSS) < 0.5
    assert checks.check_corpus_loss(loss)
    trained = float(np.mean([world["ref_bb"].line_loss(ids) for ids in lines]))
    assert checks.check_corpus_loss(trained) == []
