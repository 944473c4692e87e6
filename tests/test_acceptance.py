"""Acceptance gate: one test per shipping criterion.

Every test prints a single PASS or FAIL line on the real terminal (bypassing
pytest capture) so a full run reads as a checklist. The heavyweight criteria
drive the command-line interface exactly as a user would; shared workspaces
are built once per module.
"""

import hashlib
import json
import time
from pathlib import Path

import numpy as np
import pytest

import mmadapt.tensor as T
from mmadapt import gradcheck as G
from mmadapt.adapter import (
    AdapterConfig,
    AdapterParams,
    VariantState,
    build_pseudo_tokens,
    count_trainable,
    expand_tokens,
    fuse_scales,
    lstm_final_state,
    load_adapter,
    make_variant_state,
    save_adapter,
    sweep_mix_width,
    text_guided_mix,
)
from mmadapt.backbone import FrozenBackbone
from mmadapt.cli import main as cli_main
from mmadapt.corpus import load_dataset
from mmadapt.errors import CheckpointError, InputError
from mmadapt.metrics import erc_metrics, format_label, mosei_metrics, parse_generated, sims_metrics
from mmadapt.serialize import read_features, write_features
from mmadapt.trainer import TrainConfig, label_loss, multi_seed_run

from oracles import cross_entropy_scalar, gelu_scalar, lstm_scalar_step

EPS = float(np.finfo(np.float64).eps)


def _report(capsys, name: str, ok: bool, detail: str = "") -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] {name}"
    if detail:
        line += f" | {detail}"
    with capsys.disabled():
        print(line, flush=True)
    assert ok, line


# ---------------------------------------------------------------------------
# shared command-line workspace: synthetic dataset + pretrained backbone


SYNTH_SEED = "20260815"
TRAIN_FLAGS = [
    "--epochs", "10", "--seed", "1111", "--learning-rate", "0.005",
    "--batch-size", "32", "--audio-hidden", "32", "--vision-hidden", "32",
    "--mix-width", "64", "--token-count", "4",
]


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("acceptance-ws")
    data = root / "data"
    t0 = time.monotonic()
    rc = cli_main(["synth", "--out", str(data), "--seed", SYNTH_SEED,
                   "--train", "2000", "--valid", "300", "--test", "500",
                   "--noise", "0.1"])
    assert rc == 0
    rc = cli_main(["pretrain-backbone", "--dataset", str(data),
                   "--out", str(root / "backbone"), "--steps", "1500",
                   "--seed", "11", "--lr", "0.003"])
    assert rc == 0
    return {
        "root": root,
        "data": data,
        "backbone": root / "backbone" / "backbone.mseb",
        "prep_seconds": time.monotonic() - t0,
    }


def _train(ws: dict, out_name: str, *extra: str) -> tuple[dict, float]:
    """Run the train subcommand into <root>/<out_name>; return (report, secs)."""
    out = ws["root"] / out_name
    t0 = time.monotonic()
    rc = cli_main(["train", "--dataset", str(ws["data"]),
                   "--backbone", str(ws["backbone"]),
                   "--out", str(out), *TRAIN_FLAGS, *extra])
    seconds = time.monotonic() - t0
    assert rc == 0
    variant = "full"
    for i, flag in enumerate(extra):
        if flag == "--variant":
            variant = extra[i + 1]
    report = json.loads((out / f"report-{variant}.json").read_text())
    return report, seconds


@pytest.fixture(scope="module")
def full_run(workspace):
    report, seconds = _train(workspace, "train-full")
    return {
        "acc": report["per_seed"][0]["metrics"]["acc"],
        "seconds": seconds,
        "report": report,
    }


# ---------------------------------------------------------------------------
# criteria


def test_substitute_scope_statement(capsys):
    """The published headline numbers are out of desk scope by design."""
    _report(
        capsys, "substitute scope",
        True,
        "headline public-corpus results need multi-billion-parameter frozen "
        "backbones and licensed feature corpora; this artifact verifies the "
        "mechanism with the property suite on planted synthetic data")


def test_frozen_backbone_invariance(workspace, capsys):
    file_digest_before = hashlib.blake2b(workspace["backbone"].read_bytes()).hexdigest()
    backbone = FrozenBackbone.load(workspace["backbone"])
    checksum_before = backbone.content_checksum()

    t0 = time.monotonic()
    # command-level run, then an in-process run against a held object
    report, _ = _train(workspace, "train-invariance",
                       "--epochs", "1", "--train-fraction", "0.2", "--seed", "7")
    assert report["per_seed"], "train run produced no per-seed rows"

    dataset = load_dataset(workspace["data"])
    config = AdapterConfig(audio_width=8, vision_width=8, audio_hidden=8,
                           vision_hidden=8, mix_width=32, token_count=4,
                           embed_width=backbone.config.embed_width)
    multi_seed_run(backbone, dataset, config,
                   TrainConfig(learning_rate=5e-3, epochs=1, batch_size=32,
                               seeds=(7,), train_fraction=0.2))
    seconds = time.monotonic() - t0

    backbone.verify()
    checksum_after = backbone.content_checksum()
    file_digest_after = hashlib.blake2b(workspace["backbone"].read_bytes()).hexdigest()
    ok = (checksum_after == checksum_before
          and file_digest_after == file_digest_before
          and seconds < 300.0)
    _report(capsys, "frozen backbone invariance", ok,
            f"checksum {checksum_before:016x} unchanged across training, "
            f"{seconds:.0f}s (< 300s)")


def test_gradient_suite(capsys, gradcheck_run):
    rc, seconds = gradcheck_run["proc"].returncode, gradcheck_run["seconds"]
    ok = (rc == 0 and seconds < 120.0
          and G.PRIMITIVE_TOL == 1e-6 and G.FULL_TOL == 1e-4)
    _report(capsys, "gradient suite", ok,
            f"command exit {rc}, primitives at 1e-6 and composed pipeline at "
            f"1e-4, {seconds:.0f}s (< 120s)")


def _loop_matvec(w: np.ndarray, x: np.ndarray, b: np.ndarray) -> np.ndarray:
    out = np.zeros((w.shape[0], 1))
    for i in range(w.shape[0]):
        acc = b[i, 0]
        for j in range(w.shape[1]):
            acc += w[i, j] * x[j, 0]
        out[i, 0] = acc
    return out


def _mixer_oracle(params: AdapterParams, text: np.ndarray, vision: np.ndarray,
                  audio: np.ndarray) -> np.ndarray:
    c = params.config
    w = {n: t.data for n, t in params.named()}
    pooled = np.zeros((c.embed_width, 1))
    for j in range(c.embed_width):
        pooled[j, 0] = sum(text[r, j] for r in range(text.shape[0])) / text.shape[0]
    text_col = _loop_matvec(w["text_proj.w"], pooled, w["text_proj.b"])
    vision_col = _loop_matvec(w["vision_proj.w"], vision, w["vision_proj.b"])
    audio_col = _loop_matvec(w["audio_proj.w"], audio, w["audio_proj.b"])
    out = np.zeros((c.mix_width, 1))
    for i in range(c.mix_width):
        out[i, 0] = (vision_col[i, 0] * text_col[i, 0]
                     + audio_col[i, 0] * text_col[i, 0])
    return out


def _fusion_oracle(params: AdapterParams, mixed: np.ndarray) -> np.ndarray:
    c = params.config
    w = {n: t.data for n, t in params.named()}
    cols = []
    for k in c.scale_divisors:
        down = _loop_matvec(w[f"fuse.{k}.down.w"], mixed, w[f"fuse.{k}.down.b"])
        act = np.array([[gelu_scalar(v)] for v in down[:, 0]])
        cols.append(_loop_matvec(w[f"fuse.{k}.up.w"], act, w[f"fuse.{k}.up.b"]))
    out = np.zeros((c.mix_width, 1))
    for i in range(c.mix_width):
        acc = w["mix.b"][0]
        for kidx in range(len(c.scale_divisors)):
            acc += cols[kidx][i, 0] * w["mix.w"][kidx, 0]
        out[i, 0] = acc
    return out


def _expander_oracle(params: AdapterParams, fused: np.ndarray) -> np.ndarray:
    c = params.config
    w = {n: t.data for n, t in params.named()}
    u = _loop_matvec(w["expand.w3"], fused, w["expand.b3"])
    out = np.zeros((c.token_count, c.embed_width))
    for i in range(c.token_count):
        for j in range(c.embed_width):
            out[i, j] = w["expand.w4"][i, 0] * u[j, 0]
    return out


def _random_config(rng: np.random.Generator) -> AdapterConfig:
    return AdapterConfig(
        audio_width=int(rng.integers(4, 10)),
        vision_width=int(rng.integers(4, 10)),
        audio_hidden=int(rng.integers(3, 9)),
        vision_hidden=int(rng.integers(3, 9)),
        mix_width=int(rng.choice([32, 64])),
        token_count=int(rng.integers(2, 7)),
        embed_width=int(rng.integers(6, 20)),
    )


def test_oracle_equivalence(capsys):
    rng = np.random.default_rng(424242)
    instances = 100
    worst = {"mixer": 0.0, "fusion": 0.0, "expander": 0.0,
             "lstm": 0.0, "label_loss": 0.0}

    for _ in range(instances):
        config = _random_config(rng)
        params = AdapterParams.init(config, rng)

        text = rng.normal(size=(int(rng.integers(1, 7)), config.embed_width))
        vision_col = rng.normal(size=(config.vision_hidden, 1))
        audio_col = rng.normal(size=(config.audio_hidden, 1))
        got = text_guided_mix(params, T.Tensor(text), T.Tensor(vision_col),
                              T.Tensor(audio_col)).data
        want = _mixer_oracle(params, text, vision_col, audio_col)
        worst["mixer"] = max(worst["mixer"], float(np.max(np.abs(got - want))))

        mixed = rng.normal(size=(config.mix_width, 1))
        got = fuse_scales(params, T.Tensor(mixed)).data
        want = _fusion_oracle(params, mixed)
        worst["fusion"] = max(worst["fusion"], float(np.max(np.abs(got - want))))

        fused = rng.normal(size=(config.mix_width, 1))
        got = expand_tokens(params, T.Tensor(fused)).data
        want = _expander_oracle(params, fused)
        worst["expander"] = max(worst["expander"], float(np.max(np.abs(got - want))))

        width, hidden = int(rng.integers(3, 9)), int(rng.integers(2, 7))
        length = int(rng.integers(1, 5))
        x = rng.normal(size=(length, width))
        wih = rng.normal(size=(4 * hidden, width)) * 0.5
        whh = rng.normal(size=(4 * hidden, hidden)) * 0.5
        b = rng.normal(size=(4 * hidden, 1)) * 0.5
        got = lstm_final_state(T.Tensor(x), T.Tensor(wih), T.Tensor(whh),
                               T.Tensor(b), hidden).data
        h = [0.0] * hidden
        c = [0.0] * hidden
        for t in range(length):
            h, c = lstm_scalar_step(x[t].tolist(), h, c,
                                    wih.tolist(), whh.tolist(), b[:, 0].tolist())
        worst["lstm"] = max(worst["lstm"],
                            float(np.max(np.abs(got[:, 0] - np.array(h)))))

        rows = int(rng.integers(5, 11))
        vocab = int(rng.integers(20, 41))
        logits = rng.normal(size=(rows, vocab)) * 2.0
        label_len = int(rng.integers(2, 5))
        first = int(rng.integers(1, rows - label_len + 1))
        positions = list(range(first, first + label_len))
        ids = [int(rng.integers(0, vocab)) for _ in positions]
        window = logits[first - 1:first + label_len]
        got_loss = label_loss(T.Tensor(window), [ids]).data.item()
        want_loss = sum(cross_entropy_scalar(logits[pos - 1].tolist(), tok)
                        for pos, tok in zip(positions, ids))
        worst["label_loss"] = max(worst["label_loss"], abs(got_loss - want_loss))

    ok = all(v <= 1e-12 for v in worst.values())
    detail = ", ".join(f"{k} {v:.1e}" for k, v in worst.items())
    _report(capsys, "oracle equivalence", ok,
            f"{instances} instances per piece, worst abs err: {detail} (<= 1e-12)")


def test_rank_one_pseudo_tokens(capsys):
    rng = np.random.default_rng(99)
    draws = 100
    worst_ratio = 0.0
    for _ in range(draws):
        config = _random_config(rng)
        params = AdapterParams.init(config, rng)
        text = rng.normal(size=(int(rng.integers(1, 7)), config.embed_width))
        audio = rng.normal(size=(int(rng.integers(2, 7)), config.audio_width))
        vision = rng.normal(size=(int(rng.integers(2, 7)), config.vision_width))
        tokens = build_pseudo_tokens(params, T.Tensor(text), T.Tensor(audio),
                                     T.Tensor(vision), VariantState())
        s = np.linalg.svd(tokens.data, compute_uv=False)
        if s[0] > 0.0:
            worst_ratio = max(worst_ratio, float(s[1] / s[0]))
    ok = worst_ratio <= 1e-9
    _report(capsys, "rank-1 pseudo tokens", ok,
            f"{draws} draws, worst second-to-first singular value ratio "
            f"{worst_ratio:.1e} (<= 1e-9)")


def test_end_to_end_learning(workspace, full_run, capsys):
    noav_report, _ = _train(workspace, "train-noav", "--variant", "no_audio_vision")
    acc_full = full_run["acc"]
    acc_noav = noav_report["per_seed"][0]["metrics"]["acc"]
    elapsed = workspace["prep_seconds"] + full_run["seconds"]
    ok = (acc_full >= 0.90
          and acc_full - acc_noav >= 0.15
          and elapsed < 900.0)
    _report(capsys, "end-to-end learning", ok,
            f"full {acc_full:.3f} (>= 0.90) vs audio+vision-ablated "
            f"{acc_noav:.3f} (gap {acc_full - acc_noav:.3f} >= 0.15), "
            f"10 of 20 allowed epochs, {elapsed:.0f}s (< 900s)")


def test_five_seed_protocol(small_synth, small_backbone, small_adapter_config, capsys):
    config = TrainConfig(learning_rate=4e-3, epochs=1, batch_size=8,
                         seeds=(1111, 2222, 3333, 4444, 5555))
    report = multi_seed_run(small_backbone, small_synth, small_adapter_config,
                            config)
    ok = len(report.per_seed) == 5 and not report.failed_seeds
    worst = 0.0
    for key, mean_value in report.mean.items():
        hand = sum(row["metrics"][key] for row in report.per_seed) / 5
        diff = abs(mean_value - hand)
        worst = max(worst, diff)
        ok = ok and diff <= EPS * max(1.0, abs(hand))
    _report(capsys, "five-seed protocol", ok,
            f"seeds (1111..5555), report mean vs hand average worst diff "
            f"{worst:.1e} (machine precision)")


# hand-computed metric fixtures; every listed key must match bitwise
WIDE_FIXTURES = [
    ([1.0, -1.0], [0.5, -0.5],
     {"acc2": 1.0, "f1": 1.0, "acc7": 1.0, "mae": 0.5, "corr": 1.0}),
    ([-0.5, 0.5], [1.0, -1.0],
     {"acc2": 0.0, "f1": 0.0, "acc7": 0.0, "mae": 1.5, "corr": -1.0}),
    ([0.0, 1.0, 2.0, 3.0], [0.0, 1.0, 2.0, 3.0],
     {"acc2": 1.0, "f1": 1.0, "acc7": 1.0, "mae": 0.0, "corr": 1.0}),
    ([1.0, 2.0, 3.0], [0.0, 0.0, 0.0],
     {"acc2": 1.0, "f1": 1.0, "acc7": 0.0, "mae": 2.0, "corr": None}),
    ([-1.0, -0.5, 0.5, 1.0], [-2.0, -1.0, 1.0, 2.0],
     {"acc2": 1.0, "f1": 1.0, "acc7": 2 / 4, "mae": 0.75, "corr": 1.0}),
    ([0.0, 1.0, 2.0, 3.0], [3.0, 2.0, 1.0, 0.0],
     {"acc2": 1.0, "f1": 1.0, "acc7": 0.0, "mae": 2.0, "corr": -1.0}),
    ([-3.0, -0.25], [-1.0, -2.0],
     {"acc2": 1.0, "f1": 0.0, "acc7": 0.0, "mae": (2.0 + 1.75) / 2, "corr": -1.0}),
    ([0.5, -0.5, 1.5, -1.5], [0.25, -0.25, 0.75, -0.75],
     {"acc2": 1.0, "f1": 1.0, "acc7": 0.0, "mae": 0.5, "corr": 1.0}),
    ([-2.5, -3.0, 3.0, 2.5], [-3.0, -2.5, 2.5, 3.0],
     {"acc2": 1.0, "f1": 1.0, "acc7": 1.0, "mae": 0.5, "corr": 30 / 30.5}),
    ([2.0, -2.0, -2.0, 0.0], [2.0, 2.0, -2.0, 0.0],
     {"acc2": 3 / 4, "f1": 4 / 5, "acc7": 3 / 4, "mae": 1.0, "corr": 5 / 11}),
]

NARROW_FIXTURES = [
    ([0.1, 0.2, 0.5], [0.3, -0.2, 0.9],
     {"acc2": 2 / 3, "f1": 4 / 5, "acc2_weak": 1 / 2,
      "mae": (abs(0.1 - 0.3) + abs(0.2 - -0.2) + abs(0.5 - 0.9)) / 3}),
    ([0.25, -0.25], [0.5, -0.5],
     {"acc2": 1.0, "f1": 1.0, "acc2_weak": None, "mae": 0.25, "corr": 1.0}),
    ([1.0, -1.0, 0.5, 0.25], [0.4, -0.4, 0.0, 1.0],
     {"acc2": 3 / 4, "f1": 4 / 5, "acc2_weak": 2 / 3,
      "mae": (abs(1.0 - 0.4) + abs(-1.0 - -0.4) + 0.5 + 0.75) / 4}),
    ([0.0, 0.0], [0.0, 0.0],
     {"acc2": 1.0, "f1": 0.0, "acc2_weak": 1.0, "mae": 0.0, "corr": None}),
    ([0.5, 0.25, -0.25, -0.5], [1.0, 0.5, -0.5, -1.0],
     {"acc2": 1.0, "f1": 1.0, "acc2_weak": None, "mae": 0.375, "corr": 1.0}),
    ([-0.25, 0.25, -0.25, 0.25], [0.25, -0.25, 0.25, -0.25],
     {"acc2": 0.0, "f1": 0.0, "acc2_weak": 0.0, "mae": 0.5, "corr": -1.0}),
    ([0.1, 0.2, 0.3], [0.1, 0.2, 0.3],
     {"acc2": 1.0, "f1": 1.0, "acc2_weak": 1.0, "mae": 0.0}),
    ([-1.0, -0.75, -0.5, -0.25], [-1.0, -0.5, -0.25, -0.125],
     {"acc2": 1.0, "f1": 0.0, "acc2_weak": 1.0,
      "mae": (0.0 + 0.25 + 0.25 + 0.125) / 4}),
    ([1.0, 1.0, -1.0, -1.0], [0.5, 0.5, -0.5, -0.5],
     {"acc2": 1.0, "f1": 1.0, "acc2_weak": None, "mae": 0.5, "corr": 1.0}),
    ([0.5, 0.5, 0.5, -0.5, -0.5], [0.2, -0.2, 0.6, -0.6, 0.0],
     {"acc2": 4 / 5, "f1": 4 / 5, "acc2_weak": 2 / 3}),
]

EMOTION_FIXTURES = [
    ([0, 0, 0, 0, 0], [0, 0, 0, 0, 0], {"acc": 1.0, "wf1": 1.0}),
    ([0, 0, 1, 2, 3, 4, 5, 6], [0, 0, 1, 2, 3, 4, 5, 6], {"acc": 1.0, "wf1": 1.0}),
    ([0, 1, 1], [0, 0, 1], {"acc": 2 / 3, "wf1": (2 / 3) * (2 / 3) + (1 / 3) * (2 / 3)}),
    ([1, 1, 1, 0], [0, 0, 0, 1], {"acc": 0.0, "wf1": 0.0}),
    ([1, 0], [0, 1], {"acc": 0.0, "wf1": 0.0}),
    ([2, 2, 2, 5], [2, 2, 2, 2], {"acc": 3 / 4, "wf1": (4 / 4) * (6 / 7)}),
    ([0, 1, 0, 1], [0, 0, 1, 1], {"acc": 1 / 2, "wf1": (2 / 4) * (1 / 2) + (2 / 4) * (1 / 2)}),
    ([6, 6, 6, 6], [6, 5, 6, 5], {"acc": 1 / 2, "wf1": (2 / 4) * 0.0 + (2 / 4) * (4 / 6)}),
    ([0, 1, 0], [0, 1, 2], {"acc": 2 / 3, "wf1": (1 / 3) * (2 / 3) + (1 / 3) * 1.0}),
    ([3, 3, 3, 4, 4], [3, 3, 3, 3, 4], {"acc": 4 / 5, "wf1": (4 / 5) * (6 / 7) + (1 / 5) * (2 / 3)}),
]


def test_metric_goldens_and_codec(capsys):
    checked = 0
    for preds, golds, want in WIDE_FIXTURES:
        got = mosei_metrics(preds, golds).values
        for key, value in want.items():
            assert got[key] == value, f"wide {preds} vs {golds}: {key} {got[key]} != {value}"
        checked += 1
    for preds, golds, want in NARROW_FIXTURES:
        got = sims_metrics(preds, golds).values
        for key, value in want.items():
            assert got[key] == value, f"narrow {preds} vs {golds}: {key} {got[key]} != {value}"
        checked += 1
    for preds, golds, want in EMOTION_FIXTURES:
        got = erc_metrics(preds, golds).values
        for key, value in want.items():
            assert got[key] == value, f"emotion {preds} vs {golds}: {key} {got[key]} != {value}"
        checked += 1

    round_trips = 0
    for i in range(-30, 31):
        value = i / 10
        text = format_label("score", value)
        parsed, fallback = parse_generated("score", text)
        assert not fallback and parsed == value, f"codec broke at {value}: {text!r}"
        round_trips += 1
    for cls in range(7):
        text = format_label("emotion", cls)
        parsed, fallback = parse_generated("emotion", text)
        assert not fallback and parsed == cls, f"codec broke at class {cls}"
        round_trips += 1

    _report(capsys, "metric goldens and codec", True,
            f"{checked} hand-computed fixtures matched bitwise across three "
            f"families, {round_trips} codec round-trips (one-decimal grid "
            f"and 7 classes)")


def test_parameter_accounting(capsys):
    target = 1_350_000
    sweep = sweep_mix_width(target, embed_width=2048, audio_width=74,
                            vision_width=35, audio_hidden=64, vision_hidden=32,
                            token_count=4)
    config = AdapterConfig(audio_width=74, vision_width=35, audio_hidden=64,
                           vision_hidden=32, mix_width=sweep["mix_width"],
                           token_count=4, embed_width=2048)
    closed_form = count_trainable(config)
    materialized = AdapterParams.init(config, np.random.default_rng(0)).count()
    consistent = closed_form == sweep["count"] == materialized
    if sweep["within_one_percent"]:
        detail = (f"mixing width {sweep['mix_width']} gives {sweep['count']:,} "
                  f"trainable values, within 1% of the {target:,} budget")
    else:
        detail = (f"no admissible mixing width lands within 1% of {target:,}; "
                  f"closest achievable is width {sweep['mix_width']} at "
                  f"{sweep['count']:,} ({sweep['relative_gap']:.1%} away)")
    _report(capsys, "parameter accounting", consistent, detail)


def test_subsampling_trend(workspace, full_run, capsys):
    accs = {}
    for fraction in ("0.2", "0.4"):
        report, _ = _train(workspace, f"train-frac-{fraction}",
                           "--train-fraction", fraction)
        accs[fraction] = report["per_seed"][0]["metrics"]["acc"]
    accs["1.0"] = full_run["acc"]
    ok = accs["0.2"] <= accs["0.4"] <= accs["1.0"]
    _report(capsys, "subsampling trend", ok,
            f"test accuracy {accs['0.2']:.3f} (20%) <= {accs['0.4']:.3f} (40%) "
            f"<= {accs['1.0']:.3f} (100%), monotone nondecreasing")


def _flip_one_bit(path: Path, offset: int) -> None:
    blob = bytearray(path.read_bytes())
    blob[offset] ^= 0x01
    path.write_bytes(bytes(blob))


def test_format_round_trips(small_backbone, small_adapter_config, tmp_path, capsys):
    # backbone container
    p1 = tmp_path / "a.mseb"
    p2 = tmp_path / "b.mseb"
    small_backbone.save(p1)
    loaded = FrozenBackbone.load(p1)
    assert loaded.checksum == small_backbone.checksum
    for name, tensor in small_backbone._weights.items():
        assert np.array_equal(loaded._weights[name].data, tensor.data)
    loaded.save(p2)
    assert p1.read_bytes() == p2.read_bytes()
    _flip_one_bit(p1, len(p1.read_bytes()) // 2)
    with pytest.raises(CheckpointError):
        FrozenBackbone.load(p1)

    # adapter container, exercising a variant with substitute states
    rng = np.random.default_rng(3)
    params = AdapterParams.init(small_adapter_config, rng)
    state = make_variant_state("no_audio_vision", small_adapter_config, rng)
    a1 = tmp_path / "a.msea"
    a2 = tmp_path / "b.msea"
    save_adapter(a1, params, state, backbone_checksum=12345)
    loaded_params, loaded_state, stored = load_adapter(a1)
    assert stored == 12345
    assert loaded_state.variant == "no_audio_vision"
    assert np.array_equal(loaded_state.subst_audio, state.subst_audio)
    assert np.array_equal(loaded_state.subst_vision, state.subst_vision)
    for (name, tensor), (name2, tensor2) in zip(params.named(), loaded_params.named()):
        assert name == name2 and np.array_equal(tensor.data, tensor2.data)
    save_adapter(a2, loaded_params, loaded_state, backbone_checksum=stored)
    assert a1.read_bytes() == a2.read_bytes()
    _flip_one_bit(a1, len(a1.read_bytes()) // 2)
    with pytest.raises(CheckpointError):
        load_adapter(a1)

    # feature matrix file
    f1 = tmp_path / "a.msef"
    f2 = tmp_path / "b.msef"
    features = np.random.default_rng(4).uniform(-5, 5, (7, 5)).astype(np.float32)
    write_features(f1, features)
    back = read_features(f1)
    assert np.array_equal(back.astype(np.float32), features)
    write_features(f2, back)
    assert f1.read_bytes() == f2.read_bytes()
    _flip_one_bit(f1, 16)
    with pytest.raises(InputError):
        read_features(f1)

    _report(capsys, "format round-trips", True,
            "backbone, adapter, and feature files reload bit-exactly and "
            "re-serialize to identical bytes; one flipped bit in any of them "
            "is caught by the checksum")
