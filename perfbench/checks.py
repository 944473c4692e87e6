"""Correctness checks, run after the timed region.

Each `check_*` function takes plain values and returns a list of failure
messages (empty when the check passes); `test_checks.py` shows each one
failing on a planted fault. The `verify_*` functions gather those values for
one workload from the program's artifacts and from the independent
reference, and run every check that applies.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

import reference as R
from mmadapt import adapter, backbone, corpus, tensor as T, trainer

TIE = 1e-9          # reference top-two logit gap at or below which either token is right
LOSS_RTOL = 1e-9    # program vs reference sample loss
LOGIT_TOL = 1e-9    # program vs reference logits, relative to max(1, |logit|)
GRAD_TOL = 1e-4     # tape gradient vs central differences
GRAD_STEP = 1e-5
GRAD_FLOOR = 1e-3   # gradients smaller than this are compared absolutely
RANK_TOL = 1e-9     # sigma2 / sigma1 of a pseudo-token block
METRIC_TOL = 1e-12
# a trained backbone must beat a uniform guess over 259 ids by two nats: on
# average it gives the right byte over seven times the uniform probability
UNIFORM_LOSS = math.log(R.VOCAB)
LOSS_CEILING = UNIFORM_LOSS - 2.0


def file_digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


# ---------------------------------------------------------------------------
# single checks


def check_equal(what: str, before, after) -> list[str]:
    return [] if before == after else [f"{what} changed: {before!r} -> {after!r}"]


def check_finite(what: str, values, count: int | None = None) -> list[str]:
    fails = []
    if count is not None and len(values) != count:
        fails.append(f"{what}: {len(values)} entries, expected {count}")
    bad = [i for i, v in enumerate(values) if not math.isfinite(v)]
    if bad:
        fails.append(f"{what}: non-finite at {bad[:5]}")
    return fails


def check_rank_one(blocks) -> list[str]:
    fails = []
    for i, block in enumerate(blocks):
        s = np.linalg.svd(block, compute_uv=False)
        if s[1] > RANK_TOL * s[0]:
            fails.append(f"pseudo-token block {i}: sigma2/sigma1 = {s[1] / s[0]:.3e}")
    return fails


def check_losses_agree(program, ref) -> list[str]:
    return [f"sample {i}: program loss {p!r} vs reference {r!r}"
            for i, (p, r) in enumerate(zip(program, ref))
            if abs(p - r) > LOSS_RTOL * abs(r)]


def check_gradients(tape, numeric) -> list[str]:
    return [f"coordinate {i}: tape {a:.6e} vs central difference {n:.6e}"
            for i, (a, n) in enumerate(zip(tape, numeric))
            if abs(a - n) > GRAD_TOL * max(abs(a), abs(n), GRAD_FLOOR)]


def check_logits(program: np.ndarray, ref: np.ndarray) -> list[str]:
    err = np.abs(program - ref) / np.maximum(1.0, np.abs(ref))
    worst = float(err.max())
    return [] if worst <= LOGIT_TOL else [f"logits differ from the reference by {worst:.3e}"]


def check_causal(logits_fn, ids: list[int], embed) -> list[str]:
    """Rows before a changed token must keep bit-identical logits."""
    cut = len(ids) // 2
    changed = list(ids[:cut]) + [(i + 1) % 256 for i in ids[cut:]]
    a, b = logits_fn(embed(ids)), logits_fn(embed(changed))
    if not np.array_equal(a[:cut], b[:cut]):
        return ["logits before a changed token moved: future tokens leak"]
    return []


def check_greedy(steps_per_sample) -> list[str]:
    """`steps_per_sample[i]` holds (emitted, reference argmax, reference gap)
    for each decode step of sample i, as `reference.greedy_steps` returns."""
    fails = []
    for i, steps in enumerate(steps_per_sample):
        for t, (emitted, best, gap) in enumerate(steps):
            if emitted != best and gap > TIE:
                fails.append(f"sample {i} step {t}: emitted {emitted}, reference {best} "
                             f"(gap {gap:.3e})")
                break
    return fails


def check_metrics(reported: dict, preds, golds, class_count: int) -> list[str]:
    want = R.emotion_metrics(preds, golds, class_count)
    return [f"{k}: reported {reported.get(k)!r}, recomputed {v!r}" for k, v in want.items()
            if reported.get(k) is None or abs(reported[k] - v) > METRIC_TOL]


def check_corpus_loss(mean_loss: float) -> list[str]:
    if mean_loss <= LOSS_CEILING:
        return []
    return [f"mean corpus loss {mean_loss:.4f} is not below {LOSS_CEILING:.4f} "
            f"(uniform guess {UNIFORM_LOSS:.4f})"]


# ---------------------------------------------------------------------------
# values gathered from the program and the reference


def numeric_gradient(loss_fn, weights: dict, coords) -> list[float]:
    """Central differences of loss_fn() in the given (name, flat index) coordinates."""
    out = []
    for name, idx in coords:
        flat = weights[name].reshape(-1)
        keep = flat[idx]
        flat[idx] = keep + GRAD_STEP
        hi = loss_fn()
        flat[idx] = keep - GRAD_STEP
        lo = loss_fn()
        flat[idx] = keep
        out.append((hi - lo) / (2 * GRAD_STEP))
    return out


def tape_gradient(bb, params, prepared, state, coords) -> list[float]:
    params.zero_grads()
    with T.Tape() as tape:
        loss = trainer.sample_loss(bb, params, prepared, state)
        tape.backward(loss)
    grads = [float(params[name].grad.reshape(-1)[idx]) for name, idx in coords]
    params.zero_grads()
    return grads


def pseudo_block(params, prepared, state) -> np.ndarray:
    return adapter.build_pseudo_tokens(params, T.Tensor(prepared.text_rows), T.Tensor(prepared.audio),
                                       T.Tensor(prepared.vision), state).data


def verify_train(inputs: dict, result: dict, rng: np.random.Generator) -> list[str]:
    fails = check_equal("backbone file", inputs["backbone_digest"], file_digest(inputs["backbone"]))
    fails += check_equal("backbone checksum", result["checksum_before"], result["checksum_after"])
    first, last = {}, None
    for chunk, report in result["reports"]:
        first.setdefault(chunk, report)
        if report != first[chunk]:
            fails.append(f"a call on chunk {chunk} reports differently from its first call")
        last = report
    if last is None:
        return fails + ["no multi_seed_run call succeeded"]
    ds = corpus.load_dataset(inputs["dataset"])
    bb = backbone.FrozenBackbone.load(inputs["backbone"])
    ref_bb = R.Backbone.from_file(inputs["backbone"])
    records = {r["id"]: r for r in R.read_manifest(inputs["dataset"])}
    prompt = ds.preset.prompt
    out_dir = Path(result["out_dir"])
    # the checkpoints and logs on disk are the last call's
    for row in last["per_seed"]:
        seed = row["seed"]
        log = out_dir / f"train-full-seed{seed}.jsonl"
        steps = [json.loads(line) for line in log.read_text(encoding="utf-8").splitlines()]
        losses = [s["loss"] for s in steps if "step" in s]
        fails += check_finite(f"seed {seed} step losses", losses, inputs["steps_per_seed"])
        ckpt = out_dir / f"adapter-full-seed{seed}.msea"
        params, state, recorded = adapter.load_adapter(ckpt)
        fails += check_equal(f"seed {seed} checkpoint's backbone checksum",
                             result["checksum_before"], recorded)
        ref_ad = R.Adapter.from_file(ckpt)
        picks = [ds["train"][int(i)] for i in rng.choice(len(ds["train"]), 3, replace=False)]
        prepared = trainer.prepare_samples(bb, picks, ds.preset, params.config.token_count,
                                           state.drops_text_input)
        fails += check_rank_one([pseudo_block(params, p, state) for p in prepared])
        fails += check_losses_agree(
            [trainer.sample_loss(bb, params, p, state).item() for p in prepared],
            [R.sample_loss(ref_bb, ref_ad, records[p.sid], prompt) for p in prepared])
        names = [n for n, _ in params.named()]
        coords = []
        for _ in range(4):
            name = names[int(rng.integers(len(names)))]
            coords.append((name, int(rng.integers(params[name].data.size))))
        rec = records[prepared[0].sid]
        fails += check_gradients(
            tape_gradient(bb, params, prepared[0], state, coords),
            numeric_gradient(lambda: R.sample_loss(ref_bb, ref_ad, rec, prompt), ref_ad.w, coords))
        valid = trainer.prepare_samples(bb, ds["valid"], ds.preset, params.config.token_count,
                                        state.drops_text_input)
        again = trainer.evaluate_split(bb, params, state, valid, ds.preset).primary
        fails += check_equal(f"seed {seed} best_valid on reload", row["best_valid"], again)
    return fails


def verify_eval(inputs: dict, result: dict) -> list[str]:
    ref_bb = R.Backbone.from_file(inputs["backbone"])
    ref_ad = R.Adapter.from_file(inputs["checkpoint"])
    records = {r["id"]: r for r in R.read_manifest(inputs["dataset"])}
    prompt = inputs["prompt"]
    class_count = inputs["class_count"]
    tokens = result["tokens"]
    if len(tokens) != len(result["sids"]) or len(result["preds"]) != len(result["sids"]):
        return ["captured generations do not cover every sample"]
    steps = [R.greedy_steps(ref_bb, R.sample_rows(ref_bb, ref_ad, records[sid], prompt)[0],
                            ids, result["budget"])
             for sid, ids in zip(result["sids"], tokens)]
    fails = check_greedy(steps)
    parsed = [R.parse_class(ids, class_count) for ids in tokens]
    fails += [f"sample {i}: parsed {p}, program predicted {q}"
              for i, (p, q) in enumerate(zip(parsed, result["preds"])) if p != q][:5]
    preds, golds, size = result["preds"], result["golds"], result["chunk"]
    fails += check_metrics(result["whole"]["values"], preds, golds, class_count)
    for idx, report in result["chunk_reports"]:
        part = slice(idx * size, (idx + 1) * size)
        fails += [f"timed chunk {idx}: {f}" for f in
                  check_metrics(report["values"], preds[part], golds[part], class_count)]
    return fails


def verify_pretrain(inputs: dict, result: dict) -> list[str]:
    losses = result["losses"]
    if not losses or result["saved"] is None:
        return ["no pretrain_backbone call succeeded"]
    fails = check_finite("pretraining losses", losses[-1], inputs["steps"])
    fails += [f"call {i} losses differ from call 0" for i, l in enumerate(losses) if l != losses[0]]
    bb = backbone.FrozenBackbone.load(result["saved"])
    fails += check_equal("reloaded backbone checksum", result["checksum"], bb.checksum)
    ref_bb = R.Backbone.from_file(result["saved"])
    program_logits = lambda rows: bb.forward_rows(T.Tensor(rows)).data
    encoded = [R.byte_ids(line) + [R.EOS] for line in result["lines"]]
    for ids in encoded[:3]:
        rows = ref_bb.embed(ids[:-1])
        fails += check_logits(program_logits(rows), ref_bb.logits(rows))
        fails += check_causal(program_logits, ids[:-1], ref_bb.embed)
    fails += check_corpus_loss(float(np.mean([ref_bb.line_loss(ids) for ids in encoded])))
    return fails


def verify(workload: str, inputs: dict, result: dict, seed: int) -> list[str]:
    if workload == "train-acceptance":
        return verify_train(inputs, result, np.random.default_rng(seed))
    if workload == "eval-greedy":
        return verify_eval(inputs, result)
    return verify_pretrain(inputs, result)
