"""Adapter training against a frozen backbone.

The trainable adapter turns one sample's feature sequences into pseudo-token
rows. Those rows are prepended to the frozen embedding rows of the sample's
text and prompt; during training the gold label tokens (plus the end marker)
are appended and each is predicted from the position immediately before it.
Only adapter parameters receive gradient updates; the backbone checksum is
verified before and after every run.

Backbone pretraining corpus: every line keeps the exact geometry of an
adapter-time input by starting with a prefix of the same byte length as the
pseudo-token block. Half the lines carry an informative prefix (the label
text cycled to the prefix length), half carry a neutral all-space prefix, so
the frozen net learns both to read a planted prefix and to fall back on the
raw text when the prefix is uninformative.
"""

from __future__ import annotations

import contextlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import backbone as B
from . import tensor as T
from .adapter import (
    VARIANTS,
    AdapterConfig,
    AdapterParams,
    VariantState,
    build_pseudo_tokens,
    make_variant_state,
    save_adapter,
)
from .backbone import EOS, FrozenBackbone, generate, tokenize
from .corpus import Dataset, FeatureSample, subsample_train
from .errors import ConfigError, InputError, LengthError, MmadaptError
from .metrics import MetricReport, format_label, parse_generated, score_predictions
from .optim import AdamWState, adamw_step, clip_global_norm, lr_schedule
from .parallel import run_in_pool, usable_workers
from .presets import SEEDS, DatasetPreset
from .serialize import write_atomic


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 5e-3
    epochs: int = 20
    batch_size: int = 32
    warmup_fraction: float = 0.1
    clip_norm: float = 1.0
    weight_decay: float = 0.0
    seeds: tuple[int, ...] = SEEDS
    variant: str = "full"
    train_fraction: float = 1.0

    def __post_init__(self) -> None:
        if not (self.learning_rate > 0 and math.isfinite(self.learning_rate)):
            raise ConfigError(f"learning rate must be finite and > 0, got {self.learning_rate}")
        if not (0.0 <= self.warmup_fraction < 1.0):
            raise ConfigError(f"warmup fraction must be in [0, 1), "
                              f"got {self.warmup_fraction}")
        if self.epochs < 0:
            raise ConfigError(f"epochs must be >= 0, got {self.epochs}")
        if self.batch_size < 1:
            raise ConfigError(f"batch size must be >= 1, got {self.batch_size}")
        if not (self.clip_norm > 0 and math.isfinite(self.clip_norm)):
            raise ConfigError(f"clip norm must be finite and > 0, got {self.clip_norm}")
        if not (self.weight_decay >= 0 and math.isfinite(self.weight_decay)):
            raise ConfigError(f"weight decay must be finite and >= 0, got {self.weight_decay}")
        if not (0.0 < self.train_fraction <= 1.0):
            raise ConfigError(f"train fraction must be in (0, 1], "
                              f"got {self.train_fraction}")
        if self.variant not in VARIANTS:
            raise ConfigError(f"unknown variant {self.variant!r}")
        if not self.seeds:
            raise ConfigError("need at least one seed")
        object.__setattr__(self, "seeds", tuple(int(s) for s in self.seeds))


# ---------------------------------------------------------------------------
# label loss


def label_loss(logits: T.Tensor, labels: list[list[int]],
               offsets: list[int] | None = None) -> T.Tensor:
    """Each sample's sum of next-token cross-entropies over its label block,
    (B,) for the B = len(labels) samples.

    `logits` holds W rows per sample, stacked, W one more than the longest
    label block. Sample b's label window, the row just before its label
    block and then the block itself, starts offsets[b] rows into the
    sample's W (at its first row when None). Row i of a window predicts
    label token i (the end marker included); the window's last row, and
    every row outside the window, predicts nothing.
    """
    if not labels or min(len(ids) for ids in labels) < 1:
        raise InputError("need at least one label token")
    w = max(len(ids) for ids in labels) + 1
    if logits.shape[0] != len(labels) * w:
        raise InputError(f"a label window of up to {w - 1} ids needs {w} logits rows per "
                         f"sample, got {logits.shape[0]} rows for {len(labels)}")
    targets = np.zeros((len(labels), w), dtype=np.int64)
    mask = np.zeros((len(labels), w), dtype=bool)
    for b, (ids, at) in enumerate(zip(labels, offsets or [0] * len(labels))):
        if not 0 <= at <= w - 1 - len(ids):
            raise InputError(f"a window of {len(ids) + 1} rows cannot start at row {at} of {w}")
        targets[b, at:at + len(ids)] = ids
        mask[b, at:at + len(ids)] = True
    return T.rows_cross_entropy(logits, targets.reshape(-1), groups=len(labels),
                                mask=mask.reshape(-1))


# ---------------------------------------------------------------------------
# sample preparation


@dataclass
class PreparedSample:
    """One sample prepared for the backbone, whose input `padded_inputs` lays
    out as [pseudo | text | prompt | label]. `const_rows` are the frozen
    embedding rows of the text (empty when the variant drops it), prompt and
    label ids; the `n_prefix` pseudo rows come from the adapter. `text_rows`
    feed the adapter's text gate. Both are views of one block of rows shared
    with the samples prepared beside this one, so nothing writes into them."""

    sid: str
    gold: float
    audio: np.ndarray
    vision: np.ndarray
    text_rows: np.ndarray
    const_rows: np.ndarray
    n_prefix: int
    label_ids: list[int]

    @property
    def length(self) -> int:
        """The rows of the training input."""
        return self.n_prefix + self.const_rows.shape[0]


# samples per embedding gather in prepare_samples and per adapter forward in
# evaluate_split: a whole split's rows, or a whole split's LSTM states, would
# be one allocation of megabytes, which the heap grows by whenever it has no
# free run that long
BLOCK = 64


def label_text(preset: DatasetPreset, value: float) -> str:
    return format_label(preset.task, value, score_range=preset.score_range,
                        class_count=preset.class_count)


def label_token_ids(preset: DatasetPreset, value: float) -> list[int]:
    return tokenize(label_text(preset, value)) + [EOS]


def eval_token_budget(preset: DatasetPreset) -> int:
    """Greedy decoding steps that cover the longest canonical label plus the
    end marker: that of the range end of larger magnitude, or of the last
    class."""
    if preset.task == "score":
        return len(label_token_ids(preset, max(preset.score_range, key=abs)))
    return len(label_token_ids(preset, preset.class_count - 1))


def prepare_samples(backbone: FrozenBackbone, samples: list[FeatureSample],
                    preset: DatasetPreset, n_prefix: int,
                    drops_text: bool) -> list[PreparedSample]:
    """The samples in order, prepared for `backbone`. Every sample is checked
    against max_seq before any is embedded. Then each block of BLOCK
    samples takes its text, prompt and label rows from one embedding
    gather, and each sample's `text_rows` and `const_rows` are views of its
    own rows there."""
    prompt_ids = tokenize(preset.prompt)
    max_seq = backbone.config.max_seq
    pieces = []
    for s in samples:
        text_ids, label_ids = tokenize(s.text), label_token_ids(preset, s.label)
        length = n_prefix + len(prompt_ids) + len(label_ids) + (0 if drops_text else len(text_ids))
        if length > max_seq:
            raise LengthError(f"sample {s.sid!r}: input length {length} exceeds max {max_seq}")
        pieces.append((text_ids, label_ids))
    prepared = []
    for b in range(0, len(samples), BLOCK):
        block = pieces[b:b + BLOCK]
        ids = []
        for text_ids, label_ids in block:
            ids += text_ids
            ids += prompt_ids
            ids += label_ids
        rows = backbone.embed(ids)
        at = 0
        for s, (text_ids, label_ids) in zip(samples[b:b + BLOCK], block):
            prompt_at = at + len(text_ids)
            end = prompt_at + len(prompt_ids) + len(label_ids)
            prepared.append(PreparedSample(
                s.sid, s.label, s.audio, s.vision, rows[at:prompt_at],
                rows[prompt_at if drops_text else at:end], n_prefix, label_ids))
            at = end
    return prepared


def pseudo_blocks(params: AdapterParams, batch: list[PreparedSample],
                   state: VariantState) -> T.Tensor:
    """One adapter forward over a batch: the samples' pseudo-token blocks,
    stacked in batch order."""
    def wrap(arrays):
        return [T.Tensor._wrap(a, False, None) for a in arrays]

    return build_pseudo_tokens(params, wrap(p.text_rows for p in batch),
                               wrap(p.audio for p in batch),
                               wrap(p.vision for p in batch), state)


def padded_inputs(batch: list[PreparedSample], pseudo: T.Tensor,
                  labels: bool = True) -> tuple[T.Tensor, np.ndarray]:
    """The backbone input of a batch given its stacked pseudo-token blocks:
    each sample's pseudo rows, then its constant rows (without the label
    block when `labels` is False), right-padded with zero rows to the
    longest sample and stacked in batch order; and each sample's own row
    count."""
    n = batch[0].n_prefix
    if pseudo.shape[0] != len(batch) * n:
        raise T.DimensionError(f"{len(batch)} pseudo prefixes of {n} rows need "
                               f"{len(batch) * n} rows, got {pseudo.shape}")
    consts = [p.const_rows if labels else p.const_rows[:len(p.const_rows) - len(p.label_ids)]
              for p in batch]
    lengths = np.array([n + len(c) for c in consts])
    # one block of zero rows, as many as the shortest sample lacks; each
    # sample's padding is a view of it, so the batch is copied only once
    pad = lengths.max() - lengths
    zeros = np.zeros((int(pad.max()), pseudo.shape[1]))
    parts = []
    for i, c in enumerate(consts):
        parts += [T.slice_rows(pseudo, i * n, (i + 1) * n), T.Tensor._wrap(c, False, None),
                  T.Tensor._wrap(zeros[:pad[i]], False, None)]
    return T.concat_rows(parts), lengths


def block_losses(backbone: FrozenBackbone, batch: list[PreparedSample],
                 pseudo: T.Tensor) -> T.Tensor:
    """Label losses of a batch given its stacked pseudo-token blocks, (B,),
    from one backbone forward over the samples' inputs, each right-padded
    to the longest.

    Each label block ends its sample's input, and each label token is
    predicted from the row before it, so the final layer computes only each
    sample's last len(label) + 1 rows, padded to the longest such window:
    the W rows from min(length - window, longest input - W), which hold the
    window and stay inside the input rows. Attention is causal, so these
    rows equal those of each sample's own full forward, and the rows outside
    the windows add no loss and pass back no gradient.
    """
    rows, lengths = padded_inputs(batch, pseudo)
    l = int(lengths.max())
    w = max(len(p.label_ids) for p in batch) + 1
    starts = [p.length - len(p.label_ids) - 1 for p in batch]
    first = [min(start, l - w) for start in starts]
    logits = backbone.forward_rows(rows, last=w, first=first)
    return label_loss(logits, [p.label_ids for p in batch],
                      [start - f for start, f in zip(starts, first)])


def sample_loss(backbone: FrozenBackbone, params: AdapterParams,
                p: PreparedSample, state: VariantState) -> T.Tensor:
    """Label loss of one sample, its adapter forward included."""
    return block_losses(backbone, [p], pseudo_blocks(params, [p], state))


def batch_step(backbone: FrozenBackbone, params: AdapterParams,
               batch: list[PreparedSample], state: VariantState) -> list[float]:
    """Accumulate the gradient of the batch's mean label loss into the adapter
    parameters; return each sample's loss.

    Three steps, so that only one sub-batch's backbone activations are alive
    at a time: one adapter forward over the whole batch on its own tape; the
    losses of each sub-batch (`sub_batches` of TRAIN_BLOCK samples and
    TRAIN_ROWS rows) on a tape of their own, with the sub-batch's stacked
    pseudo-token rows as a leaf; then one replay of the adapter tape, seeded
    with the leaves' gradients.
    """
    n = params.config.token_count
    with T.Tape() as adapter_tape:
        pseudo = pseudo_blocks(params, batch, state)
    blocks = pseudo.data.reshape(len(batch), n, -1)
    leaf_grads = np.empty_like(blocks)
    losses = np.empty(len(batch))
    for sub in B.sub_batches([p.length for p in batch], B.TRAIN_BLOCK, B.TRAIN_ROWS):
        leaf = T.Tensor._wrap(blocks[sub].reshape(len(sub) * n, -1), True, None)
        with T.Tape() as tape:
            sub_losses = block_losses(backbone, [batch[i] for i in sub], leaf)
            tape.backward(sub_losses, grad=np.full(len(sub), 1.0 / len(batch)))
        leaf_grads[sub] = leaf.grad.reshape(len(sub), n, -1)
        losses[sub] = sub_losses.data
    adapter_tape.backward(pseudo, grad=leaf_grads.reshape(pseudo.shape))
    return losses.tolist()


# ---------------------------------------------------------------------------
# evaluation


def evaluate_split(backbone: FrozenBackbone, params: AdapterParams,
                   state: VariantState, prepared: list[PreparedSample],
                   preset: DatasetPreset) -> MetricReport:
    """Greedy generation, parsing, and family metrics over prepared samples.
    Each block of BLOCK samples takes one adapter forward and one `generate`
    call over its input as `padded_inputs` lays it out without the label
    block; the texts are parsed in split order."""
    if not prepared:
        raise InputError("cannot evaluate an empty split")
    budget = eval_token_budget(preset)
    preds: list[float] = []
    golds: list[float] = []
    fallbacks = 0
    for start in range(0, len(prepared), BLOCK):
        block = prepared[start:start + BLOCK]
        rows, lengths = padded_inputs(block, pseudo_blocks(params, block, state), labels=False)
        for p, text in zip(block, generate(backbone, rows, lengths, max_new=budget)):
            value, fb = parse_generated(preset.task, text, class_count=preset.class_count)
            fallbacks += int(fb)
            preds.append(value)
            golds.append(p.gold)
    return score_predictions(preset.metric_family, preds, golds,
                             fallback_count=fallbacks,
                             class_count=preset.class_count)


# ---------------------------------------------------------------------------
# backbone pretraining corpus


NEUTRAL_HINT_BYTE = " "


def build_pretrain_corpus(dataset: Dataset, preset: DatasetPreset,
                          n_prefix: int) -> list[str]:
    """Unique next-token training lines mirroring adapter-time geometry.

    Every train sample yields two lines: one whose first n_prefix bytes cycle
    the label text (the slots the pseudo tokens will occupy), and one whose
    prefix is neutral padding, forcing the net to also learn the text route.
    """
    if n_prefix < 0:
        raise ConfigError(f"prefix length must be >= 0, got {n_prefix}")
    lines: list[str] = []
    seen: set[str] = set()
    for s in dataset["train"]:
        label = label_text(preset, s.label)
        body = s.text + preset.prompt + label
        hinted = (label * n_prefix)[:n_prefix] + body
        neutral = NEUTRAL_HINT_BYTE * n_prefix + body
        for line in (hinted, neutral):
            if len(tokenize(line)) != n_prefix + len(tokenize(body)):
                raise ConfigError("prefix bytes must tokenize one-to-one; "
                                  "use ASCII label and prompt text")
            if line not in seen:
                seen.add(line)
                lines.append(line)
    if not lines:
        raise InputError("train split produced no pretraining lines")
    return lines


# ---------------------------------------------------------------------------
# training runs


@dataclass
class RunResult:
    seed: int
    variant: str
    best_epoch: int | None
    best_valid: float | None
    step_losses: list[float]
    params: AdapterParams
    state: VariantState
    checkpoint_path: Path | None


def train_run(backbone: FrozenBackbone, dataset: Dataset,
              adapter_config: AdapterConfig, config: TrainConfig, seed: int,
              out_dir: str | Path | None = None) -> RunResult:
    """One seeded training run; returns the best-validation parameters.

    Deterministic: the RNG draws happen in a fixed order (parameter init,
    then variant substitutes, then one shuffle per epoch), so a given
    (config, dataset, backbone, seed) always produces identical checkpoint
    bytes.
    """
    backbone.verify()
    preset = dataset.preset
    rng = np.random.default_rng(seed)
    params = AdapterParams.init(adapter_config, rng)
    state = make_variant_state(config.variant, adapter_config, rng)

    train_samples = subsample_train(dataset["train"], config.train_fraction, seed)
    if not train_samples:
        raise InputError("empty train split")
    prepared_train = prepare_samples(backbone, train_samples, preset,
                                     adapter_config.token_count,
                                     state.drops_text_input)
    prepared_valid = prepare_samples(backbone, dataset["valid"], preset,
                                     adapter_config.token_count,
                                     state.drops_text_input)

    batches_per_epoch = math.ceil(len(prepared_train) / config.batch_size)
    total_steps = max(1, config.epochs * batches_per_epoch)
    opt_state = AdamWState()
    best_params = params.clone()
    best_valid: float | None = None
    best_epoch: int | None = None
    step_losses: list[float] = []
    log_lines: list[str] = []
    step = 0

    for epoch in range(1, config.epochs + 1):
        order = rng.permutation(len(prepared_train))
        epoch_losses: list[float] = []
        for start in range(0, len(order), config.batch_size):
            batch = order[start:start + config.batch_size]
            lr = lr_schedule(step, total_steps, config.learning_rate,
                             config.warmup_fraction)
            params.zero_grads()
            batch_losses = batch_step(backbone, params,
                                      [prepared_train[int(i)] for i in batch], state)
            grad_norm = clip_global_norm(params.named(), config.clip_norm)
            adamw_step(params.named(), opt_state, lr,
                       weight_decay=config.weight_decay)
            mean_loss = float(np.mean(batch_losses))
            step_losses.append(mean_loss)
            log_lines.append(json.dumps({"step": step, "lr": lr,
                                         "loss": mean_loss,
                                         "grad_norm": grad_norm}))
            step += 1
            epoch_losses.extend(batch_losses)
        valid_report = evaluate_split(backbone, params, state, prepared_valid,
                                      preset)
        metric = valid_report.primary
        record = {"epoch": epoch, "train_loss": float(np.mean(epoch_losses)),
                  "valid_metric": metric,
                  "valid_fallbacks": valid_report.fallback_count}
        log_lines.append(json.dumps(record))
        if metric is not None and (best_valid is None or metric > best_valid):
            best_valid = metric
            best_epoch = epoch
            best_params = params.clone()

    backbone.verify()

    checkpoint_path: Path | None = None
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        checkpoint_path = out / f"adapter-{config.variant}-seed{seed}.msea"
        save_adapter(checkpoint_path, best_params, state,
                     backbone_checksum=backbone.checksum)
        log = "".join(line + "\n" for line in log_lines)
        write_atomic(out / f"train-{config.variant}-seed{seed}.jsonl", log.encode("utf-8"))
    return RunResult(seed, config.variant, best_epoch, best_valid, step_losses,
                     best_params, state, checkpoint_path)


# ---------------------------------------------------------------------------
# multi-seed protocol


@dataclass
class RunReport:
    variant: str
    eval_split: str
    per_seed: list[dict]
    mean: dict[str, float | None]
    std: dict[str, float | None]
    failed_seeds: list[dict] = field(default_factory=list)

    def to_json(self) -> dict:
        return {"variant": self.variant, "eval_split": self.eval_split,
                "per_seed": self.per_seed, "mean": self.mean, "std": self.std,
                "failed_seeds": self.failed_seeds}


def aggregate_seed_metrics(rows: list[dict[str, float | None]]):
    """Arithmetic mean and population standard deviation per metric key.

    Keys where any seed reports an undefined value aggregate to None, keeping
    the mean an honest plain average of the rows underneath it.
    """
    if not rows:
        return {}, {}
    keys = rows[0].keys()
    mean: dict[str, float | None] = {}
    std: dict[str, float | None] = {}
    for key in keys:
        values = [r[key] for r in rows]
        if any(v is None for v in values):
            mean[key] = None
            std[key] = None
            continue
        m = sum(values) / len(values)
        mean[key] = m
        std[key] = math.sqrt(sum((v - m) ** 2 for v in values) / len(values))
    return mean, std


def run_cell(backbone: FrozenBackbone, dataset: Dataset, adapter_config: AdapterConfig,
             config: TrainConfig, seed: int, prepared: list[PreparedSample],
             out_dir: str | Path | None) -> dict:
    """Train one (variant, seed) cell and evaluate its best parameters on the
    prepared eval split: the seed's row of the report, or its failed row
    {"seed", "error"} when the run raised a package error."""
    try:
        result = train_run(backbone, dataset, adapter_config, config, seed, out_dir)
        report = evaluate_split(backbone, result.params, result.state, prepared,
                                dataset.preset)
    except MmadaptError as exc:
        return {"seed": seed, "error": f"{type(exc).__name__}: {exc}"}
    return {"seed": seed, "metrics": dict(report.values), "best_epoch": result.best_epoch,
            "best_valid": result.best_valid, "fallbacks": report.fallback_count}


# the backbone a pool worker rebuilt last, by checksum: the cells of a run,
# and repeated runs against one checkpoint, ship the same weights
_rebuilt: dict[int, FrozenBackbone] = {}


def _run_cell_in_worker(shipped: tuple, *cell) -> dict:
    """`run_cell` in a pool worker, on the backbone rebuilt from `shipped`,
    its (config, arrays, checksum)."""
    checksum = shipped[2]
    if checksum not in _rebuilt:
        backbone = FrozenBackbone.rebuild(*shipped)
        _rebuilt.clear()
        _rebuilt[checksum] = backbone
    return run_cell(_rebuilt[checksum], *cell)


def _seed_report(variant: str, eval_split: str, rows: list[dict],
                 out_dir: str | Path | None) -> RunReport:
    per_seed = [r for r in rows if "error" not in r]
    failed = [r for r in rows if "error" in r]
    if not per_seed:
        raise InputError(f"every seed failed: {failed}")
    mean, std = aggregate_seed_metrics([r["metrics"] for r in per_seed])
    report = RunReport(variant, eval_split, per_seed, mean, std, failed)
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        path = out / f"report-{variant}.json"
        write_atomic(path, (json.dumps(report.to_json(), indent=2) + "\n").encode("utf-8"))
    return report


def multi_variant_run(backbone: FrozenBackbone, dataset: Dataset,
                      adapter_config: AdapterConfig, configs: list[TrainConfig],
                      out_dir: str | Path | None = None,
                      eval_split: str = "test") -> list[RunReport]:
    """Every (variant, seed) cell of `configs` in one go; one report per
    config, in order, each written as soon as its cells are done.

    Each config's eval split is prepared once. The cells run in the worker
    pool, as many at once as there are usable CPUs; a single cell, or a
    single CPU, runs them in this process. The workers write the checkpoints
    and step logs; the reports are written here, with the seeds in their
    order, so every output is the same whatever the number of CPUs.
    """
    cells = []
    for config in configs:
        prepared = prepare_samples(backbone, dataset[eval_split], dataset.preset,
                                   adapter_config.token_count,
                                   VariantState(config.variant).drops_text_input)
        cells += [(dataset, adapter_config, config, seed, prepared, out_dir)
                  for seed in config.seeds]
    if usable_workers(len(cells)) == 1:
        rows = (run_cell(backbone, *cell) for cell in cells)
    else:
        shipped = (backbone.config, backbone.arrays(), backbone.checksum)
        rows = run_in_pool(_run_cell_in_worker, [(shipped, *cell) for cell in cells])
    # closing stops the cells still running when a report raises
    with contextlib.closing(rows):
        return [_seed_report(config.variant, eval_split, [next(rows) for _ in config.seeds],
                             out_dir)
                for config in configs]


def multi_seed_run(backbone: FrozenBackbone, dataset: Dataset,
                   adapter_config: AdapterConfig, config: TrainConfig,
                   out_dir: str | Path | None = None,
                   eval_split: str = "test") -> RunReport:
    """Train once per seed, evaluate each best checkpoint, report the average.

    A failing seed is recorded with its error and excluded from the average;
    at least one seed must succeed. The seeds run side by side as
    `multi_variant_run` describes.
    """
    return multi_variant_run(backbone, dataset, adapter_config, [config], out_dir,
                             eval_split)[0]
