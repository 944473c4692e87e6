"""Command-line surface tying the modules together.

Six subcommands: synth, pretrain-backbone, train, eval, ablate, gradcheck.
Every knob can come from a flat JSON config file (--config) and be overridden
by the matching command-line flag; the merged effective configuration is
archived as JSON next to the outputs before any work starts.

Exit codes: 0 success; 1 configuration or input validation failure; 2
numeric or unexpected runtime failure, or a worker process that died; 3
broken internal guarantee (frozen weights drifted, or the gradient suite
fails).

The default output root is ./runs, overridable with the MMADAPT_OUTPUT_ROOT
environment variable.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import traceback
from dataclasses import fields
from pathlib import Path

from .adapter import VARIANTS, AdapterConfig, load_adapter
from .backbone import BackboneConfig, FrozenBackbone, check_pretrain_knobs, pretrain_backbone
from .corpus import Dataset, SyntheticSpec, generate_synthetic, load_dataset
from .errors import (
    CheckpointError,
    ConfigError,
    FrozenViolation,
    MmadaptError,
    NumericError,
    TapeStateError,
    WorkerError,
)
from .gradcheck import gradcheck_full, gradcheck_primitives, render_results
from .metrics import MetricReport, ablation_report
from .presets import SEEDS
from .serialize import write_atomic
from .trainer import (
    TrainConfig,
    build_pretrain_corpus,
    evaluate_split,
    multi_seed_run,
    multi_variant_run,
    prepare_samples,
)

ENV_OUTPUT_ROOT = "MMADAPT_OUTPUT_ROOT"

# default of a knob that every run must set, by flag or config file
_REQUIRED = object()

# knobs shared by train and ablate; ablate trains every variant on the whole
# train split, so it takes all of them except variant and train_fraction
_TRAIN_KNOBS: dict[str, tuple] = {
    "dataset": (str, _REQUIRED, "dataset directory"),
    "backbone": (str, _REQUIRED, "frozen backbone checkpoint"),
    "out": (str, None, "output directory (default <root>/<subcommand>)"),
    "seed": (int, None, "single seed overriding the seed list"),
    "seeds": (str, None, "comma-separated seed list (default preset five)"),
    "variant": (str, TrainConfig.variant, "ablation variant"),
    "epochs": (int, TrainConfig.epochs, "training epochs"),
    "batch_size": (int, TrainConfig.batch_size, "gradient accumulation group size"),
    "learning_rate": (float, None, "peak learning rate (default: preset)"),
    "warmup_fraction": (float, TrainConfig.warmup_fraction, "linear warmup fraction"),
    "clip_norm": (float, TrainConfig.clip_norm, "global gradient clip"),
    "weight_decay": (float, TrainConfig.weight_decay, "decoupled weight decay"),
    "train_fraction": (float, TrainConfig.train_fraction, "train subsample fraction"),
    "audio_hidden": (int, None, "audio summary width (default: preset)"),
    "vision_hidden": (int, None, "vision summary width (default: preset)"),
    "mix_width": (int, 64, "shared mixing width"),
    "token_count": (int, None, "pseudo tokens (default: preset)"),
}

# flat schemas: key -> (type, default, help); a None default is resolved
# later, from the dataset preset or the output root
_SCHEMAS: dict[str, dict[str, tuple]] = {
    "synth": {
        "out": (str, None, "dataset directory to create (default <root>/synth)"),
        "seed": (int, SyntheticSpec.seed, "generator seed"),
        "classes": (int, SyntheticSpec.class_count, "number of planted classes"),
        "noise": (float, SyntheticSpec.noise, "feature noise sigma"),
        "train": (int, SyntheticSpec.train, "train split size"),
        "valid": (int, SyntheticSpec.valid, "validation split size"),
        "test": (int, SyntheticSpec.test, "test split size"),
        "audio_width": (int, SyntheticSpec.audio_width, "audio feature width"),
        "vision_width": (int, SyntheticSpec.vision_width, "vision feature width"),
        "min_len": (int, SyntheticSpec.min_len, "shortest feature sequence"),
        "max_len": (int, SyntheticSpec.max_len, "longest feature sequence"),
    },
    "pretrain-backbone": {
        "dataset": (str, _REQUIRED, "dataset directory"),
        "out": (str, None, "output directory (default <root>/pretrain-backbone)"),
        "seed": (int, 7, "initialization and sampling seed"),
        "steps": (int, 1500, "pretraining steps"),
        "lr": (float, 3e-3, "peak learning rate"),
        "weight_decay": (float, 0.0, "decoupled weight decay"),
        "embed_width": (int, BackboneConfig.embed_width, "embedding width"),
        "layers": (int, BackboneConfig.layers, "transformer layers"),
        "heads": (int, BackboneConfig.heads, "attention heads"),
        "ffn_mult": (int, BackboneConfig.ffn_mult, "feed-forward width multiplier"),
        "max_seq": (int, BackboneConfig.max_seq, "maximum sequence length"),
        "token_count": (int, None, "pseudo-token slots (default: preset)"),
    },
    "train": _TRAIN_KNOBS,
    "eval": {
        "checkpoint": (str, _REQUIRED, "adapter checkpoint"),
        "backbone": (str, _REQUIRED, "frozen backbone checkpoint"),
        "dataset": (str, _REQUIRED, "dataset directory"),
        "split": (str, "test", "split to score (train/valid/test)"),
        "out": (str, None, "optional directory for eval-report.json"),
    },
    "ablate": {key: knob for key, knob in _TRAIN_KNOBS.items()
               if key not in ("variant", "train_fraction")},
    "gradcheck": {
        "seed": (int, 0, "seed for the checked instances"),
        "out": (str, None, "optional directory for gradcheck.txt"),
    },
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mmadapt",
        description="Desk-scale laboratory for steering a frozen byte-level "
                    "language model with multimodal pseudo tokens.")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, schema in _SCHEMAS.items():
        p = sub.add_parser(command, help=f"{command} subcommand")
        p.add_argument("--config", type=str, default=None,
                       help="flat JSON config file; flags override its values")
        for key, (typ, default, help_text) in schema.items():
            suffix = (" (required)" if default is _REQUIRED else
                      "" if default is None else f" [default: {default}]")
            p.add_argument(f"--{key.replace('_', '-')}", dest=key, type=typ,
                           default=None, help=help_text + suffix)
    return parser


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _check_value(command: str, key: str, value) -> None:
    """ConfigError unless a config-file value's JSON type fits its knob: an
    int knob takes an integer, a float knob any number, a str knob a string
    (seeds also a list of integers), and null only where the default is
    unset or required. Booleans are not numbers here."""
    typ, default, _ = _SCHEMAS[command][key]
    if value is None:
        ok, want = default is None or default is _REQUIRED, "set"
    elif typ is int:
        ok, want = _is_int(value), "an integer"
    elif typ is float:
        ok, want = _is_int(value) or isinstance(value, float), "a number"
    elif key == "seeds":
        ok = isinstance(value, str) or (isinstance(value, list)
                                        and all(_is_int(s) for s in value))
        want = "a string or a list of integers"
    else:
        ok, want = isinstance(value, str), "a string"
    if not ok:
        raise ConfigError(f"config key {key!r} for {command} must be {want}, "
                          f"got {json.dumps(value)}")


def _effective_config(command: str, args: argparse.Namespace) -> dict:
    """defaults <- config file <- explicit flags, validated against the schema;
    a required knob left unset archives as null and fails here."""
    schema = _SCHEMAS[command]
    merged = {key: None if default is _REQUIRED else default
              for key, (_, default, _) in schema.items()}
    if args.config is not None:
        path = Path(args.config)
        if not path.exists():
            raise ConfigError(f"config file {path} does not exist")
        try:
            loaded = json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {path} is not valid JSON: {exc}")
        if not isinstance(loaded, dict):
            raise ConfigError("config file must hold a JSON object")
        for key, value in loaded.items():
            if key not in schema:
                raise ConfigError(f"unknown config key {key!r} for {command}; "
                                  f"known keys: {sorted(schema)}")
            _check_value(command, key, value)
            merged[key] = value
    for key in schema:
        flag = getattr(args, key)
        if flag is not None:
            merged[key] = flag
    # flags and JSON both read nan and inf as floats; no knob takes them
    for key, (typ, _, _) in schema.items():
        if typ is float and isinstance(merged[key], float) and not math.isfinite(merged[key]):
            raise ConfigError(f"{key} must be a finite number, got {merged[key]}")
    _parse_seeds(merged)  # a bad seed fails here, before any command writes
    for key, (_, default, _) in schema.items():
        if default is _REQUIRED and not merged[key]:
            raise ConfigError(f"{command} needs --{key.replace('_', '-')} "
                              f"(or {key!r} in the config file)")
    return merged


def _output_dir(cfg: dict, command: str) -> Path:
    """Create the command's output directory and archive cfg in it."""
    if cfg.get("out"):
        out = Path(cfg["out"])
    else:
        root = Path(os.environ.get(ENV_OUTPUT_ROOT, "runs"))
        out = root / command
    out.mkdir(parents=True, exist_ok=True)
    snapshot = {"command": command, **cfg}
    write_atomic(out / f"{command}-config.json",
                 (json.dumps(snapshot, indent=2, sort_keys=True) + "\n").encode("utf-8"))
    return out


def _parse_seeds(cfg: dict) -> tuple[int, ...]:
    """`seed` alone when set, else the `seeds` list, else the preset five;
    ConfigError for a list that does not parse or a negative seed."""
    raw = cfg.get("seeds")
    if cfg.get("seed") is not None:
        seeds = (int(cfg["seed"]),)
    elif raw is None:
        seeds = SEEDS
    elif isinstance(raw, (list, tuple)):
        seeds = tuple(int(s) for s in raw)
    else:
        try:
            seeds = tuple(int(part) for part in str(raw).split(",") if part.strip())
        except ValueError as exc:
            raise ConfigError(f"bad seed list {raw!r}: {exc}")
    if any(s < 0 for s in seeds):
        raise ConfigError(f"seeds must be >= 0, got {','.join(map(str, seeds))}")
    return seeds


def _load_pair(cfg: dict) -> tuple[Dataset, FrozenBackbone]:
    dataset = load_dataset(cfg["dataset"])
    backbone = FrozenBackbone.load(cfg["backbone"])
    return dataset, backbone


def _or_preset(cfg: dict, key: str, preset_value):
    """The knob's value, or the preset's when the knob was left unset."""
    return preset_value if cfg[key] is None else cfg[key]


def _resolve_adapter_config(cfg: dict, dataset: Dataset,
                            backbone: FrozenBackbone) -> AdapterConfig:
    defaults = dataset.preset.adapter_defaults
    return AdapterConfig(
        audio_width=dataset.preset.audio_width,
        vision_width=dataset.preset.vision_width,
        audio_hidden=_or_preset(cfg, "audio_hidden", defaults.audio_hidden),
        vision_hidden=_or_preset(cfg, "vision_hidden", defaults.vision_hidden),
        mix_width=cfg["mix_width"],
        token_count=_or_preset(cfg, "token_count", defaults.token_count),
        embed_width=backbone.config.embed_width,
    )


def _knobs(cls, cfg: dict) -> dict:
    """The knobs in cfg that name fields of the dataclass cls."""
    return {f.name: cfg[f.name] for f in fields(cls) if f.name in cfg}


def _resolve_train_config(cfg: dict, dataset: Dataset) -> TrainConfig:
    """TrainConfig from the knobs in cfg; the rest keep their defaults."""
    knobs = _knobs(TrainConfig, cfg)
    knobs.update(learning_rate=_or_preset(cfg, "learning_rate",
                                          dataset.preset.adapter_defaults.lr),
                 seeds=_parse_seeds(cfg))
    return TrainConfig(**knobs)


# ---------------------------------------------------------------------------
# subcommands


def cmd_synth(cfg: dict) -> int:
    spec = SyntheticSpec(**_knobs(SyntheticSpec, {**cfg, "class_count": cfg["classes"]}))
    out = _output_dir(cfg, "synth")
    dataset = generate_synthetic(spec, out)
    print(f"wrote {out} with splits "
          f"{ {s: len(dataset[s]) for s in ('train', 'valid', 'test')} }")
    print(f"nearest-centroid ceiling accuracy "
          f"{dataset.meta['ceiling_accuracy']:.4f}")
    return 0


def cmd_pretrain_backbone(cfg: dict) -> int:
    dataset = load_dataset(cfg["dataset"])
    token_count = _or_preset(cfg, "token_count",
                             dataset.preset.adapter_defaults.token_count)
    corpus = build_pretrain_corpus(dataset, dataset.preset, token_count)
    config = BackboneConfig(**_knobs(BackboneConfig, cfg))
    check_pretrain_knobs(cfg["steps"], cfg["lr"], cfg["weight_decay"])
    out = _output_dir(cfg, "pretrain-backbone")
    backbone, losses = pretrain_backbone(corpus, cfg["steps"], cfg["seed"],
                                         config=config, lr=cfg["lr"],
                                         weight_decay=cfg["weight_decay"])
    path = out / "backbone.mseb"
    backbone.save(path)
    log = out / "pretrain-log.jsonl"
    write_atomic(log, "".join(json.dumps({"step": i, "loss": l}) + "\n"
                              for i, l in enumerate(losses)).encode("utf-8"))
    first = losses[0] if losses else float("nan")
    last = losses[-1] if losses else float("nan")
    print(f"wrote {path}")
    print(f"corpus lines {len(corpus)}, steps {len(losses)}, "
          f"loss {first:.4f} -> {last:.4f}")
    print(f"checksum {backbone.checksum:016x}")
    return 0


def cmd_train(cfg: dict) -> int:
    dataset, backbone = _load_pair(cfg)
    adapter_config = _resolve_adapter_config(cfg, dataset, backbone)
    train_config = _resolve_train_config(cfg, dataset)
    out = _output_dir(cfg, "train")
    report = multi_seed_run(backbone, dataset, adapter_config, train_config,
                            out_dir=out)
    for row in report.per_seed:
        print(f"seed {row['seed']}: best epoch {row['best_epoch']}, "
              f"valid {row['best_valid']}, test {row['metrics']}")
    for row in report.failed_seeds:
        print(f"seed {row['seed']}: FAILED {row['error']}")
    print(f"mean {report.mean}")
    print(f"std  {report.std}")
    print(f"report written to {out / f'report-{train_config.variant}.json'}")
    return 0


def cmd_eval(cfg: dict) -> int:
    dataset = load_dataset(cfg["dataset"])
    backbone = FrozenBackbone.load(cfg["backbone"])
    params, state, stored = load_adapter(cfg["checkpoint"])
    if stored != backbone.checksum:
        raise CheckpointError(
            "adapter checkpoint was trained against a different backbone "
            f"(stored {stored:016x}, loaded {backbone.checksum:016x})")
    split = cfg["split"]
    prepared = prepare_samples(backbone, dataset[split], dataset.preset,
                               params.config.token_count,
                               state.drops_text_input)
    report = evaluate_split(backbone, params, state, prepared, dataset.preset)
    print(report.render())
    if cfg.get("out"):
        out = _output_dir(cfg, "eval")
        payload = {"split": split, "variant": state.variant, **report.to_json()}
        write_atomic(out / "eval-report.json",
                     (json.dumps(payload, indent=2) + "\n").encode("utf-8"))
        print(f"report written to {out / 'eval-report.json'}")
    return 0


def cmd_ablate(cfg: dict) -> int:
    dataset, backbone = _load_pair(cfg)
    adapter_config = _resolve_adapter_config(cfg, dataset, backbone)
    configs = [_resolve_train_config({**cfg, "variant": variant}, dataset)
               for variant in VARIANTS]
    out = _output_dir(cfg, "ablate")
    results: dict[str, MetricReport] = {}
    payload: dict[str, dict] = {}
    count = len(dataset["test"])
    reports = multi_variant_run(backbone, dataset, adapter_config, configs,
                                out_dir=out)
    for variant, report in zip(VARIANTS, reports):
        results[variant] = MetricReport(dataset.preset.metric_family,
                                        report.mean, count)
        payload[variant] = report.to_json()
        print(f"{variant}: mean {report.mean}")
    table = ablation_report(results)
    print(table)
    write_atomic(out / "ablate-report.json",
                 (json.dumps(payload, indent=2) + "\n").encode("utf-8"))
    write_atomic(out / "ablate-table.txt", (table + "\n").encode("utf-8"))
    print(f"table written to {out / 'ablate-table.txt'}")
    return 0


def cmd_gradcheck(cfg: dict) -> int:
    results = gradcheck_primitives(cfg["seed"]) + gradcheck_full(cfg["seed"])
    text = render_results(results)
    print(text)
    if cfg.get("out"):
        out = _output_dir(cfg, "gradcheck")
        write_atomic(out / "gradcheck.txt", (text + "\n").encode("utf-8"))
    if not all(r.passed for r in results):
        # wrong gradients mean broken internal guarantees, not bad input
        return 3
    return 0


_COMMANDS = {
    "synth": cmd_synth,
    "pretrain-backbone": cmd_pretrain_backbone,
    "train": cmd_train,
    "eval": cmd_eval,
    "ablate": cmd_ablate,
    "gradcheck": cmd_gradcheck,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; the contract reserves 2 for
        # runtime failures and 1 for validation problems
        return 0 if exc.code in (0, None) else 1
    try:
        cfg = _effective_config(args.command, args)
        return _COMMANDS[args.command](cfg)
    except FrozenViolation as exc:
        print(f"invariant breach: {exc}", file=sys.stderr)
        return 3
    except (NumericError, TapeStateError, WorkerError) as exc:
        print(f"runtime failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except MmadaptError as exc:
        print(f"invalid input: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except Exception:
        traceback.print_exc()
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
