"""Datasets on disk and in memory.

A dataset directory holds:

    meta.json        preset-level facts (name, task, widths, prompt, ...)
    manifest.jsonl   one UTF-8 JSON record per sample:
                     {"id", "text", "label", "audio", "vision", "split"}
    features/        one feature file per modality per sample ("MSEF" format)

The synthetic generator plants a linear class rule across modalities so a
desk-scale run has a known ceiling: audio separates every class (and is the
only separator between classes 1 and 2), while vision and the text template
only separate class 0 from the rest.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError, InputError
from .presets import DatasetPreset, get_preset, synthetic_preset
from .serialize import read_features, write_atomic, write_features

SPLITS = ("train", "valid", "test")


@dataclass
class FeatureSample:
    sid: str
    text: str
    label: float
    audio: np.ndarray   # frames x audio_width, float64
    vision: np.ndarray  # frames x vision_width, float64
    split: str


@dataclass
class Dataset:
    preset: DatasetPreset
    splits: dict[str, list[FeatureSample]]
    meta: dict = field(default_factory=dict)

    def __getitem__(self, split: str) -> list[FeatureSample]:
        if split not in self.splits:
            raise InputError(f"unknown split {split!r}; have {sorted(self.splits)}")
        return self.splits[split]


def _validate_label(preset: DatasetPreset, label: float, sid: str) -> float:
    if preset.task == "score":
        lo, hi = preset.score_range
        if not (lo <= label <= hi):
            raise InputError(f"{sid}: score {label} outside [{lo}, {hi}]")
        return float(label)
    # is_integer is False for NaN and the infinities, which int() cannot take
    if not (label.is_integer() and 0 <= label < preset.class_count):
        raise InputError(f"{sid}: class {label} outside 0..{preset.class_count - 1}")
    return float(int(label))


def load_dataset(root: str | Path, preset: DatasetPreset | None = None) -> Dataset:
    """Read a dataset directory, validating every record against its preset."""
    root = Path(root)
    meta_path = root / "meta.json"
    meta: dict = {}
    try:
        if meta_path.exists():
            meta = json.loads(meta_path.read_text(encoding="utf-8"))
            if not isinstance(meta, dict):
                raise TypeError(f"expected a JSON object, got {type(meta).__name__}")
        if preset is None and meta:
            if meta.get("name") == "synthetic":
                preset = synthetic_preset(meta["class_count"], meta["audio_width"],
                                          meta["vision_width"])
            else:
                preset = get_preset(meta["name"])
    except (KeyError, TypeError, ValueError) as exc:
        # ValueError covers invalid JSON and UTF-8 and the presets' ConfigError
        what = f"missing key {exc}" if isinstance(exc, KeyError) else str(exc)
        raise InputError(f"{meta_path}: bad meta.json: {what}") from exc
    if preset is None:
        raise InputError(f"{root}: no meta.json and no preset given")
    manifest = root / "manifest.jsonl"
    if not manifest.exists():
        raise InputError(f"{root}: missing manifest.jsonl")
    splits: dict[str, list[FeatureSample]] = {s: [] for s in SPLITS}
    seen: set[str] = set()
    prefix = f"{root}/"
    audio_width, vision_width = preset.audio_width, preset.vision_width
    for lineno, line in enumerate(manifest.read_text(encoding="utf-8").splitlines(), 1):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
            sid, text, split = rec["id"], rec["text"], rec["split"]
            label = float(rec["label"])
            audio_rel, vision_rel = rec["audio"], rec["vision"]
        except (json.JSONDecodeError, KeyError, TypeError, ValueError, OverflowError) as exc:
            raise InputError(f"{manifest}:{lineno}: bad record: {exc}") from exc
        if split not in SPLITS:
            raise InputError(f"{manifest}:{lineno}: unknown split {split!r}")
        if not isinstance(sid, str) or not sid:
            raise InputError(f"{manifest}:{lineno}: id must be a non-empty string, got {sid!r}")
        if not isinstance(text, str) or not text:
            # an empty text would pool zero token rows into the adapter's gate
            raise InputError(f"{manifest}:{lineno}: text must be a non-empty string, "
                             f"got {text!r}")
        if sid in seen:
            raise InputError(f"{manifest}:{lineno}: duplicate id {sid!r}")
        seen.add(sid)
        for rel in (audio_rel, vision_rel):
            # string checks and joins: pathlib parsing, let alone Path.resolve,
            # costs more per record than reading the feature file
            if not isinstance(rel, str) or rel.startswith("/") or "/../" in f"/{rel}/":
                raise InputError(f"{manifest}:{lineno}: feature path {rel!r} must be "
                                 f"relative and stay inside {root}")
        if isinstance(rec["label"], (bool, str)):
            # float() reads true as 1.0 and a numeric string such as " 2 " as its number
            raise InputError(f"{manifest}:{lineno}: label must be a JSON number, "
                             f"got {rec['label']!r}")
        label = _validate_label(preset, label, sid)
        audio = read_features(prefix + audio_rel)
        vision = read_features(prefix + vision_rel)
        if audio.shape[1] != audio_width:
            raise InputError(f"{sid}: audio width {audio.shape[1]} != preset {audio_width}")
        if vision.shape[1] != vision_width:
            raise InputError(f"{sid}: vision width {vision.shape[1]} != preset {vision_width}")
        splits[split].append(FeatureSample(sid, text, label, audio, vision, split))
    return Dataset(preset, splits, meta)


def subsample_train(samples: list[FeatureSample], fraction: float,
                    seed: int) -> list[FeatureSample]:
    """Draw ceil(fraction * N) samples without replacement, deterministically.

    The draw keeps the original manifest order of the survivors so training
    batch composition stays reproducible.
    """
    if not (0.0 < fraction <= 1.0):
        raise ConfigError(f"fraction must be in (0, 1], got {fraction}")
    n = len(samples)
    keep = math.ceil(fraction * n)
    if keep == n:
        return list(samples)
    idx = np.random.default_rng(seed).choice(n, size=keep, replace=False)
    return [samples[i] for i in sorted(int(i) for i in idx)]


# ---------------------------------------------------------------------------
# synthetic generator


@dataclass(frozen=True)
class SyntheticSpec:
    class_count: int = 3
    noise: float = 0.1
    train: int = 2000
    valid: int = 300
    test: int = 500
    audio_width: int = 8
    vision_width: int = 8
    min_len: int = 4
    max_len: int = 10
    seed: int = 1111

    def __post_init__(self) -> None:
        if not (2 <= self.class_count <= 7):
            raise ConfigError(f"class_count must be 2..7, got {self.class_count}")
        if self.noise < 0:
            raise ConfigError(f"noise must be >= 0, got {self.noise}")
        if min(self.train, self.valid, self.test) <= 0:
            raise ConfigError("every split must be non-empty")
        if not (1 <= self.min_len <= self.max_len):
            raise ConfigError(f"bad length range {self.min_len}..{self.max_len}")
        if self.class_count > min(self.audio_width, self.vision_width):
            raise ConfigError("feature width must be >= class_count for the planted rule")


# one template per text group; group 0 is class 0, group 1 is every other class
_TEXT_TEMPLATES = ("calm steady morning", "loud shifting scene")


def _text_group(cls: int) -> int:
    return 0 if cls == 0 else 1


def _planted_directions(spec: SyntheticSpec, rng: np.random.Generator):
    """Orthonormal class directions: audio gets one per class, vision one per
    text group. Orthonormality makes the centroid geometry easy to reason
    about at any width."""
    qa, _ = np.linalg.qr(rng.standard_normal((spec.audio_width, spec.class_count)))
    qv, _ = np.linalg.qr(rng.standard_normal((spec.vision_width, 2)))
    return qa.T, qv.T


def generate_synthetic(spec: SyntheticSpec, out_dir: str | Path) -> Dataset:
    """Write a synthetic dataset directory; returns the loaded dataset.

    Deterministic: the same spec always produces byte-identical files. The
    generator also scores a nearest-centroid oracle on the planted means and
    records it in meta.json as ceiling_accuracy.
    """
    out = Path(out_dir)
    (out / "features").mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(spec.seed)
    audio_means, vision_means = _planted_directions(spec, rng)
    sizes = {"train": spec.train, "valid": spec.valid, "test": spec.test}
    records = []
    hits = 0
    test_total = 0
    for split in SPLITS:
        for i in range(sizes[split]):
            cls = int(rng.integers(0, spec.class_count))
            la = int(rng.integers(spec.min_len, spec.max_len + 1))
            lv = int(rng.integers(spec.min_len, spec.max_len + 1))
            audio = audio_means[cls] + spec.noise * rng.standard_normal((la, spec.audio_width))
            vision = (vision_means[_text_group(cls)]
                      + spec.noise * rng.standard_normal((lv, spec.vision_width)))
            sid = f"{split}-{i:05d}"
            arel = f"features/{sid}.a.msef"
            vrel = f"features/{sid}.v.msef"
            audio32 = audio.astype(np.float32)
            vision32 = vision.astype(np.float32)
            write_features(out / arel, audio32)
            write_features(out / vrel, vision32)
            records.append({"id": sid, "text": _TEXT_TEMPLATES[_text_group(cls)],
                            "label": cls, "audio": arel, "vision": vrel,
                            "split": split})
            if split == "test":
                test_total += 1
                # score the ceiling on the stored (f32-rounded) features so it
                # matches what any loader recomputes
                predicted = _centroid_classify(audio32.astype(np.float64),
                                               vision32.astype(np.float64),
                                               audio_means, vision_means)
                if predicted == cls:
                    hits += 1
    manifest = "\n".join(json.dumps(r, ensure_ascii=False) for r in records) + "\n"
    write_atomic(out / "manifest.jsonl", manifest.encode("utf-8"))
    meta = {
        "name": "synthetic",
        "class_count": spec.class_count,
        "audio_width": spec.audio_width,
        "vision_width": spec.vision_width,
        "split_sizes": sizes,
        "noise": spec.noise,
        "seed": spec.seed,
        "min_len": spec.min_len,
        "max_len": spec.max_len,
        "ceiling_accuracy": hits / test_total,
    }
    write_atomic(out / "meta.json",
                 (json.dumps(meta, indent=2, sort_keys=True) + "\n").encode("utf-8"))
    return load_dataset(out)


def _centroid_classify(audio: np.ndarray, vision: np.ndarray,
                       audio_means: np.ndarray, vision_means: np.ndarray) -> int:
    """Nearest planted centroid on time-averaged concatenated features."""
    a = audio.mean(axis=0)
    v = vision.mean(axis=0)
    best, best_d = -1, None
    for cls in range(audio_means.shape[0]):
        mu = np.concatenate([audio_means[cls], vision_means[_text_group(cls)]])
        d = float(np.sum((np.concatenate([a, v]) - mu) ** 2))
        if best_d is None or d < best_d:
            best, best_d = cls, d
    return best


def planted_directions(spec: SyntheticSpec) -> tuple[np.ndarray, np.ndarray]:
    """Recompute the generator's planted means (for oracle checks)."""
    return _planted_directions(spec, np.random.default_rng(spec.seed))
