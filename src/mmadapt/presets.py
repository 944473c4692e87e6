"""Corpus presets: feature widths, label conventions, prompts, and per-corpus
adapter defaults.

The four public corpora never ship with this package (their features are
extracted upstream); the presets exist so manifests can be validated and so
configs resolve sensible defaults. The synthetic preset is built on the fly
by the generator.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ConfigError

SEEDS = (1111, 2222, 3333, 4444, 5555)


@dataclass(frozen=True)
class AdapterDefaults:
    audio_hidden: int
    vision_hidden: int
    lr: float
    token_count: int


@dataclass(frozen=True)
class DatasetPreset:
    name: str
    task: str                      # "score" or "emotion"
    metric_family: str             # "wide_score", "narrow_score", "emotion"
    audio_width: int
    vision_width: int
    prompt: str
    adapter_defaults: AdapterDefaults
    score_range: tuple[float, float] | None = None
    class_names: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.task not in ("score", "emotion"):
            raise ConfigError(f"unknown task {self.task!r}")
        if self.task == "score" and self.score_range is None:
            raise ConfigError("score task needs a score_range")
        if self.task == "emotion" and not self.class_names:
            raise ConfigError("emotion task needs class_names")

    @property
    def class_count(self) -> int:
        return len(self.class_names)


_EMOTIONS7 = ("neutral", "surprise", "fear", "sadness", "joy", "disgust", "anger")


def _emotion_prompt(names: tuple[str, ...]) -> str:
    listing = ",".join(f"{i}={n}" for i, n in enumerate(names))
    return f" | emotion ({listing}):"


PRESETS: dict[str, DatasetPreset] = {
    "mosei": DatasetPreset(
        name="mosei", task="score", metric_family="wide_score",
        audio_width=74, vision_width=35,
        prompt=" | sentiment score from -3.0 to +3.0:",
        adapter_defaults=AdapterDefaults(64, 32, 5e-3, 4),
        score_range=(-3.0, 3.0),
    ),
    "sims_v2": DatasetPreset(
        name="sims_v2", task="score", metric_family="narrow_score",
        audio_width=25, vision_width=177,
        prompt=" | sentiment score from -1.0 to +1.0:",
        adapter_defaults=AdapterDefaults(64, 64, 5e-4, 4),
        score_range=(-1.0, 1.0),
    ),
    "meld": DatasetPreset(
        name="meld", task="emotion", metric_family="emotion",
        audio_width=64, vision_width=64,
        prompt=_emotion_prompt(_EMOTIONS7),
        adapter_defaults=AdapterDefaults(32, 16, 5e-4, 2),
        class_names=_EMOTIONS7,
    ),
    "cherma": DatasetPreset(
        name="cherma", task="emotion", metric_family="emotion",
        audio_width=768, vision_width=512,
        prompt=_emotion_prompt(_EMOTIONS7),
        adapter_defaults=AdapterDefaults(32, 16, 5e-3, 4),
        class_names=_EMOTIONS7,
    ),
}


def get_preset(name: str) -> DatasetPreset:
    try:
        return PRESETS[name]
    except KeyError:
        raise ConfigError(f"unknown preset {name!r}; have {sorted(PRESETS)}") from None


def synthetic_preset(class_count: int, audio_width: int, vision_width: int) -> DatasetPreset:
    if not (2 <= class_count <= 7):
        raise ConfigError(f"synthetic class_count must be 2..7, got {class_count}")
    names = tuple(_EMOTIONS7[:class_count])
    return DatasetPreset(
        name="synthetic", task="emotion", metric_family="emotion",
        audio_width=audio_width, vision_width=vision_width,
        # compact numeric prompt keeps desk-scale sequences short
        prompt=f" | emotion (0-{class_count - 1}):",
        adapter_defaults=AdapterDefaults(16, 16, 4e-3, 4),
        class_names=names,
    )
