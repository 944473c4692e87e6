"""Label text codec, generated-text parsing, and evaluation metrics.

Three metric families cover the supported task shapes:

    wide_score    scalar scores on a [-3, 3] style grid: Acc2 (non-negative
                  vs negative), binary F1 of the non-negative class, Acc7
                  (clamp to [-3, 3], round half away from zero), MAE, Pearson
    narrow_score  scalar scores on a [-1, 1] style grid: Acc2 (positive vs
                  non-positive), binary F1 of the positive class, Acc2_weak
                  (same accuracy restricted to |gold| <= 0.4, endpoints
                  included), MAE, Pearson
    emotion       class ids: exact-match accuracy and support-weighted F1

Zero score labels land on the non-negative side for wide_score and on the
non-positive side for narrow_score. The asymmetry is deliberate: the two
families follow different published binary standards.

Degenerate conventions, applied consistently: binary F1 is 0.0 when the
positive class has no true positives, false positives, or false negatives;
Pearson correlation with a zero-variance side is undefined and reported as
None; an empty weak subset makes Acc2_weak None.
"""

from __future__ import annotations

import math
import re
import warnings
from dataclasses import dataclass

from .adapter import VARIANTS
from .errors import InputError

# display names and whether each metric renders as a percentage
_METRIC_DISPLAY = {
    "acc2": ("Acc2", True),
    "f1": ("F1", True),
    "acc7": ("Acc7", True),
    "acc2_weak": ("Acc2_weak", True),
    "mae": ("MAE", False),
    "corr": ("Corr", False),
    "acc": ("Acc", True),
    "wf1": ("WF1", True),
}

FAMILY_KEYS = {
    "wide_score": ("acc2", "f1", "acc7", "mae", "corr"),
    "narrow_score": ("acc2", "f1", "acc2_weak", "mae", "corr"),
    "emotion": ("acc", "wf1"),
}

# the single value used for best-checkpoint selection and trend studies
PRIMARY_KEY = {"wide_score": "acc2", "narrow_score": "acc2", "emotion": "acc"}


@dataclass
class MetricReport:
    family: str
    values: dict[str, float | None]
    count: int
    fallback_count: int = 0

    def __post_init__(self) -> None:
        for key, value in self.values.items():
            if value is None:
                continue
            name, is_rate = _METRIC_DISPLAY[key]
            if is_rate and not (0.0 <= value <= 1.0):
                raise InputError(f"{name} must be a rate in [0, 1], got {value}")
            if key == "mae" and value < 0:
                raise InputError(f"MAE must be >= 0, got {value}")
            if key == "corr" and not (-1.0 <= value <= 1.0):
                raise InputError(f"Corr must be in [-1, 1], got {value}")

    @property
    def primary(self) -> float | None:
        return self.values[PRIMARY_KEY[self.family]]

    def render(self) -> str:
        lines = [f"samples {self.count}  fallback parses {self.fallback_count}"]
        for key in FAMILY_KEYS[self.family]:
            name, is_rate = _METRIC_DISPLAY[key]
            value = self.values.get(key)
            if value is None:
                shown = "undefined"
            elif is_rate:
                shown = f"{100.0 * value:.2f}%"
            else:
                shown = f"{value:.4f}"
            lines.append(f"{name:<10s} {shown}")
        return "\n".join(lines)

    def to_json(self) -> dict:
        return {"family": self.family, "values": dict(self.values),
                "count": self.count, "fallback_count": self.fallback_count}


# ---------------------------------------------------------------------------
# label codec


def format_label(task: str, value: float, score_range: tuple[float, float] = (-3.0, 3.0),
                 class_count: int = 7) -> str:
    """Canonical label text: explicit sign plus one decimal for scores (the
    sign is '+' exactly when value >= 0, rounding half toward even), or the
    single numeral of a class id."""
    if task == "score":
        lo, hi = score_range
        if not (lo <= value <= hi):
            raise InputError(f"score {value} outside [{lo}, {hi}]")
        sign = "+" if value >= 0 else "-"
        return sign + format(abs(value), ".1f")
    if task == "emotion":
        cls = int(value)
        if cls != value or not (0 <= cls < class_count):
            raise InputError(f"class {value} outside 0..{class_count - 1}")
        return str(cls)
    raise InputError(f"unknown task {task!r}")


_SCORE_RE = re.compile(r"[+-]?\d+(?:\.\d+)?")


def parse_generated(task: str, text: str, class_count: int = 7) -> tuple[float, bool]:
    """Total parser over generated text.

    Returns (value, used_fallback). Scores take the first signed decimal in
    the string; emotion takes the first digit naming a valid class. Garbage
    falls back to 0.0 for scores and class 0 for emotion.
    """
    if task == "score":
        m = _SCORE_RE.search(text)
        if m:
            return float(m.group()), False
        return 0.0, True
    if task == "emotion":
        for ch in text:
            if ch.isdecimal() and int(ch) < class_count:
                return float(int(ch)), False
        return 0.0, True
    raise InputError(f"unknown task {task!r}")


# ---------------------------------------------------------------------------
# shared pieces


def _check_pairs(preds, golds) -> None:
    if len(preds) != len(golds):
        raise InputError(f"length mismatch: {len(preds)} preds vs {len(golds)} golds")
    if len(preds) == 0:
        raise InputError("need at least one sample")


def _accuracy(pairs) -> float:
    hits = sum(1 for p, g in pairs if p == g)
    return hits / len(pairs)


def _binary_f1(preds_pos, golds_pos) -> float:
    tp = sum(1 for p, g in zip(preds_pos, golds_pos) if p and g)
    fp = sum(1 for p, g in zip(preds_pos, golds_pos) if p and not g)
    fn = sum(1 for p, g in zip(preds_pos, golds_pos) if not p and g)
    denom = 2 * tp + fp + fn
    if denom == 0:
        return 0.0
    return 2 * tp / denom


def pearson(preds, golds) -> float | None:
    """Pearson correlation; None when either side has zero variance."""
    n = len(preds)
    mp = sum(preds) / n
    mg = sum(golds) / n
    num = sum((p - mp) * (g - mg) for p, g in zip(preds, golds))
    vp = sum((p - mp) ** 2 for p in preds)
    vg = sum((g - mg) ** 2 for g in golds)
    if vp == 0.0 or vg == 0.0:
        return None
    r = num / math.sqrt(vp * vg)
    return min(1.0, max(-1.0, r))


def _mae(preds, golds) -> float:
    return sum(abs(p - g) for p, g in zip(preds, golds)) / len(preds)


def round_half_away(x: float) -> int:
    """Round to the nearest integer, ties going away from zero."""
    if x >= 0:
        return math.floor(x + 0.5)
    return math.ceil(x - 0.5)


def _seven_bin(x: float) -> int:
    return round_half_away(min(3.0, max(-3.0, x)))


# ---------------------------------------------------------------------------
# metric families


def mosei_metrics(preds: list[float], golds: list[float],
                  fallback_count: int = 0) -> MetricReport:
    """Wide-score family: the binary standard is non-negative vs negative."""
    _check_pairs(preds, golds)
    pred_pos = [p >= 0 for p in preds]
    gold_pos = [g >= 0 for g in golds]
    acc2 = _accuracy(list(zip(pred_pos, gold_pos)))
    f1 = _binary_f1(pred_pos, gold_pos)
    acc7 = _accuracy([(_seven_bin(p), _seven_bin(g)) for p, g in zip(preds, golds)])
    return MetricReport("wide_score",
                        {"acc2": acc2, "f1": f1, "acc7": acc7,
                         "mae": _mae(preds, golds), "corr": pearson(preds, golds)},
                        len(preds), fallback_count)


def sims_metrics(preds: list[float], golds: list[float],
                 fallback_count: int = 0) -> MetricReport:
    """Narrow-score family: the binary standard is positive vs non-positive,
    with a weak-signal accuracy restricted to |gold| <= 0.4."""
    _check_pairs(preds, golds)
    pred_pos = [p > 0 for p in preds]
    gold_pos = [g > 0 for g in golds]
    acc2 = _accuracy(list(zip(pred_pos, gold_pos)))
    f1 = _binary_f1(pred_pos, gold_pos)
    weak = [(pp, gp) for pp, gp, g in zip(pred_pos, gold_pos, golds)
            if abs(g) <= 0.4]
    acc2_weak = _accuracy(weak) if weak else None
    return MetricReport("narrow_score",
                        {"acc2": acc2, "f1": f1, "acc2_weak": acc2_weak,
                         "mae": _mae(preds, golds), "corr": pearson(preds, golds)},
                        len(preds), fallback_count)


def erc_metrics(preds: list[int], golds: list[int], class_count: int = 7,
                fallback_count: int = 0) -> MetricReport:
    """Emotion family: exact-match accuracy and support-weighted F1. Classes
    with no gold support contribute zero F1 at zero weight."""
    _check_pairs(preds, golds)
    for v in list(preds) + list(golds):
        if not math.isfinite(v) or int(v) != v or not (0 <= int(v) < class_count):
            raise InputError(f"class {v} outside 0..{class_count - 1}")
    preds = [int(p) for p in preds]
    golds = [int(g) for g in golds]
    acc = _accuracy(list(zip(preds, golds)))
    total = len(golds)
    wf1 = 0.0
    for cls in range(class_count):
        support = sum(1 for g in golds if g == cls)
        if support == 0:
            continue
        wf1 += (support / total) * _binary_f1([p == cls for p in preds],
                                              [g == cls for g in golds])
    return MetricReport("emotion", {"acc": acc, "wf1": wf1}, total, fallback_count)


def score_predictions(family: str, preds, golds, fallback_count: int = 0,
                      class_count: int = 7) -> MetricReport:
    """Dispatch parsed predictions to the family's metric function."""
    if family == "emotion":
        return erc_metrics(list(preds), list(golds), class_count, fallback_count)
    if family == "wide_score":
        return mosei_metrics(list(preds), list(golds), fallback_count)
    if family == "narrow_score":
        return sims_metrics(list(preds), list(golds), fallback_count)
    raise InputError(f"unknown metric family {family!r}")


# ---------------------------------------------------------------------------
# ablation reporting

def ablation_report(results: dict[str, MetricReport]) -> str:
    """Render seed-averaged variant results as a fixed-order table.

    The rows follow `adapter.VARIANTS`. Missing variants are omitted with a
    warning; the full model is required.
    """
    if "full" not in results:
        raise InputError("ablation report needs the full-model row")
    family = results["full"].family
    keys = FAMILY_KEYS[family]
    header = ["variant".ljust(12)] + [_METRIC_DISPLAY[k][0].rjust(10) for k in keys]
    lines = ["".join(header)]
    for variant, label in VARIANTS.items():
        if variant not in results:
            warnings.warn(f"ablation variant {variant!r} missing; row omitted",
                          stacklevel=2)
            continue
        report = results[variant]
        cells = [label.ljust(12)]
        for k in keys:
            value = report.values.get(k)
            if value is None:
                cells.append("undef".rjust(10))
            elif _METRIC_DISPLAY[k][1]:
                cells.append(f"{100.0 * value:.2f}".rjust(10))
            else:
                cells.append(f"{value:.4f}".rjust(10))
        lines.append("".join(cells))
    return "\n".join(lines)
