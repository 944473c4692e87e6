"""Golden fixtures and properties for the metric families and label codec."""

import math
import random
import warnings

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mmadapt.adapter import VARIANTS
from mmadapt.errors import InputError
from mmadapt.metrics import (
    MetricReport,
    ablation_report,
    erc_metrics,
    format_label,
    mosei_metrics,
    parse_generated,
    pearson,
    round_half_away,
    score_predictions,
    sims_metrics,
)
from mmadapt.presets import PRESETS, synthetic_preset

from oracles import f1_binary, pearson_scalar, weighted_f1_loops


# ---------------------------------------------------------------------------
# label formatting


def test_format_zero_gets_plus_sign():
    assert format_label("score", 0.0) == "+0.0"


def test_format_negative_half_rounds_to_even():
    assert format_label("score", -1.25) == "-1.2"


def test_format_positive_half_rounds_to_even():
    assert format_label("score", 1.25) == "+1.2"
    assert format_label("score", 1.35) == "+1.4"


def test_format_class_numeral():
    assert format_label("emotion", 6) == "6"
    assert format_label("emotion", 0) == "0"


def test_format_rejects_out_of_range():
    with pytest.raises(InputError):
        format_label("score", 3.5)
    with pytest.raises(InputError):
        format_label("score", 1.5, score_range=(-1.0, 1.0))
    with pytest.raises(InputError):
        format_label("emotion", 7)
    with pytest.raises(InputError):
        format_label("emotion", 1.5)
    with pytest.raises(InputError):
        format_label("verbs", 1.0)


# ---------------------------------------------------------------------------
# parsing


def test_parse_simple_score():
    assert parse_generated("score", "+1.4") == (1.4, False)


def test_parse_takes_first_number_in_noise():
    assert parse_generated("score", " -0.8 extra text") == (-0.8, False)
    assert parse_generated("score", "score is +2.1 or -1.0") == (2.1, False)


def test_parse_garbage_falls_back():
    value, fallback = parse_generated("score", "garbage")
    assert value == 0.0 and fallback is True


def test_parse_emotion_first_valid_digit():
    assert parse_generated("emotion", "32") == (3.0, False)
    assert parse_generated("emotion", "class 5") == (5.0, False)


def test_parse_emotion_skips_invalid_digits():
    assert parse_generated("emotion", "9 then 2", class_count=3) == (2.0, False)


def test_parse_emotion_reads_decimal_digits_only():
    # superscript and circled digits are digits but not decimals: int() refuses them
    for text in ("\u00b2", "\u2460"):
        assert parse_generated("emotion", text) == (0.0, True)
    assert parse_generated("emotion", "\u00b2 then 4") == (4.0, False)
    assert parse_generated("emotion", "\u0663") == (3.0, False)  # Arabic-Indic three


@pytest.mark.parametrize("preset", [PRESETS["meld"], PRESETS["cherma"],
                                    synthetic_preset(3, 8, 8)], ids=lambda p: p.name)
def test_parse_emotion_falls_back_to_class_zero(preset):
    """Text that names no class parses as class 0 under every emotion preset."""
    assert parse_generated(preset.task, "none", class_count=preset.class_count) == (0.0, True)


def test_codec_round_trip_wide_grid():
    for i in range(-30, 31):
        v = i / 10
        parsed, fb = parse_generated("score", format_label("score", v))
        assert not fb
        assert parsed == v


def test_codec_round_trip_narrow_grid():
    for i in range(-10, 11):
        v = i / 10
        text = format_label("score", v, score_range=(-1.0, 1.0))
        parsed, fb = parse_generated("score", text)
        assert not fb and parsed == v


def test_codec_round_trip_classes():
    for c in range(7):
        parsed, fb = parse_generated("emotion", format_label("emotion", c))
        assert not fb and parsed == float(c)


# ---------------------------------------------------------------------------
# seven-bin rounding


def test_round_half_away_convention():
    assert round_half_away(2.5) == 3
    assert round_half_away(-2.5) == -3
    assert round_half_away(0.5) == 1
    assert round_half_away(-0.5) == -1
    assert round_half_away(-0.3) == 0
    assert round_half_away(1.49) == 1


# ---------------------------------------------------------------------------
# wide-score goldens


def test_wide_perfect_prediction():
    r = mosei_metrics([1.0, -1.0, 0.5], [1.0, -1.0, 0.5])
    assert r.values["acc2"] == 1.0
    assert r.values["f1"] == 1.0
    assert r.values["acc7"] == 1.0
    assert r.values["mae"] == 0.0
    assert r.values["corr"] == pytest.approx(1.0)


def test_wide_anti_correlated_pair():
    r = mosei_metrics([1.0, -1.0], [-1.0, 1.0])
    assert r.values["acc2"] == 0.0
    assert r.values["f1"] == 0.0
    assert r.values["acc7"] == 0.0
    assert r.values["mae"] == 2.0
    assert r.values["corr"] == pytest.approx(-1.0)


def test_wide_zero_preds_count_non_negative():
    r = mosei_metrics([0.0, 0.0, 0.0, 0.0], [1.0, 2.0, -1.0, -2.0])
    assert r.values["acc2"] == 0.5
    assert r.values["f1"] == pytest.approx(2 / 3)
    assert r.values["acc7"] == 0.0
    assert r.values["mae"] == 1.5
    assert r.values["corr"] is None


def test_wide_acc7_clamps_before_binning():
    r = mosei_metrics([3.4, -3.49], [3.0, -3.0])
    assert r.values["acc7"] == 1.0
    assert r.values["acc2"] == 1.0
    assert r.values["mae"] == pytest.approx(0.445)


def test_wide_acc7_half_away_from_zero():
    r = mosei_metrics([2.5, -2.5], [3.0, -3.0])
    assert r.values["acc7"] == 1.0


def test_wide_zero_gold_zero_pred():
    r = mosei_metrics([0.0], [0.0])
    assert r.values["acc2"] == 1.0
    assert r.values["f1"] == 1.0
    assert r.values["acc7"] == 1.0
    assert r.values["corr"] is None


def test_wide_four_sample_hand_computation():
    preds = [0.8, -0.3, 1.6, -2.2]
    golds = [1.0, 0.2, 2.0, -1.8]
    r = mosei_metrics(preds, golds)
    assert r.values["acc2"] == 0.75
    assert r.values["f1"] == pytest.approx(0.8)
    assert r.values["acc7"] == 1.0
    assert r.values["mae"] == pytest.approx(0.375)
    assert r.values["corr"] == pytest.approx(pearson_scalar(preds, golds))


def test_wide_all_negative_degenerate_f1():
    r = mosei_metrics([-1.0, -2.0], [-1.0, -2.0])
    assert r.values["acc2"] == 1.0
    assert r.values["f1"] == 0.0


def test_wide_length_mismatch():
    with pytest.raises(InputError):
        mosei_metrics([1.0], [1.0, 2.0])


def test_wide_empty_rejected():
    with pytest.raises(InputError):
        mosei_metrics([], [])


def test_wide_fallback_count_carried():
    r = mosei_metrics([0.0], [0.0], fallback_count=3)
    assert r.fallback_count == 3


# ---------------------------------------------------------------------------
# narrow-score goldens


def test_narrow_spec_three_sample():
    r = sims_metrics([0.1, 0.2, 0.5], [0.3, -0.2, 0.9])
    assert r.values["acc2"] == pytest.approx(2 / 3)
    assert r.values["acc2_weak"] == 0.5


def test_narrow_zero_is_non_positive_and_correct():
    r = sims_metrics([0.0], [0.0])
    assert r.values["acc2"] == 1.0


def test_narrow_zero_pred_against_positive_gold():
    r = sims_metrics([0.3], [0.0])
    assert r.values["acc2"] == 0.0


def test_narrow_perfect_prediction():
    r = sims_metrics([0.2, -0.4, 0.8], [0.2, -0.4, 0.8])
    assert r.values["acc2"] == 1.0
    assert r.values["f1"] == 1.0
    assert r.values["acc2_weak"] == 1.0
    assert r.values["mae"] == 0.0


def test_narrow_weak_window_inclusive_at_boundary():
    r = sims_metrics([1.0, 1.0, 1.0], [0.4, -0.4, 0.41])
    assert r.values["acc2"] == pytest.approx(2 / 3)
    assert r.values["acc2_weak"] == 0.5


def test_narrow_empty_weak_subset_undefined():
    r = sims_metrics([0.5, -0.5], [0.9, -0.8])
    assert r.values["acc2"] == 1.0
    assert r.values["acc2_weak"] is None


def test_narrow_f1_of_positive_class():
    r = sims_metrics([0.5, 0.5, -0.5], [0.5, -0.5, 0.5])
    assert r.values["f1"] == 0.5
    assert r.values["acc2"] == pytest.approx(1 / 3)


def test_narrow_mae_and_corr_hand_pair():
    r = sims_metrics([0.1, -0.3], [0.2, -0.1])
    assert r.values["mae"] == pytest.approx(0.15)
    assert r.values["corr"] == pytest.approx(1.0)


def test_narrow_constant_preds_undefined_corr():
    r = sims_metrics([0.2, 0.2], [0.3, -0.3])
    assert r.values["corr"] is None


def test_narrow_length_mismatch():
    with pytest.raises(InputError):
        sims_metrics([0.1, 0.2], [0.1])


# ---------------------------------------------------------------------------
# emotion goldens


def test_emotion_perfect():
    r = erc_metrics(list(range(7)), list(range(7)))
    assert r.values["acc"] == 1.0
    assert r.values["wf1"] == pytest.approx(1.0)


def test_emotion_three_sample_confusion():
    r = erc_metrics([0, 1, 0], [0, 1, 1])
    assert r.values["acc"] == pytest.approx(2 / 3)
    assert r.values["wf1"] == pytest.approx(2 / 3)


def test_emotion_majority_class_imbalance():
    golds = [0] * 9 + [1]
    preds = [0] * 10
    r = erc_metrics(preds, golds)
    assert r.values["acc"] == pytest.approx(0.9)
    assert r.values["wf1"] == pytest.approx(81 / 95)
    assert r.values["wf1"] < r.values["acc"]


def test_emotion_single_support_class_equals_plain_f1():
    r = erc_metrics([2, 0], [2, 2])
    assert r.values["wf1"] == pytest.approx(2 / 3)
    assert r.values["wf1"] == pytest.approx(
        f1_binary([True, False], [True, True]))


def test_emotion_all_wrong():
    r = erc_metrics([1, 0], [0, 1])
    assert r.values["acc"] == 0.0
    assert r.values["wf1"] == 0.0


def test_emotion_absent_classes_zero_weight():
    r = erc_metrics([0, 0], [0, 0])
    assert r.values["wf1"] == pytest.approx(1.0)


def test_emotion_four_sample_confusion_matrix():
    r = erc_metrics([0, 2, 2, 1], [0, 1, 2, 2])
    assert r.values["acc"] == 0.5
    assert r.values["wf1"] == pytest.approx(0.5)


def test_emotion_weighted_differs_from_macro():
    r = erc_metrics([0, 0, 1, 1], [0, 0, 0, 1])
    assert r.values["acc"] == 0.75
    assert r.values["wf1"] == pytest.approx(23 / 30)


def test_emotion_rejects_out_of_range():
    with pytest.raises(InputError):
        erc_metrics([7], [0])
    with pytest.raises(InputError):
        erc_metrics([0], [-1])
    with pytest.raises(InputError):
        erc_metrics([0.5], [0])


def test_emotion_matches_loop_oracle_random():
    rng = random.Random(7)
    for _ in range(20):
        n = rng.randint(2, 40)
        golds = [rng.randrange(7) for _ in range(n)]
        preds = [rng.randrange(7) for _ in range(n)]
        r = erc_metrics(preds, golds)
        assert r.values["wf1"] == pytest.approx(
            weighted_f1_loops(preds, golds, 7), abs=1e-12)


def test_emotion_small_class_count():
    r = erc_metrics([0, 1, 2], [0, 1, 2], class_count=3)
    assert r.values["acc"] == 1.0
    with pytest.raises(InputError):
        erc_metrics([3], [0], class_count=3)


# ---------------------------------------------------------------------------
# properties


def test_permutation_invariance():
    rng = random.Random(3)
    preds = [rng.uniform(-3, 3) for _ in range(25)]
    golds = [rng.uniform(-3, 3) for _ in range(25)]
    base = mosei_metrics(preds, golds).values
    order = list(range(25))
    rng.shuffle(order)
    permuted = mosei_metrics([preds[i] for i in order],
                             [golds[i] for i in order]).values
    for key in base:
        if base[key] is None:
            assert permuted[key] is None
        else:
            assert permuted[key] == pytest.approx(base[key], abs=1e-12)


def test_acc7_invariant_under_sub_boundary_noise():
    rng = random.Random(5)

    def off_boundary():
        # one-decimal values excluding x.5 sit >= 0.1 from every bin edge
        while True:
            i = rng.randint(-28, 28)
            if abs(i) % 10 != 5:
                return i / 10

    preds = [off_boundary() for _ in range(40)]
    golds = [off_boundary() for _ in range(40)]
    base = mosei_metrics(preds, golds).values["acc7"]
    for eps in (0.04, -0.049, 0.01):
        nudged = [p + eps for p in preds]
        assert mosei_metrics(nudged, golds).values["acc7"] == base


@given(st.integers(-50, 50).filter(lambda a: a != 0), st.integers(-30, 30))
def test_pearson_scale_shift(a, b):
    preds = [0.4, -1.2, 2.2, 0.9, -0.5]
    golds = [1.0, -0.8, 1.9, 0.2, -1.1]
    base = pearson(preds, golds)
    scaled = pearson([a * p + b for p in preds], golds)
    expected = base if a > 0 else -base
    assert scaled == pytest.approx(expected, abs=1e-9)


def test_pearson_matches_scalar_oracle():
    rng = random.Random(11)
    for _ in range(25):
        n = rng.randint(2, 30)
        p = [rng.uniform(-3, 3) for _ in range(n)]
        g = [rng.uniform(-3, 3) for _ in range(n)]
        assert pearson(p, g) == pytest.approx(pearson_scalar(p, g), abs=1e-12)


# ---------------------------------------------------------------------------
# report container and dispatch


def test_report_validates_rates():
    with pytest.raises(InputError):
        MetricReport("emotion", {"acc": 1.2, "wf1": 0.5}, 10)
    with pytest.raises(InputError):
        MetricReport("wide_score", {"mae": -0.1}, 10)
    with pytest.raises(InputError):
        MetricReport("wide_score", {"corr": 1.5}, 10)


def test_report_render_shows_percentages_and_undefined():
    r = sims_metrics([0.5, -0.5], [0.9, -0.8])
    text = r.render()
    assert "100.00%" in text
    assert "undefined" in text
    assert "samples 2" in text


def test_score_predictions_dispatch():
    assert score_predictions("wide_score", [1.0], [1.0]).family == "wide_score"
    assert score_predictions("narrow_score", [0.1], [0.1]).family == "narrow_score"
    assert score_predictions("emotion", [1], [1], class_count=3).family == "emotion"
    with pytest.raises(InputError):
        score_predictions("unknown", [1], [1])
    # a fractional class is refused, not truncated to a class
    for preds in ([1.5], [1.5, 2.7]):
        with pytest.raises(InputError):
            score_predictions("emotion", preds, [1, 2][:len(preds)], class_count=3)
    # and so is a NaN or infinite prediction or gold
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(InputError, match="class"):
            score_predictions("emotion", [bad], [1], class_count=3)
        with pytest.raises(InputError, match="class"):
            erc_metrics([1, 0], [0, bad], class_count=3)


# ---------------------------------------------------------------------------
# ablation table


def _report(acc):
    return MetricReport("emotion", {"acc": acc, "wf1": acc}, 10)


def test_ablation_full_only_single_row():
    with pytest.warns(UserWarning):
        table = ablation_report({"full": _report(0.9)})
    lines = table.splitlines()
    assert len(lines) == 2
    assert lines[1].startswith("full")


def test_ablation_fixed_row_order():
    results = {name: _report(0.5) for name in VARIANTS}
    table = ablation_report(results)
    labels = [line.split("  ")[0].strip() for line in table.splitlines()[1:]]
    assert labels == ["w/o A", "w/o V", "w/o T", "w/o A,V", "w/o mixer",
                      "w/o fusion", "full"]


def test_ablation_missing_variant_warns_and_omits():
    results = {"full": _report(0.9), "no_audio": _report(0.5)}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        table = ablation_report(results)
    messages = [str(w.message) for w in caught]
    assert any("no_vision" in m for m in messages)
    assert all("missing" in m for m in messages)
    assert "w/o V" not in table
    assert "w/o A" in table


def test_ablation_requires_full():
    with pytest.raises(InputError):
        ablation_report({"no_audio": _report(0.5)})


def test_ablation_renders_values():
    with pytest.warns(UserWarning):
        table = ablation_report({"full": _report(0.875)})
    assert "87.50" in table
