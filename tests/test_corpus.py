"""Dataset directory format, synthetic planting, and subsampling."""

import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

from mmadapt.corpus import (
    FeatureSample,
    SyntheticSpec,
    generate_synthetic,
    load_dataset,
    planted_directions,
    subsample_train,
)
from mmadapt.errors import ConfigError, InputError
from mmadapt.presets import synthetic_preset
from mmadapt.serialize import write_features

SMALL = SyntheticSpec(train=60, valid=20, test=40, seed=97)


@pytest.fixture(scope="module")
def small_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("synth")
    ds = generate_synthetic(SMALL, out)
    return out, ds


def _tree_digest(root: Path) -> str:
    h = hashlib.blake2b(digest_size=16)
    for p in sorted(root.rglob("*")):
        if p.is_file():
            h.update(str(p.relative_to(root)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# generation and loading


def test_split_sizes(small_dir):
    _, ds = small_dir
    assert len(ds["train"]) == 60
    assert len(ds["valid"]) == 20
    assert len(ds["test"]) == 40


def test_feature_shapes_and_dtype(small_dir):
    _, ds = small_dir
    for s in ds["train"][:10]:
        assert s.audio.dtype == np.float64
        assert s.vision.dtype == np.float64
        assert s.audio.shape[1] == SMALL.audio_width
        assert s.vision.shape[1] == SMALL.vision_width
        assert SMALL.min_len <= s.audio.shape[0] <= SMALL.max_len
        assert SMALL.min_len <= s.vision.shape[0] <= SMALL.max_len


def test_labels_in_range_and_all_present(small_dir):
    _, ds = small_dir
    labels = {int(s.label) for split in ("train", "valid", "test") for s in ds[split]}
    assert labels == {0, 1, 2}


def test_text_tracks_class_group(small_dir):
    _, ds = small_dir
    texts = {}
    for s in ds["train"]:
        texts.setdefault(0 if int(s.label) == 0 else 1, set()).add(s.text)
    assert len(texts[0]) == 1 and len(texts[1]) == 1
    assert texts[0] != texts[1]


def test_generation_deterministic_byte_identical(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    generate_synthetic(SMALL, a)
    generate_synthetic(SMALL, b)
    assert _tree_digest(a) == _tree_digest(b)


def test_different_seed_different_bytes(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    generate_synthetic(SMALL, a)
    generate_synthetic(SyntheticSpec(train=60, valid=20, test=40, seed=98), b)
    assert _tree_digest(a) != _tree_digest(b)


def test_meta_records_ceiling(small_dir):
    out, ds = small_dir
    meta = json.loads((out / "meta.json").read_text())
    assert meta["ceiling_accuracy"] == ds.meta["ceiling_accuracy"]
    assert 0.0 <= meta["ceiling_accuracy"] <= 1.0


def test_load_without_preset_uses_meta(small_dir):
    out, _ = small_dir
    ds = load_dataset(out)
    assert ds.preset.name == "synthetic"
    assert ds.preset.class_count == 3
    assert len(ds["test"]) == 40


# ---------------------------------------------------------------------------
# planted-rule geometry, verified independently of the generator


def _independent_centroid_accuracy(ds, spec: SyntheticSpec) -> float:
    """Recompute the nearest-centroid oracle from planted means, by hand."""
    audio_means, vision_means = planted_directions(spec)
    hits = 0
    for s in ds["test"]:
        feats = np.concatenate([s.audio.mean(axis=0), s.vision.mean(axis=0)])
        dists = []
        for cls in range(spec.class_count):
            g = 0 if cls == 0 else 1
            mu = np.concatenate([audio_means[cls], vision_means[g]])
            dists.append(np.sum((feats - mu) ** 2))
        if int(np.argmin(dists)) == int(s.label):
            hits += 1
    return hits / len(ds["test"])


def test_ceiling_matches_independent_recomputation(small_dir):
    out, ds = small_dir
    acc = _independent_centroid_accuracy(ds, SMALL)
    meta = json.loads((out / "meta.json").read_text())
    assert acc == pytest.approx(meta["ceiling_accuracy"], abs=1e-12)


def test_ceiling_high_at_default_noise(tmp_path):
    spec = SyntheticSpec(train=30, valid=20, test=400, noise=0.1, seed=5)
    ds = generate_synthetic(spec, tmp_path / "d")
    assert _independent_centroid_accuracy(ds, spec) >= 0.99


def test_zero_noise_perfect_ceiling(tmp_path):
    spec = SyntheticSpec(train=10, valid=10, test=120, noise=0.0, seed=3)
    ds = generate_synthetic(spec, tmp_path / "d")
    assert _independent_centroid_accuracy(ds, spec) == 1.0


def test_planted_directions_orthonormal():
    audio_means, vision_means = planted_directions(SMALL)
    assert audio_means.shape == (3, SMALL.audio_width)
    assert vision_means.shape == (2, SMALL.vision_width)
    assert np.allclose(audio_means @ audio_means.T, np.eye(3), atol=1e-10)
    assert np.allclose(vision_means @ vision_means.T, np.eye(2), atol=1e-10)


def test_audio_is_sole_separator_of_upper_classes(tmp_path):
    """With audio hidden, classes 1 and 2 share vision means and text, so no
    classifier can tell them apart beyond chance."""
    spec = SyntheticSpec(train=10, valid=10, test=300, noise=0.0, seed=11)
    ds = generate_synthetic(spec, tmp_path / "d")
    by_cls = {}
    for s in ds["test"]:
        by_cls.setdefault(int(s.label), []).append(s)
    for a, b in ((1, 2),):
        va = np.mean([s.vision.mean(axis=0) for s in by_cls[a]], axis=0)
        vb = np.mean([s.vision.mean(axis=0) for s in by_cls[b]], axis=0)
        assert np.allclose(va, vb, atol=1e-6)
        assert {s.text for s in by_cls[a]} == {s.text for s in by_cls[b]}


def test_vision_and_text_separate_class_zero(tmp_path):
    spec = SyntheticSpec(train=10, valid=10, test=300, noise=0.0, seed=11)
    ds = generate_synthetic(spec, tmp_path / "d")
    zero = [s for s in ds["test"] if int(s.label) == 0]
    rest = [s for s in ds["test"] if int(s.label) != 0]
    v0 = np.mean([s.vision.mean(axis=0) for s in zero], axis=0)
    v1 = np.mean([s.vision.mean(axis=0) for s in rest], axis=0)
    assert np.linalg.norm(v0 - v1) > 1.0
    assert {s.text for s in zero}.isdisjoint({s.text for s in rest})


# ---------------------------------------------------------------------------
# subsampling


def test_subsample_count_is_ceiling():
    samples = [FeatureSample(f"s{i}", "t", 0.0, np.zeros((2, 4)), np.zeros((2, 4)),
                             "train") for i in range(16326)]
    assert len(subsample_train(samples, 0.4, seed=1)) == 6531
    assert len(subsample_train(samples, 1.0, seed=1)) == 16326
    assert len(subsample_train(samples[:10], 0.25, seed=1)) == math.ceil(2.5)


def test_subsample_deterministic_and_ordered():
    samples = [FeatureSample(f"s{i:03d}", "t", 0.0, np.zeros((2, 4)),
                             np.zeros((2, 4)), "train") for i in range(100)]
    a = subsample_train(samples, 0.3, seed=7)
    b = subsample_train(samples, 0.3, seed=7)
    assert [s.sid for s in a] == [s.sid for s in b]
    assert [s.sid for s in a] == sorted(s.sid for s in a)
    c = subsample_train(samples, 0.3, seed=8)
    assert [s.sid for s in c] != [s.sid for s in a]


def test_subsample_without_replacement():
    samples = [FeatureSample(f"s{i}", "t", 0.0, np.zeros((2, 4)), np.zeros((2, 4)),
                             "train") for i in range(50)]
    got = subsample_train(samples, 0.9, seed=2)
    assert len({s.sid for s in got}) == len(got)


def test_subsample_bad_fraction():
    with pytest.raises(ConfigError):
        subsample_train([], 0.0, seed=1)
    with pytest.raises(ConfigError):
        subsample_train([], 1.5, seed=1)


# ---------------------------------------------------------------------------
# validation errors


def test_spec_validation():
    with pytest.raises(ConfigError):
        SyntheticSpec(class_count=1)
    with pytest.raises(ConfigError):
        SyntheticSpec(noise=-0.1)
    with pytest.raises(ConfigError):
        SyntheticSpec(train=0)
    with pytest.raises(ConfigError):
        SyntheticSpec(min_len=5, max_len=4)
    with pytest.raises(ConfigError):
        SyntheticSpec(class_count=7, audio_width=4)


def test_load_missing_manifest(tmp_path):
    with pytest.raises(InputError, match="manifest"):
        load_dataset(tmp_path, synthetic_preset(3, 8, 8))


def test_load_rejects_duplicate_ids(small_dir):
    out, _ = small_dir
    manifest = out / "manifest.jsonl"
    lines = manifest.read_text().splitlines()
    broken = out.parent / "dup"
    broken.mkdir(exist_ok=True)
    (broken / "features").symlink_to(out / "features")
    (broken / "manifest.jsonl").write_text("\n".join([lines[0], lines[0]]) + "\n")
    with pytest.raises(InputError, match="duplicate"):
        load_dataset(broken, synthetic_preset(3, 8, 8))


def one_record_dataset(tmp_path, widths=(8, 8), **changes):
    """A dataset directory of one record with zero features of the given
    widths, the record's fields overridden by `changes`."""
    (tmp_path / "features").mkdir()
    for modality, width in zip("av", widths):
        write_features(tmp_path / "features" / f"x.{modality}.msef",
                       np.zeros((2, width), np.float32))
    rec = {"id": "x", "text": "t", "label": 0, "audio": "features/x.a.msef",
           "vision": "features/x.v.msef", "split": "train", **changes}
    (tmp_path / "manifest.jsonl").write_text(json.dumps(rec) + "\n")
    return tmp_path


def test_load_rejects_bad_split(tmp_path):
    root = one_record_dataset(tmp_path, split="dev")
    preset = synthetic_preset(3, 8, 8)
    with pytest.raises(InputError, match="split"):
        load_dataset(root, preset)


def test_load_rejects_wrong_width(tmp_path):
    root = one_record_dataset(tmp_path, widths=(6, 8))
    preset = synthetic_preset(3, 8, 8)
    with pytest.raises(InputError, match="audio width"):
        load_dataset(root, preset)


def test_load_rejects_out_of_range_class(tmp_path):
    root = one_record_dataset(tmp_path, label=9)
    preset = synthetic_preset(3, 8, 8)
    with pytest.raises(InputError, match="class"):
        load_dataset(root, preset)


def test_score_label_range(tmp_path):
    from mmadapt.presets import get_preset
    root = one_record_dataset(tmp_path, widths=(74, 35), label=3.5)
    with pytest.raises(InputError, match="score"):
        load_dataset(root, get_preset("mosei"))


@pytest.mark.parametrize("label", [math.nan, math.inf, -math.inf])
def test_load_rejects_a_non_finite_class_naming_the_record(tmp_path, label):
    """JSON's NaN and Infinity load as floats; a class label of either is an
    InputError that names the record, not a bare ValueError from int()."""
    root = one_record_dataset(tmp_path, label=label)
    preset = synthetic_preset(3, 8, 8)
    with pytest.raises(InputError, match=r"^x: class (nan|inf|-inf) outside 0\.\.2$"):
        load_dataset(root, preset)


@pytest.mark.parametrize("label", [math.nan, math.inf, -math.inf])
def test_load_rejects_a_non_finite_score(tmp_path, label):
    from mmadapt.presets import get_preset
    root = one_record_dataset(tmp_path, widths=(74, 35), label=label)
    with pytest.raises(InputError, match=r"^x: score (nan|inf|-inf) outside"):
        load_dataset(root, get_preset("mosei"))


@pytest.mark.parametrize("label", [True, "1", " 2 "])
def test_load_rejects_a_label_that_is_not_a_json_number(tmp_path, label):
    """float() reads true as 1.0 and a numeric string as its number; a
    manifest label must be a JSON number."""
    root = one_record_dataset(tmp_path, label=label)
    preset = synthetic_preset(3, 8, 8)
    with pytest.raises(InputError, match=r"manifest\.jsonl:1: label must be a JSON number"):
        load_dataset(root, preset)


def test_load_rejects_an_integer_label_too_large_for_a_float(tmp_path):
    root = one_record_dataset(tmp_path, label=10**400)
    preset = synthetic_preset(3, 8, 8)
    with pytest.raises(InputError, match=r"manifest\.jsonl:1: bad record: int too large"):
        load_dataset(root, preset)


@pytest.mark.parametrize("sid", [["x"], {"x": 1}, 7, 1.5, "", None, True])
def test_load_rejects_an_id_that_is_not_a_non_empty_string(tmp_path, sid):
    root = one_record_dataset(tmp_path, id=sid)
    preset = synthetic_preset(3, 8, 8)
    with pytest.raises(InputError, match=r"manifest\.jsonl:1: id must be a non-empty string"):
        load_dataset(root, preset)


def test_load_rejects_malformed_json(tmp_path):
    (tmp_path / "manifest.jsonl").write_text("{not json\n")
    preset = synthetic_preset(3, 8, 8)
    with pytest.raises(InputError, match="bad record"):
        load_dataset(tmp_path, preset)


@pytest.mark.parametrize("meta, message", [
    ("{not json", "bad meta.json"),
    ("[1, 2]", "expected a JSON object"),
    (json.dumps({"task": "emotion"}), "missing key 'name'"),
    (json.dumps({"name": "synthetic", "class_count": 3}), "missing key 'audio_width'"),
    (json.dumps({"name": "nonesuch"}), "unknown preset 'nonesuch'"),
])
def test_load_wraps_malformed_meta_as_input_error(tmp_path, meta, message):
    (tmp_path / "meta.json").write_text(meta)
    with pytest.raises(InputError, match=message):
        load_dataset(tmp_path)
