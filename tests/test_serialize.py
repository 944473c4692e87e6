"""Binary container and feature-file formats: bit-exact round trips,
corruption detection, header validation."""

import errno
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_array_equal

from mmadapt import serialize as S
from mmadapt.errors import CheckpointError, InputError
from mmadapt.trainer import TrainConfig, multi_seed_run

RNG = np.random.default_rng(7)


def sample_tensors():
    return [
        ("alpha", RNG.uniform(-3, 3, (4, 5))),
        ("beta.gamma", RNG.uniform(-3, 3, (7,))),
        ("w.0", RNG.uniform(-3, 3, (2, 3))),
    ]


def test_container_round_trip_bit_exact(tmp_path):
    p = tmp_path / "a.bin"
    tensors = sample_tensors()
    S.write_container(p, b"MSEA", b"\x01\x02\x03", tensors)
    first = p.read_bytes()
    config, loaded = S.read_container(p, b"MSEA")
    assert config == b"\x01\x02\x03"
    assert [n for n, _ in loaded] == [n for n, _ in tensors]
    for (_, got), (_, want) in zip(loaded, tensors):
        assert_array_equal(got, want)
        assert got.dtype == np.float64
    S.write_container(p, b"MSEA", config, loaded)
    assert p.read_bytes() == first


def test_container_rejects_wrong_magic(tmp_path):
    p = tmp_path / "a.bin"
    S.write_container(p, b"MSEA", b"", sample_tensors())
    with pytest.raises(CheckpointError, match="magic"):
        S.read_container(p, b"MSEB")


def test_container_detects_every_single_bit_flip_region(tmp_path):
    p = tmp_path / "a.bin"
    S.write_container(p, b"MSEA", b"cfg", sample_tensors())
    blob = bytearray(p.read_bytes())
    # probe a byte in each region: config area, a tensor name, tensor payload,
    # and the stored checksum itself
    for offset in [9, 20, len(blob) // 2, len(blob) - 80, len(blob) - 3]:
        flipped = bytearray(blob)
        flipped[offset] ^= 0x10
        p.write_bytes(bytes(flipped))
        with pytest.raises(CheckpointError):
            S.read_container(p, b"MSEA")
    p.write_bytes(bytes(blob))
    S.read_container(p, b"MSEA")  # pristine copy still loads


def test_container_rejects_truncation(tmp_path):
    p = tmp_path / "a.bin"
    S.write_container(p, b"MSEA", b"", sample_tensors())
    blob = p.read_bytes()
    p.write_bytes(blob[:10])
    with pytest.raises(CheckpointError):
        S.read_container(p, b"MSEA")


def test_checksum_is_64_bit_and_stable():
    c = S.checksum64(b"hello")
    assert c == S.checksum64(b"hello")
    assert c != S.checksum64(b"hellp")
    assert 0 <= c < 2**64


def test_features_round_trip(tmp_path):
    p = tmp_path / "x.msef"
    arr = RNG.uniform(-8, 8, (13, 4)).astype(np.float32)
    S.write_features(p, arr)
    back = S.read_features(p)
    assert back.dtype == np.float64
    assert_array_equal(back.astype(np.float32), arr)
    # re-writing the loaded matrix reproduces the file byte for byte
    S.write_features(tmp_path / "y.msef", back)
    assert (tmp_path / "y.msef").read_bytes() == p.read_bytes()


def test_features_header_layout(tmp_path):
    import struct

    p = tmp_path / "x.msef"
    S.write_features(p, np.ones((3, 2), dtype=np.float32))
    blob = p.read_bytes()
    assert blob[:4] == b"MSEF"
    assert struct.unpack_from("<II", blob, 4) == (3, 2)
    # header, f32 payload, trailing 64-bit checksum
    assert len(blob) == 12 + 4 * 6 + 8


def test_features_validation(tmp_path):
    p = tmp_path / "x.msef"
    with pytest.raises(InputError):
        S.write_features(p, np.ones((0, 3), dtype=np.float32))
    with pytest.raises(InputError):
        S.write_features(p, np.array([[np.nan]], dtype=np.float32))
    S.write_features(p, np.ones((2, 2), dtype=np.float32))
    blob = bytearray(p.read_bytes())
    blob[0] = ord("X")
    p.write_bytes(bytes(blob))
    with pytest.raises(InputError, match="not a feature file"):
        S.read_features(p)
    S.write_features(p, np.ones((2, 2), dtype=np.float32))
    p.write_bytes(p.read_bytes()[:-4])  # payload shorter than header implies
    with pytest.raises(InputError, match="header implies"):
        S.read_features(p)


def test_features_single_bit_corruption_detected(tmp_path):
    p = tmp_path / "x.msef"
    S.write_features(p, RNG.uniform(-4, 4, (5, 3)).astype(np.float32))
    blob = bytearray(p.read_bytes())
    for offset in [5, 14, len(blob) - 12]:  # dims, payload start, payload end
        flipped = bytearray(blob)
        flipped[offset] ^= 0x10
        p.write_bytes(bytes(flipped))
        with pytest.raises(InputError):
            S.read_features(p)


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 9), st.integers(1, 9), st.integers(0, 2**31 - 1))
def test_features_round_trip_property(tmp_path_factory, rows, cols, seed):
    arr = np.random.default_rng(seed).uniform(-50, 50, (rows, cols)).astype(np.float32)
    p = tmp_path_factory.mktemp("msef") / "f.msef"
    S.write_features(p, arr)
    assert_array_equal(S.read_features(p).astype(np.float32), arr)


def feature_bytes(rows, cols, values):
    """A feature file's bytes, written by hand with a valid checksum, so
    that it can hold what `write_features` refuses."""
    body = struct.pack("<II", rows, cols) + np.asarray(values, dtype="<f4").tobytes()
    return S.FEATURE_MAGIC + body + struct.pack("<Q", S.checksum64(body))


def test_read_features_refuses_a_missing_file_and_a_directory(tmp_path):
    with pytest.raises(InputError, match="cannot read: No such file or directory"):
        S.read_features(tmp_path / "missing.msef")
    (tmp_path / "d.msef").mkdir()
    with pytest.raises(InputError, match="cannot read: Is a directory"):
        S.read_features(tmp_path / "d.msef")


@pytest.mark.parametrize("rows, cols", [(0, 3), (3, 0), (0, 0)])
def test_read_features_refuses_a_zero_extent(tmp_path, rows, cols):
    p = tmp_path / "x.msef"
    p.write_bytes(feature_bytes(rows, cols, []))
    with pytest.raises(InputError, match=f"empty extent {rows}x{cols}"):
        S.read_features(p)


def test_read_features_refuses_a_file_longer_than_its_header_implies(tmp_path):
    p = tmp_path / "x.msef"
    S.write_features(p, np.ones((2, 3), dtype=np.float32))
    p.write_bytes(p.read_bytes() + b"\0")
    with pytest.raises(InputError, match="payload is 45 bytes, header implies 44"):
        S.read_features(p)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_read_features_refuses_a_non_finite_value_under_a_valid_checksum(tmp_path, bad):
    p = tmp_path / "x.msef"
    values = np.arange(12, dtype=np.float32)
    values[7] = bad
    p.write_bytes(feature_bytes(3, 4, values))
    with pytest.raises(InputError, match="non-finite feature values"):
        S.read_features(p)


def test_features_round_trip_over_one_mebibyte(tmp_path):
    """A file larger than any fixed read size, whose values include the
    largest float32 magnitudes, loads whole and bit-exact."""
    p = tmp_path / "x.msef"
    arr = RNG.uniform(-8, 8, (300, 1000)).astype(np.float32)
    arr[::7, ::3] = np.finfo(np.float32).max
    arr[1::7, ::5] = -np.finfo(np.float32).max
    S.write_features(p, arr)
    assert p.stat().st_size > 1 << 20
    back = S.read_features(p)
    assert back.dtype == np.float64 and back.shape == arr.shape
    assert back.astype(np.float32).tobytes() == arr.tobytes()


# ---------------------------------------------------------------------------
# interrupted writes


class _HalfWrite:
    """A file that takes the first half of what it is given, then fails as a
    full disk would."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        self.fh.write(data[:len(data) // 2])
        raise OSError(errno.ENOSPC, "No space left on device")


def fail_writes_to(monkeypatch, name):
    """Make every write of the artifact called `name` stop halfway."""
    real_open = open

    def fake_open(path, mode="r", *args, **kwargs):
        fh = real_open(path, mode, *args, **kwargs)
        return _HalfWrite(fh) if f".{name}." in Path(path).name else fh

    monkeypatch.setattr(S, "open", fake_open, raising=False)


WRITERS = {
    "a.msea": lambda p, k: S.write_container(p, b"MSEA", b"cfg", [("w", np.full((3, 4), k))]),
    "f.msef": lambda p, k: S.write_features(p, np.full((5, 3), k, dtype=np.float32)),
}


@pytest.mark.parametrize("name", sorted(WRITERS))
def test_interrupted_write_keeps_previous_artifact(tmp_path, monkeypatch, name):
    path = tmp_path / name
    WRITERS[name](path, 1.0)
    before = path.read_bytes()
    fail_writes_to(monkeypatch, name)
    with pytest.raises(OSError):
        WRITERS[name](path, 2.0)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == [name]


@pytest.mark.parametrize("name", ["train-full-seed5.jsonl", "report-full.json"])
def test_interrupted_run_log_or_report_keeps_previous(tmp_path, monkeypatch, small_synth,
                                                      small_backbone, small_adapter_config,
                                                      name):
    def run(lr):
        multi_seed_run(small_backbone, small_synth, small_adapter_config,
                       TrainConfig(learning_rate=lr, epochs=1, batch_size=8, seeds=(5,)),
                       out_dir=tmp_path)

    run(5e-3)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert name in before
    fail_writes_to(monkeypatch, name)
    with pytest.raises(OSError):
        run(1e-2)
    assert (tmp_path / name).read_bytes() == before[name]
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(before)
