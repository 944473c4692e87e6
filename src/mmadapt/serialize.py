"""Binary artifact formats.

Checkpoint container (backbone and adapter share it, distinct magics):

    magic[4] | version u32 | config_len u32 | config bytes
    | repeated tensor records: name_len u32 | name utf-8 | rank u32
      | extents u32 each | float64 little-endian values
    | checksum u64

The checksum is a 64-bit blake2b over every byte between the version field
and the checksum itself, so any single-bit corruption in config or weights
fails the load. All integers are little-endian.

Feature matrices use a smaller format, whose checksum is the same 64-bit
blake2b over the bytes between the magic and the checksum:

    "MSEF" | rows u32 | cols u32 | float32 little-endian row-major values
    | checksum u64
"""

from __future__ import annotations

import hashlib
import itertools
import math
import os
import struct
from pathlib import Path

import numpy as np

from .errors import CheckpointError, InputError

CONTAINER_VERSION = 1
FEATURE_MAGIC = b"MSEF"


def checksum64(*parts) -> int:
    """64-bit blake2b of the concatenation of the bytes-like `parts`."""
    h = hashlib.blake2b(digest_size=8)
    for part in parts:
        h.update(part)
    return int.from_bytes(h.digest(), "little")


def write_atomic(path: str | Path, data: bytes) -> None:
    """Write `data` to a temporary file beside `path`, then rename it over
    `path`: the file under the final name holds its old content or all of
    the new one, never a part."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def tensor_parts(tensors: list[tuple[str, np.ndarray]]):
    """Each tensor's record header, then its values as one contiguous
    little-endian float64 array: the pieces `pack_tensors` joins, which a
    hash can take one by one without that copy."""
    for name, arr in tensors:
        if arr.dtype != np.float64:
            raise CheckpointError(f"tensor {name!r} must be float64, got {arr.dtype}")
        nb = name.encode("utf-8")
        yield struct.pack(f"<I{len(nb)}sI{arr.ndim}I", len(nb), nb, arr.ndim, *arr.shape)
        yield np.ascontiguousarray(arr, dtype="<f8")


def pack_tensors(tensors: list[tuple[str, np.ndarray]]) -> bytes:
    return b"".join(tensor_parts(tensors))


def write_container(path: str | Path, magic: bytes, config: bytes,
                    tensors: list[tuple[str, np.ndarray]]) -> None:
    if len(magic) != 4:
        raise CheckpointError(f"magic must be 4 bytes, got {magic!r}")
    body = struct.pack("<I", len(config)) + config + pack_tensors(tensors)
    blob = magic + struct.pack("<I", CONTAINER_VERSION) + body
    blob += struct.pack("<Q", checksum64(body))
    write_atomic(path, blob)


def read_container(path: str | Path, magic: bytes) -> tuple[bytes, list[tuple[str, np.ndarray]]]:
    try:
        blob = Path(path).read_bytes()
    except OSError as exc:
        raise CheckpointError(f"{path}: cannot read: {exc.strerror or exc}") from exc
    if len(blob) < 20:
        raise CheckpointError(f"{path}: truncated container")
    if blob[:4] != magic:
        raise CheckpointError(f"{path}: bad magic {blob[:4]!r}, expected {magic!r}")
    (version,) = struct.unpack_from("<I", blob, 4)
    if version != CONTAINER_VERSION:
        raise CheckpointError(f"{path}: unsupported version {version}")
    body, (stored,) = blob[8:-8], struct.unpack_from("<Q", blob, len(blob) - 8)
    if checksum64(body) != stored:
        raise CheckpointError(f"{path}: checksum mismatch, file is corrupt")
    off = 0
    (clen,) = struct.unpack_from("<I", body, off)
    off += 4
    if off + clen > len(body):
        raise CheckpointError(f"{path}: config block overruns file")
    config = body[off:off + clen]
    off += clen
    tensors: list[tuple[str, np.ndarray]] = []
    while off < len(body):
        try:
            (nlen,) = struct.unpack_from("<I", body, off)
            off += 4
            name = body[off:off + nlen].decode("utf-8")
            off += nlen
            (rank,) = struct.unpack_from("<I", body, off)
            off += 4
            shape = struct.unpack_from(f"<{rank}I", body, off)
            off += 4 * rank
            count = int(np.prod(shape, dtype=np.int64)) if rank else 1
            arr = np.frombuffer(body, dtype="<f8", count=count, offset=off).reshape(shape).copy()
            off += 8 * count
        except (struct.error, ValueError) as exc:
            raise CheckpointError(f"{path}: malformed tensor record: {exc}") from exc
        tensors.append((name, arr))
    return config, tensors


def check_tensors(path: str | Path, tensors: list[tuple[str, np.ndarray]],
                  shapes: dict[str, tuple[int, ...]]) -> None:
    """Raise CheckpointError unless `tensors` holds the names of `shapes`,
    once each and in its order, each with its shape."""
    for i, (got, want) in enumerate(itertools.zip_longest([n for n, _ in tensors], shapes)):
        if got != want:
            raise CheckpointError(f"{path}: tensor record {i} is {got!r}, expected {want!r}")
    for name, arr in tensors:
        if arr.shape != shapes[name]:
            raise CheckpointError(f"{path}: tensor {name!r} has shape {arr.shape}, "
                                  f"expected {shapes[name]}")


def write_features(path: str | Path, features: np.ndarray) -> None:
    arr = np.asarray(features, dtype="<f4")
    if arr.ndim != 2 or arr.shape[0] == 0 or arr.shape[1] == 0:
        raise InputError(f"features must be a non-empty 2-d matrix, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise InputError("features must be finite")
    body = struct.pack("<II", *arr.shape) + np.ascontiguousarray(arr).tobytes()
    blob = FEATURE_MAGIC + body + struct.pack("<Q", checksum64(body))
    write_atomic(path, blob)


def read_features(path: str | Path) -> np.ndarray:
    """Load a feature matrix, promoted to float64 for all in-memory math.
    The file comes in with one read of the size it reports, and the checks
    run over views of that one buffer."""
    try:
        fd = os.open(path, os.O_RDONLY)
        try:
            blob = os.read(fd, os.fstat(fd).st_size)
        finally:
            os.close(fd)
    except OSError as exc:
        raise InputError(f"{path}: cannot read: {exc.strerror or exc}") from exc
    if len(blob) < 20 or blob[:4] != FEATURE_MAGIC:
        raise InputError(f"{path}: not a feature file")
    rows, cols = struct.unpack_from("<II", blob, 4)
    if rows == 0 or cols == 0:
        raise InputError(f"{path}: empty extent {rows}x{cols}")
    want = 12 + 4 * rows * cols + 8
    if len(blob) != want:
        raise InputError(f"{path}: payload is {len(blob)} bytes, header implies {want}")
    view = memoryview(blob)
    if checksum64(view[4:-8]) != struct.unpack_from("<Q", blob, want - 8)[0]:
        raise InputError(f"{path}: checksum mismatch, file is corrupt")
    arr = np.frombuffer(view[12:-8], dtype="<f4").reshape(rows, cols).astype(np.float64)
    # float32 values promoted to float64 cannot overflow a sum, so the sum is
    # finite exactly when every value is
    if not math.isfinite(arr.sum()):
        raise InputError(f"{path}: non-finite feature values")
    return arr
