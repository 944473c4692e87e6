"""Independent numpy/scipy reference for the benchmark's correctness checks.

Everything here is written from the documented file formats and equations
and imports nothing from `mmadapt`: the container and feature readers, the
adapter forward (two LSTMs, text-gated mix, multi-scale fusion, rank-1
expansion), the pre-norm causal decoder, greedy decoding, label loss, and
accuracy plus support-weighted F1. Attention uses a batched-heads layout and
-inf masking where the program loops over heads with a finite mask, so the two
agree only if both are right.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from pathlib import Path

import numpy as np
from scipy.special import erf, expit, logsumexp, softmax

VOCAB = 259
EOS = 257
LN_EPS = 1e-5


def _checksum(payload: bytes) -> int:
    return int.from_bytes(hashlib.blake2b(payload, digest_size=8).digest(), "little")


def read_container(path: str | Path, magic: bytes) -> tuple[bytes, dict[str, np.ndarray]]:
    """magic | version u32 | config_len u32 | config | tensor records | u64 checksum."""
    blob = Path(path).read_bytes()
    if blob[:4] != magic:
        raise ValueError(f"{path}: magic {blob[:4]!r} is not {magic!r}")
    body = blob[8:-8]
    if _checksum(body) != int.from_bytes(blob[-8:], "little"):
        raise ValueError(f"{path}: checksum mismatch")
    clen = int.from_bytes(body[:4], "little")
    config = body[4:4 + clen]
    off = 4 + clen
    tensors: dict[str, np.ndarray] = {}
    while off < len(body):
        nlen = int.from_bytes(body[off:off + 4], "little")
        name = body[off + 4:off + 4 + nlen].decode("utf-8")
        off += 4 + nlen
        rank = int.from_bytes(body[off:off + 4], "little")
        shape = struct.unpack_from(f"<{rank}I", body, off + 4)
        off += 4 + 4 * rank
        count = math.prod(shape)
        tensors[name] = np.frombuffer(body, "<f8", count, off).reshape(shape).astype(np.float64)
        off += 8 * count
    return config, tensors


def read_features(path: str | Path) -> np.ndarray:
    """"MSEF" | rows u32 | cols u32 | float32 row-major | u64 checksum."""
    blob = Path(path).read_bytes()
    rows, cols = struct.unpack_from("<II", blob, 4)
    if _checksum(blob[4:-8]) != int.from_bytes(blob[-8:], "little"):
        raise ValueError(f"{path}: checksum mismatch")
    return np.frombuffer(blob, "<f4", rows * cols, 12).reshape(rows, cols).astype(np.float64)


def read_manifest(root: str | Path) -> list[dict]:
    """Manifest records with their feature matrices read from disk."""
    root = Path(root)
    records = []
    for line in (root / "manifest.jsonl").read_text(encoding="utf-8").splitlines():
        if line.strip():
            rec = json.loads(line)
            rec["audio"] = read_features(root / rec["audio"])
            rec["vision"] = read_features(root / rec["vision"])
            records.append(rec)
    return records


def byte_ids(text: str) -> list[int]:
    return list(text.encode("utf-8"))


def _layernorm(x: np.ndarray, gain: np.ndarray, bias: np.ndarray) -> np.ndarray:
    mu = x.mean(axis=1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=1, keepdims=True)
    return (x - mu) / np.sqrt(var + LN_EPS) * gain + bias


def _gelu(x: np.ndarray) -> np.ndarray:
    return 0.5 * x * (1.0 + erf(x / math.sqrt(2.0)))


class Backbone:
    """Pre-norm causal decoder with tied unembedding over a 259-id vocabulary."""

    def __init__(self, config: bytes, weights: dict[str, np.ndarray]) -> None:
        vocab, self.width, self.layers, self.heads, _, self.max_seq = struct.unpack("<6I", config)
        if vocab != VOCAB:
            raise ValueError(f"vocabulary {vocab} != {VOCAB}")
        self.w = weights

    @classmethod
    def from_file(cls, path: str | Path) -> "Backbone":
        return cls(*read_container(path, b"MSEB"))

    def embed(self, ids) -> np.ndarray:
        return self.w["embed"][np.asarray(ids, dtype=np.int64)]

    def logits(self, rows: np.ndarray) -> np.ndarray:
        w, n, h = self.w, rows.shape[0], self.heads
        dh = self.width // h
        future = np.triu(np.ones((n, n), dtype=bool), k=1)
        x = rows + w["pos"][:n]
        for i in range(self.layers):
            p = f"h{i}."
            a = _layernorm(x, w[p + "ln1.g"], w[p + "ln1.b"])
            q, k, v = ((a @ w[p + m] + w[p + b]).reshape(n, h, dh).transpose(1, 0, 2)
                       for m, b in (("wq", "bq"), ("wk", "bk"), ("wv", "bv")))
            scores = q @ k.transpose(0, 2, 1) / math.sqrt(dh)
            scores[:, future] = -np.inf
            heads = softmax(scores, axis=-1) @ v
            x = x + heads.transpose(1, 0, 2).reshape(n, self.width) @ w[p + "wo"] + w[p + "bo"]
            f = _layernorm(x, w[p + "ln2.g"], w[p + "ln2.b"])
            x = x + _gelu(f @ w[p + "wf1"] + w[p + "bf1"]) @ w[p + "wf2"] + w[p + "bf2"]
        return _layernorm(x, w["lnf.g"], w["lnf.b"]) @ w["embed"].T

    def line_loss(self, ids: list[int]) -> float:
        """Mean next-token cross-entropy of a line that already ends in EOS."""
        lg = self.logits(self.embed(ids[:-1]))
        return float(np.mean(logsumexp(lg, axis=1) - lg[np.arange(len(ids) - 1), ids[1:]]))


class Adapter:
    """The `full` adapter variant: features -> token_count x width rank-1 block."""

    def __init__(self, config: bytes, weights: dict[str, np.ndarray]) -> None:
        (self.audio_width, self.vision_width, self.audio_hidden, self.vision_hidden,
         self.mix_width, self.token_count, self.width, nk) = struct.unpack_from("<8I", config)
        self.divisors = struct.unpack_from(f"<{nk}I", config, 32)
        vlen = struct.unpack_from("<I", config, 32 + 4 * nk)[0]
        self.variant = config[36 + 4 * nk:36 + 4 * nk + vlen].decode("utf-8")
        if self.variant != "full":
            raise ValueError(f"reference covers the full variant only, not {self.variant!r}")
        self.w = weights

    @classmethod
    def from_file(cls, path: str | Path) -> "Adapter":
        return cls(*read_container(path, b"MSEA"))

    def _lstm(self, tag: str, x: np.ndarray) -> np.ndarray:
        wih, whh, b = (self.w[f"{tag}_lstm.{n}"] for n in ("wih", "whh", "b"))
        hid = whh.shape[1]
        h = np.zeros((hid, 1))
        c = np.zeros((hid, 1))
        for row in x:
            z = wih @ row[:, None] + whh @ h + b
            i, f, g, o = (z[j * hid:(j + 1) * hid] for j in range(4))
            c = expit(f) * c + expit(i) * np.tanh(g)
            h = expit(o) * np.tanh(c)
        return h

    def pseudo_tokens(self, text_rows: np.ndarray, audio: np.ndarray,
                      vision: np.ndarray) -> np.ndarray:
        w = self.w
        text = w["text_proj.w"] @ text_rows.mean(axis=0)[:, None] + w["text_proj.b"]
        vis = w["vision_proj.w"] @ self._lstm("vision", vision) + w["vision_proj.b"]
        aud = w["audio_proj.w"] @ self._lstm("audio", audio) + w["audio_proj.b"]
        mixed = (vis + aud) * text
        fused = w["mix.b"][0]
        for j, k in enumerate(self.divisors):
            down = _gelu(w[f"fuse.{k}.down.w"] @ mixed + w[f"fuse.{k}.down.b"])
            fused = fused + w["mix.w"][j, 0] * (w[f"fuse.{k}.up.w"] @ down + w[f"fuse.{k}.up.b"])
        u = w["expand.w3"] @ fused + w["expand.b3"]
        return w["expand.w4"] @ u.T


def sample_rows(backbone: Backbone, adapter: Adapter, rec: dict, prompt: str,
                label_ids: list[int] = ()) -> tuple[np.ndarray, int]:
    """Backbone input rows [pseudo; text; prompt; label] and the index of the
    first label row."""
    text_ids = byte_ids(rec["text"])
    pseudo = adapter.pseudo_tokens(backbone.embed(text_ids), rec["audio"], rec["vision"])
    const = backbone.embed(text_ids + byte_ids(prompt) + list(label_ids))
    return np.concatenate([pseudo, const]), pseudo.shape[0] + len(text_ids) + len(byte_ids(prompt))


def label_ids(label: float) -> list[int]:
    """An emotion label is its class numeral followed by EOS."""
    return byte_ids(str(int(label))) + [EOS]


def sample_loss(backbone: Backbone, adapter: Adapter, rec: dict, prompt: str) -> float:
    """Summed cross-entropy of the label tokens, each predicted from the row before it."""
    ids = label_ids(rec["label"])
    rows, start = sample_rows(backbone, adapter, rec, prompt, ids)
    lg = backbone.logits(rows)[start - 1:start - 1 + len(ids)]
    return float(np.sum(logsumexp(lg, axis=1) - lg[np.arange(len(ids)), ids]))


def greedy_steps(backbone: Backbone, rows: np.ndarray, tokens: list[int],
                 max_new: int) -> list[tuple[int, int, float]]:
    """Replay a greedy decode that emitted `tokens` after `rows`.

    Returns, for every step the decode took, the id it emitted (EOS where it
    stopped early), the reference's argmax and the gap between the
    reference's two largest logits. The decoder is causal, so one forward
    over rows plus the emitted ids gives every step's logits at once.
    """
    steps = len(tokens) if len(tokens) >= max_new else len(tokens) + 1
    steps = min(steps, backbone.max_seq - rows.shape[0])
    if steps <= 0:
        return []
    full = np.concatenate([rows, backbone.embed(tokens[:steps - 1])])
    logits = backbone.logits(full)[rows.shape[0] - 1:]
    out = []
    for t in range(steps):
        top2 = np.partition(logits[t], -2)[-2:]
        emitted = tokens[t] if t < len(tokens) else EOS
        out.append((emitted, int(np.argmax(logits[t])), float(top2[1] - top2[0])))
    return out


def parse_class(ids: list[int], class_count: int, neutral: int = 0) -> int:
    """First decimal digit naming a valid class in the decoded text, else neutral."""
    text = bytes(i for i in ids if i < 256).decode("utf-8", errors="replace")
    for ch in text:
        if ch.isdecimal() and int(ch) < class_count:
            return int(ch)
    return neutral


def emotion_metrics(preds, golds, class_count: int) -> dict[str, float]:
    """Accuracy and support-weighted F1 from the confusion matrix."""
    cm = np.zeros((class_count, class_count))
    np.add.at(cm, (np.asarray(golds, dtype=np.int64), np.asarray(preds, dtype=np.int64)), 1)
    tp, support, predicted = np.diag(cm), cm.sum(axis=1), cm.sum(axis=0)
    denom = support + predicted
    f1 = np.divide(2 * tp, denom, out=np.zeros(class_count), where=denom > 0)
    total = cm.sum()
    return {"acc": float(tp.sum() / total), "wf1": float(np.sum(support / total * f1))}
