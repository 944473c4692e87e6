"""Byte-level autoregressive backbone.

A small pre-norm decoder transformer over a fixed 259-token vocabulary
(256 raw bytes plus BOS/EOS/PAD). It is pretrained briefly on synthetic
prompt/label text, then frozen: weights become physically read-only and a
64-bit content checksum pins them for the rest of the experiment. Steering
happens purely through rows of continuous pseudo-token embeddings prepended
to the input.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from . import tensor as T
from .errors import (CheckpointError, ConfigError, FrozenViolation,
                     LengthError, TokenError)
from .optim import AdamWState, adamw_step, clip_global_norm, lr_schedule
from .serialize import (check_tensors, checksum64, read_container, tensor_parts,
                        write_container)

VOCAB_SIZE = 259
BOS = 256  # reserved; the assembly pipeline never emits it
EOS = 257
PAD = 258  # reserved; padded batches pad with zero rows, never this id

BACKBONE_MAGIC = b"MSEB"


def tokenize(text: str) -> list[int]:
    """UTF-8 bytes as ids. No specials are added."""
    return list(text.encode("utf-8"))


def detokenize(ids: Sequence[int]) -> str:
    """Byte ids back to text. Specials are dropped; invalid UTF-8 is replaced."""
    for i in ids:
        if not (0 <= i < VOCAB_SIZE):
            raise TokenError(f"id {i} outside vocabulary 0..{VOCAB_SIZE - 1}")
    return bytes(i for i in ids if i < 256).decode("utf-8", errors="replace")


@dataclass(frozen=True)
class BackboneConfig:
    embed_width: int = 64
    layers: int = 2
    heads: int = 2
    ffn_mult: int = 4
    max_seq: int = 256

    def __post_init__(self) -> None:
        if self.embed_width <= 0 or self.layers <= 0 or self.heads <= 0:
            raise ConfigError(f"backbone extents must be positive: {self}")
        if self.embed_width % self.heads != 0:
            raise ConfigError(
                f"embed_width {self.embed_width} not divisible by heads {self.heads}")
        if self.ffn_mult <= 0 or self.max_seq <= 0:
            raise ConfigError(f"backbone extents must be positive: {self}")

    def pack(self) -> bytes:
        return struct.pack("<6I", VOCAB_SIZE, self.embed_width, self.layers,
                           self.heads, self.ffn_mult, self.max_seq)

    @classmethod
    def unpack(cls, blob: bytes) -> "BackboneConfig":
        try:
            vocab, ew, layers, heads, ffn, max_seq = struct.unpack("<6I", blob)
        except struct.error as exc:
            raise CheckpointError(f"bad backbone config block: {exc}") from exc
        if vocab != VOCAB_SIZE:
            raise CheckpointError(f"vocabulary size {vocab} != {VOCAB_SIZE}")
        return cls(ew, layers, heads, ffn, max_seq)


def weight_shapes(config: BackboneConfig) -> dict[str, tuple[int, int]]:
    """Every backbone tensor's shape by name, in checkpoint order."""
    d = config.embed_width
    f = d * config.ffn_mult
    block = {"ln1.g": (1, d), "ln1.b": (1, d),
             **dict.fromkeys(("wq", "wk", "wv", "wo"), (d, d)),
             **dict.fromkeys(("bq", "bk", "bv", "bo"), (1, d)),
             "ln2.g": (1, d), "ln2.b": (1, d),
             "wf1": (d, f), "bf1": (1, f), "wf2": (f, d), "bf2": (1, d)}
    shapes = {"embed": (VOCAB_SIZE, d), "pos": (config.max_seq, d)}
    for i in range(config.layers):
        shapes.update((f"h{i}.{name}", shape) for name, shape in block.items())
    shapes.update({"lnf.g": (1, d), "lnf.b": (1, d)})
    return shapes


def init_weights(config: BackboneConfig, rng: np.random.Generator) -> dict[str, T.Tensor]:
    """Draw the tensors of `weight_shapes` in its order: normal embeddings,
    unit norm gains, zero biases, and matrices uniform in +-1/sqrt(fan-in),
    where the fan-in is the row count (rows multiply as x @ w)."""
    w: dict[str, T.Tensor] = {}
    for name, shape in weight_shapes(config).items():
        leaf = name.rsplit(".", 1)[-1]
        if name in ("embed", "pos"):
            arr = rng.normal(0.0, 0.05, shape)
        elif leaf == "g":
            arr = np.ones(shape)
        elif leaf.startswith("w"):
            bound = 1.0 / math.sqrt(shape[0])
            arr = rng.uniform(-bound, bound, shape)
        else:
            arr = np.zeros(shape)
        w[name] = T.Tensor(arr, requires_grad=True)
    return w


def _forward(config: BackboneConfig, w: dict[str, T.Tensor], rows: T.Tensor,
             last: int | None = None, first: Sequence[int] | None = None,
             cache: Sequence[tuple[np.ndarray, np.ndarray]] | None = None,
             at: np.ndarray | None = None) -> T.Tensor:
    """Embedded rows -> next-token logits of `last` rows per sample (all
    rows when None).

    `rows` holds one sample's rows or, with `first`, the rows of
    B = len(first) samples stacked, each right-padded to the same count l.
    Sample b's rows sit at positions at[b] .. at[b] + l - 1 (at 0 when `at`
    is None). Sample b's logits are those of its rows first[b] .. first[b] +
    last - 1 (its last `last` rows without `first`), stacked in sample
    order. Causal attention keeps each sample's padding out of its real
    rows.

    Each layer is one `T.decoder_block`, one tape record. Every block
    computes keys and values for all rows; the final block runs its queries,
    output projection and feed-forward, and then the final norm and the
    unembedding, on the rows returned only.

    `cache`, for untaped calls only, holds each layer's (keys, values), two
    (B, heads, cap, d / heads) arrays: every block writes the keys and
    values of each sample's rows at their positions, and sample b's
    positions below at[b] must hold its earlier rows.
    """
    b_count = 1 if first is None else len(first)
    if rows.data.ndim != 2 or rows.shape[1] != config.embed_width:
        raise T.DimensionError(f"input rows {rows.shape} do not have width "
                               f"{config.embed_width}")
    total = rows.shape[0]
    if b_count == 0 or total % b_count:
        raise T.DimensionError(f"{total} rows do not split into {b_count} samples")
    l = total // b_count
    at = np.zeros(b_count, dtype=np.int64) if at is None else at
    if int(at.max()) + l > config.max_seq:
        raise LengthError(f"sequence length {int(at.max()) + l} exceeds max {config.max_seq}")
    n = l if last is None else last
    if not 1 <= n <= l:
        raise T.DimensionError(f"cannot return the last {n} of {l} rows")
    x = T.add(rows, T.embedding_lookup(w["pos"], (at[:, None] + np.arange(l)).reshape(-1)))
    every = None if first is None else [0] * b_count
    for i in range(config.layers):
        final = i == config.layers - 1
        x = T.decoder_block(x, w, f"h{i}.", config.heads, n if final else l,
                            first if final else every,
                            None if cache is None else (*cache[i], at))
    xf = T.layernorm_rows(x, w["lnf.g"], w["lnf.b"])
    return T.matmul(xf, T.transpose(w["embed"]))  # tied unembedding


@dataclass
class DecodeCache:
    """Each layer's (keys, values) of B samples being decoded, each a
    (B, heads, cap, embed_width / heads) array, of which sample b's first
    lengths[b] positions hold its rows."""

    layers: list[tuple[np.ndarray, np.ndarray]]
    lengths: np.ndarray

    def select(self, keep: list[int]) -> DecodeCache:
        """The cache of the samples at indices `keep` only."""
        return DecodeCache([(k[keep], v[keep]) for k, v in self.layers], self.lengths[keep])


class FrozenBackbone:
    """Immutable backbone: read-only weights plus a pinned content checksum."""

    def __init__(self, config: BackboneConfig, weights: dict[str, T.Tensor]) -> None:
        self.config = config
        self._weights = weights
        for t in weights.values():
            t.requires_grad = False
            t.data.setflags(write=False)
        self.checksum = self.content_checksum()

    @classmethod
    def rebuild(cls, config: BackboneConfig, arrays: list[tuple[str, np.ndarray]],
                checksum: int) -> "FrozenBackbone":
        """A backbone from the config and `arrays()` of another, in another
        process; FrozenViolation unless its checksum is that backbone's."""
        backbone = cls(config, {n: T.Tensor(arr) for n, arr in arrays})
        if backbone.checksum != checksum:
            raise FrozenViolation(f"rebuilt backbone has checksum {backbone.checksum:016x}, "
                                  f"expected {checksum:016x}")
        return backbone

    def arrays(self) -> list[tuple[str, np.ndarray]]:
        """The read-only weights by name, in checkpoint order."""
        return [(n, t.data) for n, t in self._weights.items()]

    def content_checksum(self) -> int:
        """The checksum of the packed config and tensor records, hashed
        piece by piece rather than packed into one copy."""
        return checksum64(self.config.pack(), *tensor_parts(self.arrays()))

    def verify(self) -> None:
        if self.content_checksum() != self.checksum:
            raise FrozenViolation("frozen backbone weights drifted; aborting")

    def embed(self, ids: Sequence[int]) -> np.ndarray:
        """Constant embedding rows for token ids (no gradient path)."""
        idx = np.asarray(list(ids), dtype=np.int64)
        if idx.size and (idx.min() < 0 or idx.max() >= VOCAB_SIZE):
            raise TokenError(f"id outside vocabulary 0..{VOCAB_SIZE - 1}")
        return self._weights["embed"].data[idx]

    def forward_rows(self, rows: T.Tensor, *, last: int | None = None,
                     first: Sequence[int] | None = None) -> T.Tensor:
        """Logits of `last` rows per sample (all rows when None) of one
        sample's rows, or of a padded batch with `first`; see `_forward`."""
        return _forward(self.config, self._weights, rows, last, first)

    def prefill(self, rows: T.Tensor, lengths: np.ndarray,
                room: int) -> tuple[np.ndarray, DecodeCache]:
        """One untaped forward over a padded batch: B = len(lengths) samples'
        embedded rows, each right-padded to the longest and stacked, sample
        b's real rows its first lengths[b]. Returns the next-token logits
        (B, vocab) of each sample's last real row, and a cache of every
        row's keys and values with room for `room` more rows per sample
        (never more than max_seq). A batch longer than max_seq raises
        `_forward`'s LengthError."""
        c = self.config
        lengths = np.asarray(lengths, dtype=np.int64)
        shape = (len(lengths), c.heads, min(int(lengths.max(initial=0)) + room, c.max_seq),
                 c.embed_width // c.heads)
        cache = DecodeCache([(np.zeros(shape), np.zeros(shape)) for _ in range(c.layers)],
                            lengths)
        logits = _forward(c, self._weights, rows, 1, lengths - 1, cache.layers)
        return logits.data, cache

    def step(self, cache: DecodeCache, ids: Sequence[int]) -> np.ndarray:
        """Append token ids[b] to sample b of a cache, at the sample's next
        position, with one untaped row per sample; returns the next-token
        logits (B, vocab) and extends the cache by those rows."""
        at = cache.lengths
        cap = cache.layers[0][0].shape[2]
        if at.max() >= cap:
            raise LengthError(f"decode cache holds {cap} rows per sample and is full")
        logits = _forward(self.config, self._weights, T.Tensor(self.embed(ids)), 1,
                          [0] * len(at), cache.layers, at)
        cache.lengths = at + 1
        return logits.data

    def save(self, path: str | Path) -> None:
        write_container(path, BACKBONE_MAGIC, self.config.pack(), self.arrays())

    @classmethod
    def load(cls, path: str | Path) -> "FrozenBackbone":
        config_blob, tensors = read_container(path, BACKBONE_MAGIC)
        config = BackboneConfig.unpack(config_blob)
        check_tensors(path, tensors, weight_shapes(config))
        return cls(config, {n: T.Tensor(arr) for n, arr in tensors})


# The sizes of the batches `sub_batches` cuts.
# samples that `generate` decodes together: batches of 16 ran at 1.61-1.80x
# per-sample decoding, one 50-sample batch at 1.38-1.45x with 21% more peak
# memory
DECODE_BLOCK = 16
# samples whose backbone forward and backward run as one padded batch in a
# training step: of 4, 8, 16 and 32, 8 gave the best median benchmark
# training rate on a 2-vCPU host (1,323 samples/s against 1,295, 1,289 and
# 1,226; three 30 s runs each), and holds half the activations of 16
TRAIN_BLOCK = 8
# rows a training sub-batch may hold once padded to its longest input: on
# ragged inputs of 47-184 rows, sub-batches of 8 in batch order ran at
# 0.67-0.84x the per-sample step (a fifth to a third of their rows padding,
# and larger arrays), and sub-batches cut in order of length at 384 rows ran
# 1.07-1.23x; budgets of 256 and 512 read about the same. 384 keeps 8
# samples of up to 48 rows together.
TRAIN_ROWS = 384


def sub_batches(lengths: Sequence[int], samples: int, rows: float) -> list[list[int]]:
    """The sub-batches of a batch whose samples have the given input lengths,
    as lists of sample indices: the indices in order of length (ties in
    batch order), cut so that each sub-batch holds at most `samples` samples
    and, padded to its longest, at most `rows` rows (a longer sample goes
    alone)."""
    out: list[list[int]] = []
    for i in sorted(range(len(lengths)), key=lengths.__getitem__):
        sub = out[-1] if out else []
        if not sub or len(sub) == samples or (len(sub) + 1) * lengths[i] > rows:
            out.append([i])
        else:
            sub.append(i)
    return out


def generate(backbone: FrozenBackbone, rows: T.Tensor, lengths: np.ndarray,
             max_new: int = 8) -> list[str]:
    """Greedy decoding from the end of each sample of a padded batch, as
    `prefill` takes it; returns one text per sample, in batch order, the
    decoded new bytes with EOS stripped.

    The batch decodes in the `sub_batches` of DECODE_BLOCK samples, each
    sliced out of `rows` at its own longest length: one `prefill` over the
    sub-batch, then one `step` per new token over its samples still running.
    A sample stops at EOS, after max_new tokens, or when its context fills
    up; a sample of max_seq rows gets no token.
    """
    max_seq = backbone.config.max_seq
    lengths = np.asarray(lengths, dtype=np.int64)
    out: list[list[int]] = [[] for _ in lengths]
    if max_new > 0:
        d = rows.shape[1]
        padded = rows.data.reshape(len(lengths), -1, d)
        for live in sub_batches(lengths, DECODE_BLOCK, math.inf):
            own = padded[live, :int(lengths[live].max())].reshape(-1, d)
            logits, cache = backbone.prefill(T.Tensor._wrap(own, False, None), lengths[live],
                                             max_new - 1)
            while True:
                keep = []
                for j, nxt in enumerate(np.argmax(logits, axis=1)):
                    i = live[j]
                    if nxt != EOS and cache.lengths[j] < max_seq:
                        out[i].append(int(nxt))
                        if len(out[i]) < max_new and cache.lengths[j] + 1 < max_seq:
                            keep.append(j)
                if not keep:
                    break
                if len(keep) < len(live):
                    live = [live[j] for j in keep]
                    cache = cache.select(keep)
                logits = backbone.step(cache, [out[i][-1] for i in live])
            del logits, cache  # so that the next prefill runs without this cache
    return [detokenize(ids) for ids in out]


def check_pretrain_knobs(steps: int, lr: float, weight_decay: float) -> None:
    """ConfigError unless the pretraining steps, learning rate and weight
    decay can train: steps >= 0, a finite lr > 0 and a finite weight_decay >= 0."""
    if steps < 0:
        raise ConfigError(f"pretraining steps must be >= 0, got {steps}")
    if not (lr > 0 and math.isfinite(lr)):
        raise ConfigError(f"pretraining learning rate must be finite and > 0, got {lr}")
    if not (weight_decay >= 0 and math.isfinite(weight_decay)):
        raise ConfigError(f"weight decay must be finite and >= 0, got {weight_decay}")


def pretrain_backbone(corpus: Sequence[str], steps: int, seed: int,
                      config: BackboneConfig | None = None, lr: float = 3e-3,
                      weight_decay: float = 0.0) -> tuple[FrozenBackbone, list[float]]:
    """Train the backbone on plain next-token prediction, then freeze it.

    Each step draws one corpus line (seeded), appends EOS, and supervises
    every position. steps=0 freezes the seeded initialization untouched.
    """
    check_pretrain_knobs(steps, lr, weight_decay)
    config = config or BackboneConfig()
    lines = [str(s) for s in corpus]
    if not lines or any(len(s) == 0 for s in lines):
        raise ConfigError("pretraining corpus must be non-empty strings")
    encoded = [tokenize(s) + [EOS] for s in lines]
    for ids in encoded:
        if len(ids) > config.max_seq:
            raise LengthError(f"corpus line of {len(ids)} tokens exceeds max_seq")
    rng = np.random.default_rng(seed)
    weights = init_weights(config, rng)
    named = list(weights.items())
    state = AdamWState()
    losses: list[float] = []
    for step in range(steps):
        ids = encoded[int(rng.integers(0, len(encoded)))]
        with T.Tape() as tape:
            x = T.embedding_lookup(weights["embed"], ids[:-1])
            logits = _forward(config, weights, x)
            loss = T.scale(T.rows_cross_entropy(logits, ids[1:]), 1.0 / (len(ids) - 1))
            tape.backward(loss)
        clip_global_norm(named, 1.0)
        adamw_step(named, state, lr_schedule(step, steps, lr), weight_decay=weight_decay)
        T.zero_grads(weights.values())
        losses.append(loss.item())
    return FrozenBackbone(config, weights), losses
