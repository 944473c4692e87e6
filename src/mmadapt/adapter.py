"""The trainable adapter: turns each sample's text/audio/vision features into
n pseudo-token rows that steer the frozen backbone.

The adapter runs on a batch of samples at once: every activation is a
(width, B) block with one column per sample, and a single sample is a batch
of one. Pipeline:

  1. one single-direction LSTM per non-text modality over the B sequences,
     which may differ in length; only each final hidden state survives
     (audio_hidden x B, vision_hidden x B)
  2. text-guided mixing: each sample's text rows are mean-pooled, all three
     streams are projected to mix_width, and the text projection gates the
     other two by elementwise product; the gated pair is summed
  3. multi-scale fusion: parallel bottlenecks (mix_width / k for each scale
     divisor k) with exact GELU, compressed back to one block by a learned
     weight per scale plus a scalar bias
  4. token expansion: project to embed_width and take the outer product of a
     learned n-vector with each sample's column, giving one n x embed_width
     block of rank at most 1 per sample, stacked

Ablation variants swap pieces of step 2-3 or null a modality; see
`build_pseudo_tokens`.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from . import tensor as T
from .errors import CheckpointError, ConfigError, DimensionError
from .serialize import read_container, write_container

ADAPTER_MAGIC = b"MSEA"

VARIANTS = ("full", "no_mixer", "no_fusion", "no_text",
            "no_audio", "no_vision", "no_audio_vision")


@dataclass(frozen=True)
class AdapterConfig:
    audio_width: int
    vision_width: int
    audio_hidden: int
    vision_hidden: int
    mix_width: int
    token_count: int
    embed_width: int
    scale_divisors: tuple[int, ...] = (8, 16, 32)

    def __post_init__(self) -> None:
        object.__setattr__(self, "scale_divisors", tuple(self.scale_divisors))
        for name in ("audio_width", "vision_width", "audio_hidden", "vision_hidden",
                     "mix_width", "token_count", "embed_width"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive, got {getattr(self, name)}")
        if not self.scale_divisors:
            raise ConfigError("scale_divisors must be non-empty")
        for k in self.scale_divisors:
            if k <= 0 or self.mix_width % k != 0:
                raise ConfigError(
                    f"mix_width {self.mix_width} not divisible by scale divisor {k}")

    def pack(self) -> bytes:
        blob = struct.pack("<7I", self.audio_width, self.vision_width,
                           self.audio_hidden, self.vision_hidden,
                           self.mix_width, self.token_count, self.embed_width)
        blob += struct.pack("<I", len(self.scale_divisors))
        blob += struct.pack(f"<{len(self.scale_divisors)}I", *self.scale_divisors)
        return blob

    @classmethod
    def unpack(cls, blob: bytes) -> tuple["AdapterConfig", bytes]:
        try:
            vals = struct.unpack_from("<7I", blob, 0)
            (nk,) = struct.unpack_from("<I", blob, 28)
            ks = struct.unpack_from(f"<{nk}I", blob, 32)
            rest = blob[32 + 4 * nk:]
        except struct.error as exc:
            raise CheckpointError(f"bad adapter config block: {exc}") from exc
        return cls(*vals, tuple(ks)), rest


def _uniform(rng: np.random.Generator, fan_in: int, shape: tuple[int, ...]) -> np.ndarray:
    bound = 1.0 / math.sqrt(fan_in)
    return rng.uniform(-bound, bound, shape)


class AdapterParams:
    """Named trainable tensors, in a fixed construction order."""

    def __init__(self, config: AdapterConfig, params: dict[str, T.Tensor]) -> None:
        self.config = config
        self._params = params

    @classmethod
    def init(cls, config: AdapterConfig, rng: np.random.Generator) -> "AdapterParams":
        c = config
        p: dict[str, T.Tensor] = {}

        def add(name: str, arr: np.ndarray) -> None:
            p[name] = T.Tensor(arr, requires_grad=True)

        for tag, width, hidden in (("audio", c.audio_width, c.audio_hidden),
                                   ("vision", c.vision_width, c.vision_hidden)):
            add(f"{tag}_lstm.wih", _uniform(rng, width, (4 * hidden, width)))
            add(f"{tag}_lstm.whh", _uniform(rng, hidden, (4 * hidden, hidden)))
            bias = np.zeros((4 * hidden, 1))
            bias[hidden:2 * hidden] = 1.0  # forget gate opens at init
            add(f"{tag}_lstm.b", bias)
        add("text_proj.w", _uniform(rng, c.embed_width, (c.mix_width, c.embed_width)))
        add("text_proj.b", np.zeros((c.mix_width, 1)))
        add("vision_proj.w", _uniform(rng, c.vision_hidden, (c.mix_width, c.vision_hidden)))
        add("vision_proj.b", np.zeros((c.mix_width, 1)))
        add("audio_proj.w", _uniform(rng, c.audio_hidden, (c.mix_width, c.audio_hidden)))
        add("audio_proj.b", np.zeros((c.mix_width, 1)))
        for k in c.scale_divisors:
            narrow = c.mix_width // k
            add(f"fuse.{k}.down.w", _uniform(rng, c.mix_width, (narrow, c.mix_width)))
            add(f"fuse.{k}.down.b", np.zeros((narrow, 1)))
            add(f"fuse.{k}.up.w", _uniform(rng, narrow, (c.mix_width, narrow)))
            add(f"fuse.{k}.up.b", np.zeros((c.mix_width, 1)))
        add("mix.w", _uniform(rng, len(c.scale_divisors),
                              (len(c.scale_divisors), 1)))
        add("mix.b", np.zeros((1,)))
        add("expand.w3", _uniform(rng, c.mix_width, (c.embed_width, c.mix_width)))
        add("expand.b3", np.zeros((c.embed_width, 1)))
        add("expand.w4", _uniform(rng, 1, (c.token_count, 1)))
        return cls(config, p)

    def named(self) -> list[tuple[str, T.Tensor]]:
        return list(self._params.items())

    def __getitem__(self, name: str) -> T.Tensor:
        return self._params[name]

    def count(self) -> int:
        return sum(t.data.size for _, t in self.named())

    def zero_grads(self) -> None:
        for _, t in self.named():
            t.zero_grad()

    def clone(self) -> "AdapterParams":
        return AdapterParams(self.config, {
            n: T.Tensor(t.data.copy(), requires_grad=True) for n, t in self.named()})


def count_trainable(config: AdapterConfig) -> int:
    """Closed-form parameter count; must equal AdapterParams.count()."""
    c = config
    lstm = lambda width, hidden: 4 * (hidden * width + hidden * hidden + hidden)
    total = lstm(c.audio_width, c.audio_hidden) + lstm(c.vision_width, c.vision_hidden)
    total += c.mix_width * c.embed_width + c.mix_width        # text projection
    total += c.mix_width * c.vision_hidden + c.mix_width      # vision projection
    total += c.mix_width * c.audio_hidden + c.mix_width       # audio projection
    for k in c.scale_divisors:
        narrow = c.mix_width // k
        total += narrow * c.mix_width + narrow                # down
        total += c.mix_width * narrow + c.mix_width           # up
    total += len(c.scale_divisors) + 1                        # channel mix + bias
    total += c.embed_width * c.mix_width + c.embed_width      # expand to embed
    total += c.token_count                                    # outer-product vector
    return total


def sweep_mix_width(target: int, embed_width: int, audio_width: int, vision_width: int,
                    audio_hidden: int, vision_hidden: int, token_count: int,
                    scale_divisors: tuple[int, ...] = (8, 16, 32),
                    max_width: int = 2048) -> dict:
    """Find the mix width whose count lands closest to a published budget.

    Only widths divisible by every scale divisor are admissible. Returns the
    closest width, its count, the relative gap, and whether it is within 1%.
    """
    step = math.lcm(*scale_divisors)
    best = None
    for h in range(step, max_width + 1, step):
        c = count_trainable(AdapterConfig(audio_width, vision_width, audio_hidden,
                                          vision_hidden, h, token_count, embed_width,
                                          scale_divisors))
        gap = abs(c - target)
        if best is None or gap < best[2]:
            best = (h, c, gap)
    h, c, gap = best
    rel = gap / target
    return {"mix_width": h, "count": c, "target": target,
            "relative_gap": rel, "within_one_percent": rel <= 0.01}


# ---------------------------------------------------------------------------
# forward pieces


Batch = T.Tensor | Sequence[T.Tensor]


def _batch(x: Batch) -> list[T.Tensor]:
    """A batch of per-sample matrices; a single Tensor is a batch of one."""
    return [x] if isinstance(x, T.Tensor) else list(x)


def lstm_final_state(x: Batch, wih: T.Tensor, whh: T.Tensor, b: T.Tensor,
                     hidden: int) -> T.Tensor:
    """Run a single-direction LSTM over the rows of each sequence in x; return
    the final hidden states as columns (hidden x B).

    Gate order along the stacked weight rows is input, forget, cell, output.
    Initial hidden and cell states are zero.
    """
    if whh.shape != (4 * hidden, hidden):
        raise DimensionError(f"lstm: whh {whh.shape} does not hold {hidden} hidden units")
    return T.lstm_final(x, wih, whh, b)


def _linear(params: AdapterParams, name: str, x: T.Tensor) -> T.Tensor:
    return T.add_colvec(T.matmul(params[f"{name}.w"], x), params[f"{name}.b"])


def text_guided_mix(params: AdapterParams, text_rows: Batch,
                    vision_final: T.Tensor, audio_final: T.Tensor) -> T.Tensor:
    """Gate the projected vision/audio states by the projected text means,
    then sum the two gated blocks."""
    pooled = T.concat_rows([T.reduce_mean_rows(t) for t in _batch(text_rows)])  # B x embed
    text_col = _linear(params, "text_proj", T.transpose(pooled))
    vision_col = _linear(params, "vision_proj", vision_final)
    audio_col = _linear(params, "audio_proj", audio_final)
    return T.add(T.hadamard(vision_col, text_col), T.hadamard(audio_col, text_col))


def ungated_mix(params: AdapterParams, vision_final: T.Tensor,
                audio_final: T.Tensor) -> T.Tensor:
    """Mixer ablation: two independent linear maps summed, no text gate."""
    return T.add(_linear(params, "vision_proj", vision_final),
                 _linear(params, "audio_proj", audio_final))


def fuse_scales(params: AdapterParams, mixed: T.Tensor) -> T.Tensor:
    """Parallel GELU bottlenecks, compressed by the per-scale channel mix."""
    scales = [_linear(params, f"fuse.{k}.up", T.gelu(_linear(params, f"fuse.{k}.down", mixed)))
              for k in params.config.scale_divisors]
    return T.add_scalar(T.weighted_sum(scales, params["mix.w"]), params["mix.b"])


def expand_tokens(params: AdapterParams, fused: T.Tensor) -> T.Tensor:
    """Outer product of the learned n-vector with each projected column: one
    n x embed_width block of rank at most 1 per sample, stacked."""
    u = T.add_colvec(T.matmul(params["expand.w3"], fused), params["expand.b3"])
    return T.outer_blocks(params["expand.w4"], u)


# ---------------------------------------------------------------------------
# variants


@dataclass
class VariantState:
    """Which ablation runs, plus any fixed substitute states it needs."""

    variant: str = "full"
    subst_vision: np.ndarray | None = None
    subst_audio: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.variant not in VARIANTS:
            raise ConfigError(f"unknown variant {self.variant!r}; have {VARIANTS}")

    @property
    def drops_text_input(self) -> bool:
        """no_text removes the raw text block from the backbone input too."""
        return self.variant == "no_text"


def make_variant_state(variant: str, config: AdapterConfig,
                       rng: np.random.Generator) -> VariantState:
    """Build per-run variant state; substitutes are drawn once per run."""
    if variant == "no_audio_vision":
        return VariantState(
            variant,
            subst_vision=rng.uniform(-1, 1, (config.vision_hidden, 1)),
            subst_audio=rng.uniform(-1, 1, (config.audio_hidden, 1)),
        )
    return VariantState(variant)


def build_pseudo_tokens(params: AdapterParams, text_rows: Batch, audio: Batch,
                        vision: Batch, state: VariantState | None = None) -> T.Tensor:
    """Full adapter forward for a batch of samples under an ablation variant;
    returns their n x embed_width pseudo-token blocks stacked, sample i in
    rows [i n, (i + 1) n). A single sample's Tensors are a batch of one.

    audio/vision are raw feature-row matrices; text_rows are the frozen
    embedding rows of each sample's text tokens.
    """
    state = state or VariantState()
    c = params.config
    texts, audios, visions = _batch(text_rows), _batch(audio), _batch(vision)
    size = len(texts)
    if not size or len(audios) != size or len(visions) != size:
        raise DimensionError(f"need one text, audio and vision matrix per sample, got "
                             f"{len(texts)}, {len(audios)} and {len(visions)}")
    for what, parts, width in (("audio", audios, c.audio_width),
                               ("vision", visions, c.vision_width),
                               ("text", texts, c.embed_width)):
        for part in parts:
            if part.shape[1] != width:
                raise DimensionError(f"{what} width {part.shape[1]} != {width}")

    def constant(column: np.ndarray) -> T.Tensor:
        return T.Tensor._wrap(np.repeat(column, size, axis=1), False, None)

    variant = state.variant
    if variant == "no_audio_vision":
        vision_final = constant(state.subst_vision)
        audio_final = constant(state.subst_audio)
    else:
        if variant == "no_vision":
            vision_final = constant(np.zeros((c.vision_hidden, 1)))
        else:
            vision_final = lstm_final_state(visions, params["vision_lstm.wih"],
                                            params["vision_lstm.whh"],
                                            params["vision_lstm.b"], c.vision_hidden)
        if variant == "no_audio":
            audio_final = constant(np.zeros((c.audio_hidden, 1)))
        else:
            audio_final = lstm_final_state(audios, params["audio_lstm.wih"],
                                           params["audio_lstm.whh"],
                                           params["audio_lstm.b"], c.audio_hidden)

    if variant in ("no_mixer", "no_text"):
        mixed = ungated_mix(params, vision_final, audio_final)
    else:
        mixed = text_guided_mix(params, texts, vision_final, audio_final)

    fused = mixed if variant == "no_fusion" else fuse_scales(params, mixed)
    return expand_tokens(params, fused)


# ---------------------------------------------------------------------------
# checkpoints


def save_adapter(path: str | Path, params: AdapterParams, state: VariantState,
                 backbone_checksum: int = 0) -> None:
    variant_bytes = state.variant.encode("utf-8")
    config = params.config.pack()
    config += struct.pack("<I", len(variant_bytes)) + variant_bytes
    config += struct.pack("<Q", backbone_checksum)
    tensors = [(n, t.data) for n, t in params.named()]
    if state.subst_vision is not None:
        tensors.append(("subst.vision", state.subst_vision))
    if state.subst_audio is not None:
        tensors.append(("subst.audio", state.subst_audio))
    write_container(path, ADAPTER_MAGIC, config, tensors)


def load_adapter(path: str | Path) -> tuple[AdapterParams, VariantState, int]:
    config_blob, tensors = read_container(path, ADAPTER_MAGIC)
    config, rest = AdapterConfig.unpack(config_blob)
    try:
        (vlen,) = struct.unpack_from("<I", rest, 0)
        variant = rest[4:4 + vlen].decode("utf-8")
        (backbone_checksum,) = struct.unpack_from("<Q", rest, 4 + vlen)
    except struct.error as exc:
        raise CheckpointError(f"bad adapter variant block: {exc}") from exc
    subst = {n: arr for n, arr in tensors if n.startswith("subst.")}
    state = VariantState(variant, subst.get("subst.vision"), subst.get("subst.audio"))
    weights = {n: T.Tensor(arr, requires_grad=True)
               for n, arr in tensors if not n.startswith("subst.")}
    params = AdapterParams(config, weights)
    ref = AdapterParams.init(config, np.random.default_rng(0))
    if [n for n, _ in params.named()] != [n for n, _ in ref.named()]:
        raise CheckpointError("adapter checkpoint weight names do not match config")
    for (n, got), (_, want) in zip(params.named(), ref.named()):
        if got.shape != want.shape:
            raise CheckpointError(f"adapter tensor {n!r} has shape {got.shape}, "
                                  f"expected {want.shape}")
    return params, state, backbone_checksum
