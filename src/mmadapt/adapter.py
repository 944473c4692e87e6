"""The trainable adapter: turns one sample's text/audio/vision features into
n pseudo-token rows that steer the frozen backbone.

Pipeline (all activations are column vectors of width mix_width unless said
otherwise):

  1. one single-direction LSTM per non-text modality; only the final hidden
     state survives (audio_hidden x 1, vision_hidden x 1)
  2. text-guided mixing: the text rows are mean-pooled, all three streams are
     projected to mix_width, and the text projection gates the other two by
     elementwise product; the gated pair is summed
  3. multi-scale fusion: parallel bottlenecks (mix_width / k for each scale
     divisor k) with exact GELU, stacked as columns and compressed back to one
     column by a learned 3-weight channel mix plus scalar bias
  4. token expansion: project to embed_width and take an outer product with a
     learned n-vector, giving an n x embed_width block of rank at most 1

Ablation variants swap pieces of step 2-3 or null a modality; see
`build_pseudo_tokens`.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from pathlib import Path

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


def lstm_final_state(x: T.Tensor, wih: T.Tensor, whh: T.Tensor, b: T.Tensor,
                     hidden: int) -> T.Tensor:
    """Run a single-direction LSTM over rows of x; return h_last (hidden x 1).

    Gate order along the stacked weight rows is input, forget, cell, output.
    Initial hidden and cell states are zero.
    """
    l, width = x.shape
    if wih.shape != (4 * hidden, width):
        raise DimensionError(f"lstm: wih {wih.shape} incompatible with input {x.shape}")
    return T.lstm_final(x, wih, whh, b)


def _project_modalities(params: AdapterParams, vision_final: T.Tensor,
                        audio_final: T.Tensor) -> tuple[T.Tensor, T.Tensor]:
    """The vision and audio states projected to mix_width columns."""
    vision_col = T.add(T.matmul(params["vision_proj.w"], vision_final),
                       params["vision_proj.b"])
    audio_col = T.add(T.matmul(params["audio_proj.w"], audio_final),
                      params["audio_proj.b"])
    return vision_col, audio_col


def text_guided_mix(params: AdapterParams, text_rows: T.Tensor,
                    vision_final: T.Tensor, audio_final: T.Tensor) -> T.Tensor:
    """Gate the projected vision/audio states by the projected text mean,
    then sum the two gated columns."""
    pooled = T.reduce_mean_rows(text_rows)  # 1 x embed_width
    text_col = T.add(T.matmul(params["text_proj.w"], T.transpose(pooled)),
                     params["text_proj.b"])
    vision_col, audio_col = _project_modalities(params, vision_final, audio_final)
    return T.add(T.hadamard(vision_col, text_col), T.hadamard(audio_col, text_col))


def ungated_mix(params: AdapterParams, vision_final: T.Tensor,
                audio_final: T.Tensor) -> T.Tensor:
    """Mixer ablation: two independent linear maps summed, no text gate."""
    return T.add(*_project_modalities(params, vision_final, audio_final))


def fuse_scales(params: AdapterParams, mixed: T.Tensor) -> T.Tensor:
    """Parallel GELU bottlenecks, stacked and compressed by the channel mix."""
    cols = []
    for k in params.config.scale_divisors:
        down = T.add(T.matmul(params[f"fuse.{k}.down.w"], mixed),
                     params[f"fuse.{k}.down.b"])
        cols.append(T.add(T.matmul(params[f"fuse.{k}.up.w"], T.gelu(down)),
                          params[f"fuse.{k}.up.b"]))
    stacked = T.stack_columns(cols)  # mix_width x len(divisors)
    return T.add_scalar(T.matmul(stacked, params["mix.w"]), params["mix.b"])


def expand_tokens(params: AdapterParams, fused: T.Tensor) -> T.Tensor:
    """Outer product of the learned n-vector with the projected column:
    an n x embed_width block of rank at most 1."""
    u = T.add(T.matmul(params["expand.w3"], fused), params["expand.b3"])
    return T.matmul(params["expand.w4"], T.transpose(u))


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


def build_pseudo_tokens(params: AdapterParams, text_rows: T.Tensor,
                        audio: T.Tensor, vision: T.Tensor,
                        state: VariantState | None = None) -> T.Tensor:
    """Full adapter forward for one sample under an ablation variant.

    audio/vision are raw feature-row matrices; text_rows are the frozen
    embedding rows of the sample's text tokens.
    """
    state = state or VariantState()
    c = params.config
    if audio.shape[1] != c.audio_width:
        raise DimensionError(f"audio width {audio.shape[1]} != {c.audio_width}")
    if vision.shape[1] != c.vision_width:
        raise DimensionError(f"vision width {vision.shape[1]} != {c.vision_width}")
    if text_rows.shape[1] != c.embed_width:
        raise DimensionError(f"text width {text_rows.shape[1]} != {c.embed_width}")

    variant = state.variant
    if variant == "no_audio_vision":
        vision_final = T.Tensor._wrap(state.subst_vision, False, None)
        audio_final = T.Tensor._wrap(state.subst_audio, False, None)
    else:
        if variant == "no_vision":
            vision_final = T.Tensor._wrap(np.zeros((c.vision_hidden, 1)), False, None)
        else:
            vision_final = lstm_final_state(vision, params["vision_lstm.wih"],
                                            params["vision_lstm.whh"],
                                            params["vision_lstm.b"], c.vision_hidden)
        if variant == "no_audio":
            audio_final = T.Tensor._wrap(np.zeros((c.audio_hidden, 1)), False, None)
        else:
            audio_final = lstm_final_state(audio, params["audio_lstm.wih"],
                                           params["audio_lstm.whh"],
                                           params["audio_lstm.b"], c.audio_hidden)

    if variant in ("no_mixer", "no_text"):
        mixed = ungated_mix(params, vision_final, audio_final)
    else:
        mixed = text_guided_mix(params, text_rows, vision_final, audio_final)

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
