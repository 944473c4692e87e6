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
from .serialize import check_tensors, read_container, write_container

ADAPTER_MAGIC = b"MSEA"


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


def param_table(config: AdapterConfig) -> dict[str, tuple[tuple[int, ...], int | None]]:
    """Each trainable tensor's shape and fan-in by name, in checkpoint order.

    A fan-in of None marks a bias. Weights multiply columns (w @ x), so their
    fan-in is their column count, except `mix.w`, whose rows weigh the scales.
    """
    c = config
    table: dict[str, tuple[tuple[int, ...], int | None]] = {}

    def linear(name: str, out: int, fan_in: int, w: str = "w", b: str = "b") -> None:
        table[f"{name}.{w}"] = ((out, fan_in), fan_in)
        table[f"{name}.{b}"] = ((out, 1), None)

    for tag, width, hidden in (("audio", c.audio_width, c.audio_hidden),
                               ("vision", c.vision_width, c.vision_hidden)):
        table[f"{tag}_lstm.wih"] = ((4 * hidden, width), width)
        table[f"{tag}_lstm.whh"] = ((4 * hidden, hidden), hidden)
        table[f"{tag}_lstm.b"] = ((4 * hidden, 1), None)
    linear("text_proj", c.mix_width, c.embed_width)
    linear("vision_proj", c.mix_width, c.vision_hidden)
    linear("audio_proj", c.mix_width, c.audio_hidden)
    for k in c.scale_divisors:
        linear(f"fuse.{k}.down", c.mix_width // k, c.mix_width)
        linear(f"fuse.{k}.up", c.mix_width, c.mix_width // k)
    scales = len(c.scale_divisors)
    table["mix.w"] = ((scales, 1), scales)
    table["mix.b"] = ((1,), None)
    linear("expand", c.embed_width, c.mix_width, "w3", "b3")
    table["expand.w4"] = ((c.token_count, 1), 1)
    return table


class AdapterParams:
    """Named trainable tensors, in a fixed construction order."""

    def __init__(self, config: AdapterConfig, params: dict[str, T.Tensor]) -> None:
        self.config = config
        self._params = params

    @classmethod
    def init(cls, config: AdapterConfig, rng: np.random.Generator) -> "AdapterParams":
        """Draw the tensors of `param_table` in its order: weights uniform in
        +-1/sqrt(fan-in), zero biases, and LSTM forget gates open."""
        p: dict[str, T.Tensor] = {}
        for name, (shape, fan_in) in param_table(config).items():
            if fan_in is None:
                arr = np.zeros(shape)
                if name.endswith("_lstm.b"):
                    arr[shape[0] // 4:shape[0] // 2] = 1.0
            else:
                bound = 1.0 / math.sqrt(fan_in)
                arr = rng.uniform(-bound, bound, shape)
            p[name] = T.Tensor(arr, requires_grad=True)
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
    """Parameter count of `param_table`; equals AdapterParams.count()."""
    return sum(math.prod(shape) for shape, _ in param_table(config).values())


def sweep_mix_width(target: int, embed_width: int, audio_width: int, vision_width: int,
                    audio_hidden: int, vision_hidden: int, token_count: int) -> dict:
    """Find the mix width whose count lands closest to a published budget.

    Only widths up to 2048 divisible by every default scale divisor are
    admissible. Returns the closest width, its count, the relative gap, and
    whether it is within 1%.
    """
    step = math.lcm(*AdapterConfig.scale_divisors)  # the field's default
    best = None
    for h in range(step, 2048 + 1, step):
        c = count_trainable(AdapterConfig(audio_width, vision_width, audio_hidden,
                                          vision_hidden, h, token_count, embed_width))
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
    return T.lstm_final(_batch(x), wih, whh, b)


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


# every ablation variant with its label in the ablation table, in table order
VARIANTS = {
    "no_audio": "w/o A",
    "no_vision": "w/o V",
    "no_text": "w/o T",
    "no_audio_vision": "w/o A,V",
    "no_mixer": "w/o mixer",
    "no_fusion": "w/o fusion",
    "full": "full",
}


@dataclass
class VariantState:
    """Which ablation runs, plus any fixed substitute states it needs."""

    variant: str = "full"
    subst_vision: np.ndarray | None = None
    subst_audio: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.variant not in VARIANTS:
            raise ConfigError(f"unknown variant {self.variant!r}; have {tuple(VARIANTS)}")

    @property
    def drops_text_input(self) -> bool:
        """no_text removes the raw text block from the backbone input too."""
        return self.variant == "no_text"


def substitute_shapes(variant: str, config: AdapterConfig) -> dict[str, tuple[int, int]]:
    """Shapes of the fixed substitute states a variant keeps, in checkpoint
    order after the parameters."""
    if variant != "no_audio_vision":
        return {}
    return {"subst.vision": (config.vision_hidden, 1), "subst.audio": (config.audio_hidden, 1)}


def make_variant_state(variant: str, config: AdapterConfig,
                       rng: np.random.Generator) -> VariantState:
    """Build per-run variant state; substitutes are drawn once per run."""
    return VariantState(variant, *(rng.uniform(-1, 1, shape)
                                   for shape in substitute_shapes(variant, config).values()))


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
                 backbone_checksum: int) -> None:
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
    shapes = {n: shape for n, (shape, _) in param_table(config).items()}
    check_tensors(path, tensors, {**shapes, **substitute_shapes(variant, config)})
    arrays = dict(tensors)
    state = VariantState(variant, arrays.pop("subst.vision", None), arrays.pop("subst.audio", None))
    params = AdapterParams(config, {n: T.Tensor(arr, requires_grad=True)
                                    for n, arr in arrays.items()})
    return params, state, backbone_checksum
