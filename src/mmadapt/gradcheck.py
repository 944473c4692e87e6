"""Finite-difference verification of the reverse-mode gradients.

Two layers of checking:

    primitives  every differentiable tensor operation, one at a time, against
                extrapolated central differences (tolerance 1e-6)
    full        the composed pipeline (feature sequences -> adapter ->
                frozen backbone -> label loss) checked per parameter group
                on a deliberately small configuration (tolerance 1e-4), for
                one sample's loss and for a 3-sample training step

Both are callable from tests and from the command line.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .adapter import AdapterConfig, AdapterParams, VariantState
from .backbone import BackboneConfig, FrozenBackbone, init_weights, weight_shapes
from .corpus import FeatureSample
from .presets import AdapterDefaults, DatasetPreset
from .trainer import batch_step, block_losses, prepare_samples, pseudo_blocks, sample_loss

PRIMITIVE_TOL = 1e-6
FULL_TOL = 1e-4
# primitives are checked with twice Richardson-extrapolated central
# differences: their error is O(h^6), so truncation stays near 1e-12 even at
# a step this large, and the roundoff in hi - lo, about 1e-16 * |f| / h,
# stays below the smallest gradient entries the relative error is taken
# against (a decoder block's attention weights have entries near 1e-6)
FD_STEP = 8e-3
# the composed pipeline is longer, so roundoff dominates at small steps; a
# larger step keeps central differences in their accurate regime
FULL_FD_STEP = 1e-4


@dataclass(frozen=True)
class GradCheckResult:
    name: str
    max_rel_err: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_rel_err <= self.tolerance

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (f"{status}  {self.name:<24s} max rel err "
                f"{self.max_rel_err:.3e} (tol {self.tolerance:.0e})")


def _fd_grad(fn, arr: np.ndarray, step: float) -> np.ndarray:
    grad = np.zeros_like(arr)
    flat = arr.reshape(-1)
    out = grad.reshape(-1)
    for i in range(flat.size):
        keep = flat[i]
        flat[i] = keep + step
        hi = fn()
        flat[i] = keep - step
        lo = fn()
        flat[i] = keep
        out[i] = (hi - lo) / (2.0 * step)
    return grad


def _richardson_grad(fn, arr: np.ndarray, step: float) -> np.ndarray:
    """Central differences at step, step / 2 and step / 4, combined by two
    rounds of Richardson extrapolation so that their h^2 and h^4 error terms
    cancel."""
    d1, d2, d4 = (_fd_grad(fn, arr, step / k) for k in (1.0, 2.0, 4.0))
    return (16.0 * (4.0 * d4 - d2) - (4.0 * d2 - d1)) / 45.0


def _rel_err(analytic: np.ndarray, numeric: np.ndarray) -> float:
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-6)
    return float(np.max(np.abs(analytic - numeric) / denom))


def _check(name: str, op, arrays: dict[str, np.ndarray], cotangent: np.ndarray,
           tolerance: float) -> GradCheckResult:
    """Compare the tape's gradients of sum(op(tensors) * cotangent), seeded
    with `cotangent`, against extrapolated central differences of that sum
    for every input array."""
    tensors = {k: T.Tensor(v, requires_grad=True) for k, v in arrays.items()}
    with T.Tape() as tape:
        tape.backward(op(tensors), grad=cotangent)
    # views of the same storage, so the nudges of _fd_grad reach the forward
    plain = {k: T.Tensor._wrap(t.data, False, None) for k, t in tensors.items()}

    def value() -> float:
        return float((op(plain).data * cotangent).sum())

    worst = 0.0
    for tensor in tensors.values():
        numeric = _richardson_grad(value, tensor.data, FD_STEP)
        worst = max(worst, _rel_err(tensor.grad, numeric))
    return GradCheckResult(name, worst, tolerance)


def _block_arrays(mat, skip: str = "") -> dict[str, np.ndarray]:
    """Weights of one decoder block of width 4 and feed-forward width 8,
    drawn in BLOCK_WEIGHTS order, without the one named `skip`."""
    shapes = weight_shapes(BackboneConfig(embed_width=4, layers=1, heads=2, ffn_mult=2))
    return {name: 0.5 * mat(*shapes["h0." + name]) for name in T.BLOCK_WEIGHTS if name != skip}


def gradcheck_primitives(seed: int = 0) -> list[GradCheckResult]:
    """Finite-difference check for each differentiable primitive. Each row is
    an op, its inputs and the key of its cotangent in `cot`."""
    rng = np.random.default_rng(seed)

    def mat(r, c):
        return rng.standard_normal((r, c))

    cot = {"w": mat(4, 5), "wc": mat(3, 4), "w44": np.abs(mat(4, 4)), "one": np.ones(1)}
    cot["w_row"] = cot["w"][:1]
    rows = [
        ("add", lambda t: T.add(t["a"], t["b"]), {"a": mat(4, 5), "b": mat(4, 5)}, "w"),
        ("add_rowvec", lambda t: T.add_rowvec(t["a"], t["b"]),
         {"a": mat(4, 5), "b": mat(1, 5)}, "w"),
        ("add_scalar", lambda t: T.add_scalar(t["a"], t["s"]),
         {"a": mat(4, 5), "s": mat(1, 1)}, "w"),
        ("scale", lambda t: T.scale(t["a"], -1.3), {"a": mat(4, 5)}, "w"),
        ("matmul", lambda t: T.matmul(t["a"], t["b"]), {"a": mat(3, 6), "b": mat(6, 4)}, "wc"),
        ("hadamard", lambda t: T.hadamard(t["a"], t["b"]),
         {"a": mat(4, 5), "b": mat(4, 5)}, "w"),
        ("sigmoid", lambda t: T.sigmoid(t["a"]), {"a": mat(4, 5)}, "w"),
        ("tanh", lambda t: T.tanh(t["a"]), {"a": mat(4, 5)}, "w"),
        ("gelu", lambda t: T.gelu(t["a"]), {"a": mat(4, 5)}, "w"),
        ("transpose", lambda t: T.transpose(t["a"]), {"a": mat(5, 4)}, "w"),
        ("slice_rows", lambda t: T.slice_rows(t["a"], 1, 5), {"a": mat(7, 5)}, "w"),
        ("slice_cols", lambda t: T.slice_cols(t["a"], 2, 7), {"a": mat(4, 9)}, "w"),
        ("concat_rows", lambda t: T.concat_rows([t["a"], t["b"]]),
         {"a": mat(1, 5), "b": mat(3, 5)}, "w"),
        ("stack_columns", lambda t: T.stack_columns([t["a"], t["b"]]),
         {"a": mat(4, 2), "b": mat(4, 3)}, "w"),
        ("reduce_mean_rows", lambda t: T.reduce_mean_rows(t["a"]), {"a": mat(6, 5)}, "w_row"),
        ("sum_all", lambda t: T.sum_all(t["a"]), {"a": mat(4, 5)}, "one"),
        ("softmax_rows", lambda t: T.softmax_rows(t["a"]), {"a": mat(4, 5)}, "w"),
        ("layernorm_rows", lambda t: T.layernorm_rows(t["a"], t["g"], t["b"]),
         {"a": mat(4, 5), "g": mat(1, 5), "b": mat(1, 5)}, "w"),
        ("causal_attention", lambda t: T.softmax_rows(
            T.causal_attention_scores(t["q"], t["k"], 0.5)),
         {"q": mat(4, 3), "k": mat(4, 3)}, "w44"),
        ("softmax_cross_entropy", lambda t: T.softmax_cross_entropy(t["a"], 2),
         {"a": mat(1, 7)}, "one"),
        ("rows_cross_entropy", lambda t: T.rows_cross_entropy(t["a"], [1, 0, 3]),
         {"a": mat(3, 5)}, "one"),
        ("embedding_lookup", lambda t: T.embedding_lookup(t["e"], [0, 2, 2, 1]),
         {"e": mat(3, 5)}, "w"),
        ("lstm_final", lambda t: T.lstm_final([t["x"]], t["wih"], t["whh"], t["b"]),
         {"x": mat(4, 3), "wih": 0.5 * mat(12, 3), "whh": 0.5 * mat(12, 3),
          "b": 0.5 * mat(12, 1)}, "lstm"),
        # the key bias shifts every score of a query row alike, so its
        # gradient is identically zero and central differences would see
        # only roundoff; test_decoder_block_key_bias_gradient_is_zero in
        # tests/test_tensor.py pins that zero against bq's gradient
        ("decoder_block", lambda t: T.decoder_block(t["x"], {**key_bias, **t}, "", 2, 4),
         {"x": mat(4, 4), **_block_arrays(mat, skip="bk")}, "block"),
        ("decoder_block_frozen", lambda t: T.decoder_block(t["x"], frozen, "", 2, 4),
         {"x": mat(4, 4)}, "block"),
        ("decoder_block_pruned", lambda t: T.decoder_block(t["x"], {**key_bias, **t}, "", 2, 2),
         {"x": mat(4, 4), **_block_arrays(mat, skip="bk")}, "block_top"),
    ]
    # drawn after every input above, so the older rows keep their instances
    cot["lstm"], cot["block"] = mat(3, 1), mat(4, 4)
    cot["block_top"] = cot["block"][:2]
    frozen = {n: T.Tensor(a) for n, a in _block_arrays(mat).items()}
    key_bias = {"bk": frozen["bk"]}
    # the batched adapter's ops; the LSTM batch holds a 1-frame sequence and
    # its longest sequence is not first
    rows += [
        ("add_colvec", lambda t: T.add_colvec(t["a"], t["b"]),
         {"a": mat(4, 5), "b": mat(4, 1)}, "w"),
        ("weighted_sum", lambda t: T.weighted_sum([t["a"], t["b"], t["c"]], t["w"]),
         {"a": mat(4, 5), "b": mat(4, 5), "c": mat(4, 5), "w": mat(3, 1)}, "w"),
        ("outer_blocks", lambda t: T.outer_blocks(t["v"], t["u"]),
         {"v": mat(3, 1), "u": mat(4, 2)}, "outer"),
        ("lstm_final_batch", lambda t: T.lstm_final(
            [t["x0"], t["x1"], t["x2"]], t["wih"], t["whh"], t["b"]),
         {"x0": mat(2, 3), "x1": mat(1, 3), "x2": mat(4, 3), "wih": 0.5 * mat(12, 3),
          "whh": 0.5 * mat(12, 3), "b": 0.5 * mat(12, 1)}, "lstm_batch"),
    ]
    cot["outer"], cot["lstm_batch"] = mat(6, 4), mat(3, 3)
    # the block over a ragged batch as training runs its frozen final layer:
    # samples of 4, 6 and 3 rows padded to 6 with zero rows, and label
    # windows of 2, 3 and 1 rows padded to 3, from rows min(length - window,
    # 6 - 3); the padding and the rows outside the windows weigh nothing
    lengths, windows = (4, 6, 3), (2, 3, 1)
    first = [min(n - k, 6 - 3) for n, k in zip(lengths, windows)]
    x_batch = mat(18, 4)
    cot["windows"] = mat(9, 4)
    for b, (length, window) in enumerate(zip(lengths, windows)):
        x_batch[6 * b + length:6 * (b + 1)] = 0.0
        cot["windows"][3 * b + window:3 * (b + 1)] = 0.0
    rows.append(("decoder_block_batch", lambda t: T.decoder_block(
        t["x"], frozen, "", 2, 3, first), {"x": x_batch}, "windows"))
    return [_check(name, op, arrays, cot[key], PRIMITIVE_TOL)
            for name, op, arrays, key in rows]


def _tiny_pipeline(seed: int):
    """Deterministic miniature of the full training path: a backbone, adapter
    parameters and three prepared samples whose feature sequences differ in
    length."""
    rng = np.random.default_rng(seed)
    backbone_config = BackboneConfig(embed_width=16, layers=1, heads=2,
                                     ffn_mult=2, max_seq=48)
    backbone = FrozenBackbone(backbone_config, init_weights(backbone_config, rng))
    adapter_config = AdapterConfig(audio_width=6, vision_width=5,
                                   audio_hidden=8, vision_hidden=7,
                                   mix_width=32, token_count=4, embed_width=16)
    params = AdapterParams.init(adapter_config, rng)
    preset = DatasetPreset(name="gradcheck", task="emotion", metric_family="emotion",
                           audio_width=6, vision_width=5, prompt=" label:",
                           adapter_defaults=AdapterDefaults(8, 7, 5e-3, 4),
                           class_names=("0", "1", "2"))
    samples = [FeatureSample(f"gradcheck-{text}", text, label,
                             rng.standard_normal((frames[0], 6)),
                             rng.standard_normal((frames[1], 5)), "train")
               for text, label, frames in (("ok", 1.0, (5, 4)), ("no", 0.0, (1, 6)),
                                           ("fine", 2.0, (7, 2)))]
    return backbone, params, prepare_samples(backbone, samples, preset, 4, drops_text=False)


def gradcheck_full(seed: int = 0) -> list[GradCheckResult]:
    """Per-parameter-group check of the composed adapter->backbone->loss
    gradient on a small configuration: of one sample's loss, and of the mean
    loss of a 3-sample training step (rows named "batch <group>")."""
    backbone, params, batch = _tiny_pipeline(seed)
    state = VariantState("full")
    with T.Tape() as tape:
        tape.backward(sample_loss(backbone, params, batch[0], state))
    single = {name: tensor.grad.copy() for name, tensor in params.named()}
    params.zero_grads()
    batch_step(backbone, params, batch, state)
    batched = {name: tensor.grad.copy() for name, tensor in params.named()}

    def single_value() -> float:
        return sample_loss(backbone, params, batch[0], state).item()

    def batch_value() -> float:
        pseudo = pseudo_blocks(params, batch, state)
        return float(block_losses(backbone, batch, pseudo).data.sum()) / len(batch)

    results = []
    for prefix, value, analytic in (("", single_value, single),
                                    ("batch ", batch_value, batched)):
        for name, tensor in params.named():
            numeric = _fd_grad(value, tensor.data, step=FULL_FD_STEP)
            results.append(GradCheckResult(prefix + name,
                                           _rel_err(analytic[name], numeric), FULL_TOL))
    return results


def render_results(results: list[GradCheckResult]) -> str:
    lines = [r.line() for r in results]
    worst = max(r.max_rel_err for r in results)
    verdict = "PASS" if all(r.passed for r in results) else "FAIL"
    lines.append(f"{verdict}  overall worst {worst:.3e}")
    return "\n".join(lines)
