"""Helpers shared by the decoding and training suites: seeded backbones,
random samples of each corpus preset, and inputs as the padded batches that
`prefill` and `generate` take."""

import numpy as np

from mmadapt import backbone as B
from mmadapt import tensor as T
from mmadapt.corpus import FeatureSample
from mmadapt.presets import get_preset
from mmadapt.trainer import padded_inputs, pseudo_blocks

TWO_LAYERS = B.BackboneConfig(embed_width=16, layers=2, heads=2, ffn_mult=2, max_seq=48)


def make_frozen(config=TWO_LAYERS, seed=5):
    return B.FrozenBackbone(config, B.init_weights(config, np.random.default_rng(seed)))


def preset_samples(name, count, rng):
    """`count` samples of the named corpus preset, with random labels, texts
    of one to three phrases and feature sequences of 2-6 frames."""
    preset = get_preset(name)
    samples = []
    for i in range(count):
        if preset.task == "score":
            label = float(np.round(rng.uniform(*preset.score_range), 1))
        else:
            label = float(rng.integers(preset.class_count))
        samples.append(FeatureSample(
            f"{name}-{i}", "the words " * int(rng.integers(1, 4)), label,
            rng.standard_normal((int(rng.integers(2, 7)), preset.audio_width)),
            rng.standard_normal((int(rng.integers(2, 7)), preset.vision_width)), "test"))
    return preset, samples


def padded(arrays):
    """Row arrays as one padded batch: the arrays right-padded with zero
    rows to the longest and stacked, and their row counts."""
    l = max(len(a) for a in arrays)
    rows = np.concatenate([np.pad(a, ((0, l - len(a)), (0, 0))) for a in arrays])
    return T.Tensor(rows), np.array([len(a) for a in arrays])


def eval_inputs(params, batch, state):
    """Prepared samples' evaluation input, without the label block, as one
    padded batch."""
    return padded_inputs(batch, pseudo_blocks(params, batch, state), labels=False)


def unpadded(rows, lengths):
    """Each sample's own rows of a padded batch, as tensors."""
    l = rows.shape[0] // len(lengths)
    return [T.Tensor(rows.data[b * l:b * l + n]) for b, n in enumerate(lengths)]
