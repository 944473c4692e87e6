"""Shared session fixtures: a small synthetic dataset and a small pretrained
backbone that keep the unit suites fast, and one timed `mmadapt gradcheck`
run that the command-line and acceptance suites both check. The acceptance
suite builds its own full-size workspace through the command-line interface.
"""

import subprocess
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from mmadapt.adapter import AdapterConfig
from mmadapt.backbone import BackboneConfig, pretrain_backbone
from mmadapt.corpus import SyntheticSpec, generate_synthetic
from mmadapt.trainer import build_pretrain_corpus

SMALL_SPEC = SyntheticSpec(train=24, valid=9, test=12, seed=1234)
SMALL_TOKENS = 2


@pytest.fixture(scope="session")
def small_synth(tmp_path_factory):
    return generate_synthetic(SMALL_SPEC, tmp_path_factory.mktemp("small-synth"))


@pytest.fixture(scope="session")
def small_backbone(small_synth):
    corpus = build_pretrain_corpus(small_synth, small_synth.preset, SMALL_TOKENS)
    config = BackboneConfig(embed_width=32, layers=1, heads=2, ffn_mult=2,
                            max_seq=96)
    backbone, _ = pretrain_backbone(corpus, steps=400, seed=7, config=config,
                                    lr=4e-3)
    return backbone


@pytest.fixture(scope="session")
def small_adapter_config(small_synth, small_backbone):
    return AdapterConfig(
        audio_width=small_synth.preset.audio_width,
        vision_width=small_synth.preset.vision_width,
        audio_hidden=16,
        vision_hidden=16,
        mix_width=32,
        token_count=SMALL_TOKENS,
        embed_width=small_backbone.config.embed_width,
    )


@pytest.fixture(scope="session")
def gradcheck_run(tmp_path_factory):
    """One `mmadapt gradcheck --seed 0 --out <dir>` run: its completed
    process, wall seconds and output directory."""
    out = tmp_path_factory.mktemp("gradcheck") / "gc"
    start = time.monotonic()
    proc = subprocess.run([sys.executable, "-m", "mmadapt", "gradcheck", "--seed", "0",
                           "--out", str(out)], capture_output=True, text=True, timeout=600)
    return {"proc": proc, "seconds": time.monotonic() - start, "out": out}
