"""The benchmark's tracer wraps public names of the package by name, so
removing or renaming one of them breaks `perfbench/run.py --trace 1`."""

import importlib.util
from pathlib import Path

from mmadapt import tensor, trainer

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_tracer_installs_and_uninstalls_over_the_package():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    originals = (trainer.prepare_samples, tensor.gelu, tensor.Tape.backward)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert trainer.prepare_samples is not originals[0]
        assert tensor.gelu is not originals[1]
    finally:
        tracer.uninstall()
    assert (trainer.prepare_samples, tensor.gelu, tensor.Tape.backward) == originals
