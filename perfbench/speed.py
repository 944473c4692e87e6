"""The machine-speed probe that end-to-end times are scaled by.

The benchmark's host gives each virtual CPU a speed that changes many times a
second and whose average drifts by tens of percent over minutes, the same for
every program on that CPU. A fixed piece of work timed right before and right
after each timed call measures the speed the call ran at. `scaled` turns a
measured time into the time it would have taken at the nominal speed, the
speed at which the probe takes `NOMINAL_S`.

The probe is benchmark code only: 24 forwards of `reference.Backbone`, with
fixed random weights, over 40 rows at the acceptance width. It imports
nothing from `mmadapt`, so a change to the program cannot move it, and its
mix of small numpy products and Python matches the workloads'.
"""

from __future__ import annotations

import struct
import time

import numpy as np

import reference

# the probe's least time on the 2-vCPU Xeon virtual machine that README.md's
# Environment describes (20.6 ms over 500 probes); a constant, so that scaled
# times compare across runs
NOMINAL_S = 0.020

WIDTH, LAYERS, HEADS, ROWS, FORWARDS = 64, 2, 2, 40, 24


def _backbone() -> reference.Backbone:
    rng = np.random.default_rng(0)
    w = lambda *shape: rng.normal(0.0, 0.1, shape)
    weights = {"embed": w(reference.VOCAB, WIDTH), "pos": w(ROWS, WIDTH),
               "lnf.g": 1.0 + w(WIDTH), "lnf.b": w(WIDTH)}
    for i in range(LAYERS):
        p = f"h{i}."
        for m in ("wq", "wk", "wv", "wo"):
            weights[p + m] = w(WIDTH, WIDTH)
        for b in ("bq", "bk", "bv", "bo", "ln1.b", "ln2.b", "bf2"):
            weights[p + b] = w(WIDTH)
        weights[p + "ln1.g"], weights[p + "ln2.g"] = 1.0 + w(WIDTH), 1.0 + w(WIDTH)
        weights[p + "wf1"], weights[p + "bf1"] = w(WIDTH, 4 * WIDTH), w(4 * WIDTH)
        weights[p + "wf2"] = w(4 * WIDTH, WIDTH)
    config = struct.pack("<6I", reference.VOCAB, WIDTH, LAYERS, HEADS, 4, ROWS)
    return reference.Backbone(config, weights)


class Probe:
    """Callable: runs the probe's fixed work and returns its wall time."""

    def __init__(self) -> None:
        self.backbone = _backbone()
        self.rows = self.backbone.embed(np.arange(ROWS) % reference.VOCAB)
        self()  # first call warms numpy's and BLAS's lazy set-up

    def __call__(self) -> float:
        start = time.perf_counter()
        for _ in range(FORWARDS):
            self.backbone.logits(self.rows)
        return time.perf_counter() - start


def scaled(seconds: float, probe_s: float) -> float:
    """`seconds` measured while the probe took `probe_s`, at nominal speed."""
    return seconds * NOMINAL_S / probe_s
