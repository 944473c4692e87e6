"""The speed probe: its scaling arithmetic, and its independence of the program.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import speed  # noqa: E402


def test_scaled_is_the_time_at_nominal_speed():
    assert speed.scaled(0.2, speed.NOMINAL_S) == pytest.approx(0.2)
    # a probe twice as slow as nominal means the CPU ran at half speed
    assert speed.scaled(0.2, 2 * speed.NOMINAL_S) == pytest.approx(0.1)


def test_probe_times_fixed_work():
    probe = speed.Probe()
    first = probe.backbone.logits(probe.rows)
    assert probe() > 0.0
    assert (probe.backbone.logits(probe.rows) == first).all()


def test_probe_imports_nothing_from_the_program():
    code = ("import sys, speed; speed.Probe()(); "
            "sys.exit(any(m.startswith('mmadapt') for m in sys.modules))")
    assert subprocess.run([sys.executable, "-c", code], cwd=HERE).returncode == 0
