"""The shipped finite-difference verification suite must pass itself."""

import math
import time

import pytest
from scipy.special import erf

from mmadapt import tensor as T
from mmadapt.gradcheck import (
    FULL_TOL,
    PRIMITIVE_TOL,
    GradCheckResult,
    gradcheck_full,
    gradcheck_primitives,
    render_results,
)


PRIMITIVE_ROWS = [
    "add", "add_rowvec", "add_scalar", "scale", "matmul", "hadamard", "sigmoid", "tanh",
    "gelu", "transpose", "slice_rows", "slice_cols", "concat_rows", "stack_columns",
    "reduce_mean_rows", "sum_all", "softmax_rows", "layernorm_rows", "causal_attention",
    "softmax_cross_entropy", "rows_cross_entropy", "embedding_lookup", "lstm_final",
    "decoder_block", "decoder_block_frozen", "decoder_block_pruned", "add_colvec",
    "weighted_sum", "outer_blocks", "lstm_final_batch", "decoder_block_batch",
]


def test_primitives_all_within_tolerance():
    """The 31 rows, in order, each pass at 1e-6 for each of the seeds 0-49."""
    assert [r.name for r in gradcheck_primitives(seed=0)] == PRIMITIVE_ROWS
    for seed in range(50):
        for r in gradcheck_primitives(seed):
            assert r.tolerance == PRIMITIVE_TOL
            assert r.passed, f"seed {seed}: {r.line()}"


def test_a_wrong_backward_fails_only_its_own_row(monkeypatch):
    """A GELU whose backward lacks its x phi(x) term fails the gelu row at
    1e-6, and every other row still passes."""
    def gelu_without_x_phi(x):
        phi = 0.5 * (1.0 + erf(x.data / math.sqrt(2.0)))

        def back(g):
            x._accum(g * phi)

        return T._finish(x.data * phi, (x,), back)

    monkeypatch.setattr(T, "gelu", gelu_without_x_phi)
    for seed in range(3):
        failed = [r.name for r in gradcheck_primitives(seed) if not r.passed]
        assert failed == ["gelu"], seed


@pytest.fixture(scope="module")
def timed_full_run():
    """One gradcheck_full(seed=0) run and its wall time, shared by the
    tolerance and the speed test."""
    start = time.monotonic()
    results = gradcheck_full(seed=0)
    return results, time.monotonic() - start


def test_full_pipeline_within_tolerance(timed_full_run):
    results, _ = timed_full_run
    assert len(results) >= 15  # one row per adapter parameter group
    for r in results:
        assert r.tolerance == FULL_TOL
        assert r.passed, r.line()


def test_full_pipeline_fast_enough(timed_full_run):
    _, seconds = timed_full_run
    assert seconds < 120.0


def test_render_reports_failures():
    ok = GradCheckResult("good", 1e-9, 1e-6)
    bad = GradCheckResult("bad", 1e-2, 1e-6)
    text = render_results([ok, bad])
    assert "PASS  good" in text
    assert "FAIL  bad" in text
    assert text.splitlines()[-1].startswith("FAIL")
    assert render_results([ok]).splitlines()[-1].startswith("PASS")
