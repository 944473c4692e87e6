"""The shipped finite-difference verification suite must pass itself."""

import time

import pytest

from mmadapt.gradcheck import (
    FULL_TOL,
    PRIMITIVE_TOL,
    GradCheckResult,
    gradcheck_full,
    gradcheck_primitives,
    render_results,
)


def test_primitives_all_within_tolerance():
    """Every row passes at 1e-6 for each of the seeds 0-49."""
    names = {r.name for r in gradcheck_primitives(seed=0)}
    for expected in ("matmul", "gelu", "softmax_rows", "layernorm_rows",
                     "causal_attention", "rows_cross_entropy",
                     "embedding_lookup", "lstm_final", "decoder_block",
                     "decoder_block_frozen", "decoder_block_pruned", "decoder_block_batch"):
        assert expected in names
    for seed in range(50):
        for r in gradcheck_primitives(seed):
            assert r.tolerance == PRIMITIVE_TOL
            assert r.passed, f"seed {seed}: {r.line()}"


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
