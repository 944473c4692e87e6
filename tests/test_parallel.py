"""Training cells in the worker pool: the same outputs in and out of it, a
real per-seed failure inside a worker, one BLAS thread per worker, the heap
policy of every process that imports mmadapt, and the errors that stop a
pool's tasks."""

import ctypes
import hashlib
import inspect
import multiprocessing
import os
import signal
import subprocess
import sys
import time
from dataclasses import replace

import pytest

import mmadapt.trainer as trainer_mod
from mmadapt import parallel
from mmadapt.corpus import Dataset, subsample_train
from mmadapt.errors import FrozenViolation, WorkerError
from mmadapt.trainer import TrainConfig, multi_seed_run, multi_variant_run

needs_two_cpus = pytest.mark.skipif(parallel.usable_cpus() < 2,
                                    reason="tasks side by side need two usable CPUs")


def digests(out):
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}


def in_and_out_of_the_pool(monkeypatch, run):
    """run(out_name) with every cell in this process, then with the cells in
    the pool (which has one worker per usable CPU)."""
    results = []
    for workers in (1, 2):
        monkeypatch.setattr(trainer_mod, "usable_workers", lambda tasks: workers)
        results.append(run(str(workers)))
    return results


def fresh_pool():
    """Throw the shared pool away, so the next call starts its processes."""
    if parallel._pool is not None:
        parallel._discard(parallel._pool)


@pytest.mark.parametrize("variant", ["full", "no_text", "no_audio_vision"])
def test_outputs_are_byte_identical_in_and_out_of_the_pool(monkeypatch, tmp_path, small_synth,
                                                           small_backbone, small_adapter_config,
                                                           variant):
    config = TrainConfig(learning_rate=5e-3, epochs=2, batch_size=8, seeds=(5, 6, 7),
                         variant=variant)
    reports = in_and_out_of_the_pool(monkeypatch, lambda name: multi_seed_run(
        small_backbone, small_synth, small_adapter_config, config, out_dir=tmp_path / name))
    assert reports[0] == reports[1]
    alone, pooled = digests(tmp_path / "1"), digests(tmp_path / "2")
    # a report, and a checkpoint and a step log per seed
    assert len(alone) == 7
    assert alone == pooled


def test_a_seed_that_draws_an_overlong_sample_fails_alike_in_a_worker(
        monkeypatch, tmp_path, small_synth, small_backbone, small_adapter_config):
    train = list(small_synth["train"])
    long_text = "x" * small_backbone.config.max_seq
    train[0] = replace(train[0], text=long_text)
    dataset = Dataset(preset=small_synth.preset, splits={**small_synth.splits, "train": train},
                      meta=small_synth.meta)
    seeds = tuple(range(1, 9))
    drawn = [s for s in seeds if any(x.text == long_text for x in subsample_train(train, 0.5, s))]
    assert 0 < len(drawn) < len(seeds)
    config = TrainConfig(learning_rate=5e-3, epochs=1, batch_size=8, seeds=seeds,
                         train_fraction=0.5)
    reports = in_and_out_of_the_pool(monkeypatch, lambda name: multi_seed_run(
        small_backbone, dataset, small_adapter_config, config, out_dir=tmp_path / name))
    assert reports[0] == reports[1]
    failed = reports[1].failed_seeds
    assert [row["seed"] for row in failed] == drawn
    assert all(row["error"].startswith("LengthError:") for row in failed)
    assert [row["seed"] for row in reports[1].per_seed] == [s for s in seeds if s not in drawn]
    assert digests(tmp_path / "1") == digests(tmp_path / "2")


def test_finished_variants_keep_their_reports_when_a_later_cell_raises(
        monkeypatch, tmp_path, small_synth, small_backbone, small_adapter_config):
    real = trainer_mod.train_run

    def buggy(backbone, dataset, adapter_config, config, seed, out_dir=None):
        if config.variant == "no_text":
            raise RuntimeError("planted bug")
        return real(backbone, dataset, adapter_config, config, seed, out_dir)

    monkeypatch.setattr(trainer_mod, "train_run", buggy)
    monkeypatch.setattr(trainer_mod, "usable_workers", lambda tasks: 1)
    configs = [TrainConfig(learning_rate=5e-3, epochs=1, batch_size=8, seeds=(5,),
                           variant=variant) for variant in ("full", "no_text")]
    with pytest.raises(RuntimeError, match="planted bug"):
        multi_variant_run(small_backbone, small_synth, small_adapter_config, configs,
                          out_dir=tmp_path)
    assert (tmp_path / "report-full.json").exists()
    assert not (tmp_path / "report-no_text.json").exists()


def test_pool_workers_run_one_blas_thread_and_the_parent_keeps_its_environment(monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "4")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    fresh_pool()
    seen = list(parallel.run_in_pool(os.getenv,
                                     [("OPENBLAS_NUM_THREADS",), ("OMP_NUM_THREADS",)] * 3))
    assert seen == ["1", "1"] * 3
    assert os.environ["OPENBLAS_NUM_THREADS"] == "4"
    assert "OMP_NUM_THREADS" not in os.environ


def minor_faults_per_round() -> float:
    """Minor page faults per round of allocating and freeing eight 2 MiB
    arrays, over 20 rounds after one to warm the heap."""
    import resource

    import numpy as np
    for rounds in (1, 20):  # the first round warms the heap
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        for _ in range(rounds):
            arrays = [np.ones(1 << 18) for _ in range(8)]
            del arrays
    return (resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / rounds


def in_a_fresh_interpreter(preamble: str) -> tuple[float, list[str]]:
    """The probe's faults per round, and the MALLOC_* variables in
    os.environ, in a new interpreter that runs `preamble` first; it starts
    with no MALLOC_* variable."""
    source = (f"{preamble}\nimport os\n{inspect.getsource(minor_faults_per_round)}\n"
              "print(minor_faults_per_round(), *[k for k in os.environ if k.startswith('MALLOC_')])")
    env = {k: v for k, v in os.environ.items() if not k.startswith("MALLOC_")}
    out = subprocess.run([sys.executable, "-c", source], env=env, capture_output=True,
                         text=True, check=True).stdout.split()
    return float(out[0]), out[1:]


@pytest.mark.skipif(not hasattr(ctypes.CDLL(None), "mallopt"),
                    reason="the heap policy needs glibc's mallopt")
def test_every_process_that_imports_mmadapt_keeps_freed_arrays_on_its_heap():
    faults, malloc_vars = in_a_fresh_interpreter("import mmadapt")
    assert faults < 50
    assert malloc_vars == []
    # without the import the same probe faults every page in again
    assert in_a_fresh_interpreter("")[0] > 1000
    fresh_pool()
    assert all(f < 50 for f in parallel.run_in_pool(minor_faults_per_round, [()] * 2))


def test_the_pool_starts_no_more_processes_than_tasks():
    fresh_pool()
    assert len(set(parallel.run_in_pool(os.getpid, [()]))) == 1
    assert len(parallel._pool._processes) == 1


def test_a_worker_that_dies_raises_worker_error_and_the_pool_recovers():
    # fresh workers: an idle one could die while the pool still starts another
    fresh_pool()
    with pytest.raises(WorkerError, match="worker process died"):
        list(parallel.run_in_pool(os._exit, [(3,), (3,)]))
    pids = list(parallel.run_in_pool(os.getpid, [()] * 4))
    assert os.getpid() not in pids
    # a worker killed while the pool is idle fails the next call, not every later one
    for pid in set(pids):
        os.kill(pid, signal.SIGKILL)
    time.sleep(1.0)
    with pytest.raises(WorkerError, match="worker process died"):
        list(parallel.run_in_pool(os.getpid, [()] * 2))
    assert os.getpid() not in parallel.run_in_pool(os.getpid, [()] * 2)


@needs_two_cpus
def test_a_failing_task_kills_the_tasks_still_running():
    fresh_pool()
    start = time.monotonic()
    # the first task would sleep a minute; the second fails at once
    with pytest.raises(ValueError, match="non-negative"):
        list(parallel.run_in_pool(time.sleep, [(60,), (-1,)]))
    assert time.monotonic() - start < 30
    assert parallel._pool is None
    assert multiprocessing.active_children() == []


def test_a_caller_that_stops_reading_kills_the_tasks_still_running():
    fresh_pool()
    start = time.monotonic()
    rows = parallel.run_in_pool(time.sleep, [(0,), (60,)])
    assert next(rows) is None
    rows.close()
    assert time.monotonic() - start < 30
    assert multiprocessing.active_children() == []
    # a caller that read every result keeps the pool
    assert list(parallel.run_in_pool(abs, [(-1,), (-2,)])) == [1, 2]
    pool = parallel._pool
    rows = parallel.run_in_pool(abs, [(-3,)])
    assert next(rows) == 3
    rows.close()
    assert parallel._pool is pool


def test_a_worker_rejects_a_backbone_whose_checksum_differs(small_synth, small_backbone,
                                                            small_adapter_config):
    shipped = (small_backbone.config, small_backbone.arrays(), small_backbone.checksum ^ 1)
    cell = (small_synth, small_adapter_config, TrainConfig(epochs=1, seeds=(5,)), 5, [], None)
    with pytest.raises(FrozenViolation, match="rebuilt backbone"):
        list(parallel.run_in_pool(trainer_mod._run_cell_in_worker, [(shipped, *cell)]))


def test_usable_workers_are_the_usable_cpus_capped_at_the_tasks(monkeypatch):
    cpus = len(os.sched_getaffinity(0))
    assert parallel.usable_cpus() == cpus
    assert parallel.usable_workers(100) == min(cpus, 100)
    assert parallel.usable_workers(1) == 1
    # a platform without CPU affinity counts every CPU
    monkeypatch.delattr(os, "sched_getaffinity")
    assert parallel.usable_cpus() == os.cpu_count()
