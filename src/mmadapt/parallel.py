"""A persistent pool of one-BLAS-thread worker processes.

Training cells are pure functions of their arguments, so they can run side by
side. The pool is built on first use, one worker slot per usable CPU, and kept
for the life of the process, because starting a worker (a fresh interpreter
importing numpy) costs more than a short run's cells. It starts a process only
when a task is submitted and no worker is idle, so a call with fewer tasks
than CPUs starts no more processes than tasks. A pool that lost a worker, or
whose tasks were stopped, is thrown away and the next call builds a new one.

Workers start from `spawn`, never `fork`, so they share no thread or lock
state with the parent. Each starts with one BLAS and one OpenMP thread: the
variables must be in its environment before it imports numpy, and two
multi-threaded BLAS processes on two cores run several times slower than two
single-threaded ones. The heap policy needs no variable: a worker imports
`mmadapt` to unpickle its task, and the import sets it (see `mmadapt`).
"""

from __future__ import annotations

import contextlib
import multiprocessing
import os
import threading
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Iterator, Sequence

from .errors import WorkerError

WORKER_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# the pool of this process: built lazily, shared by every caller
_lock = threading.Lock()
_pool: ProcessPoolExecutor | None = None


def usable_cpus() -> int:
    """The CPUs this process may run on: its CPU affinity where the platform
    has one (Linux), else every CPU."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def usable_workers(tasks: int) -> int:
    """How many of `tasks` can run at once: the usable CPUs, capped at the
    number of tasks."""
    return max(1, min(usable_cpus(), tasks))


@contextlib.contextmanager
def _worker_environment() -> Iterator[None]:
    """WORKER_ENV in os.environ while worker processes start; the old values
    come back afterwards. A worker inherits the environment it was started
    with."""
    saved = {key: os.environ.get(key) for key in WORKER_ENV}
    os.environ.update(WORKER_ENV)
    try:
        yield
    finally:
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value


def _executor() -> ProcessPoolExecutor:
    global _pool
    with _lock:
        if _pool is None:
            _pool = ProcessPoolExecutor(usable_cpus(),
                                        mp_context=multiprocessing.get_context("spawn"))
        return _pool


def _discard(pool: ProcessPoolExecutor) -> None:
    """Kill the pool's processes, whatever they are running, and wait until
    its manager thread has ended; the next call builds a new pool."""
    global _pool
    with _lock:
        if _pool is pool:
            _pool = None
    for process in list((pool._processes or {}).values()):
        process.kill()
    pool.shutdown(wait=True, cancel_futures=True)


def run_in_pool(fn: Callable, tasks: Sequence[tuple]) -> Iterator:
    """Yield fn(*task) for every task, run in the pool, in task order. `fn`
    and every argument must pickle.

    An exception a task raises is raised here as soon as the task fails, even
    while earlier tasks still run; a worker that dies raises WorkerError. On
    either, and when the caller stops reading early, the tasks still running
    are killed with the pool's processes."""
    pool = _executor()
    futures = []
    try:
        # the pool starts its processes as tasks are submitted
        with _worker_environment():
            for task in tasks:
                futures.append(pool.submit(fn, *task))
        pending = set(futures)
        for future in futures:
            while not future.done():
                done, pending = wait(pending, return_when=FIRST_COMPLETED)
                for finished in done:
                    finished.result()  # raises the task's exception
            yield future.result()
    except BrokenProcessPool as exc:
        _discard(pool)
        raise WorkerError(f"a worker process died before its task finished ({exc})") from exc
    except BaseException:
        if not all(f.done() for f in futures):
            _discard(pool)
        raise
