"""Fault-tolerant process-pool mapping.

:func:`resilient_map` is the execution layer under every parallel
fan-out in the repo: stream sweeps warmed into the store
(:func:`repro.sim.cache.warm_stream_entries`, from
:mod:`repro.experiments.runner`) and whole experiments
(:func:`repro.experiments.registry.run_experiment_report`).  Every task
has one shape, ``task(*payload)`` under a fault key, and one worker
lifecycle (:func:`_pool_task`: clean metrics, fault hooks, the task,
the snapshot); the in-parent degraded path runs the same task under
:func:`serial_task`.  Results come back in payload order,
byte-identical to a serial run, while the map survives the failure
modes a long multi-benchmark run actually hits:

* a **crashed worker** (``BrokenProcessPool``) rebuilds the pool and
  re-runs only the tasks that did not finish; repeated pool loss
  degrades to computing the remainder serially in the parent;
* a **slow or hung task** is bounded by ``task_timeout`` seconds and
  retried; on retry exhaustion it, too, falls back to the serial path
  (which always completes deterministically);
* a **failing task** (exception raised in the worker) is retried with
  exponential backoff up to ``max_retries`` times, after which the
  original error is re-raised — deterministic errors abort instead of
  looping forever.

Every decision is counted through :mod:`repro.observability`
(``pool.started``, ``pool.broken``, ``tasks.timed_out``,
``retries.attempted``, ``degraded.serial_fallback``), so a ``--profile``
export shows exactly how a degraded run got its results.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, List, Optional, Sequence, TypeVar

from repro import observability
from repro.testing import faults

T = TypeVar("T")

#: Base of the exponential retry backoff (seconds).
RETRY_BACKOFF_SECONDS = 0.05

#: Longest single backoff sleep (seconds).
MAX_BACKOFF_SECONDS = 2.0

#: Pool rebuilds tolerated before degrading the remainder to serial.
MAX_POOL_REBUILDS = 2


def retry_call(
    run: Callable[[], T],
    *,
    max_retries: int,
    retry_on: "tuple[type[BaseException], ...]" = (Exception,),
    backoff_seconds: float = RETRY_BACKOFF_SECONDS,
    max_backoff_seconds: float = MAX_BACKOFF_SECONDS,
) -> T:
    """Run ``run`` with the pool tasks' retry/backoff semantics, in-process.

    This is the cross-shard face of the retry taxonomy: a fabric worker
    computing a claimed work unit is one process with no pool underneath,
    but its failure handling must match :func:`resilient_map` — bounded
    retries with exponential backoff, counted through the same
    ``retries.attempted`` counter, and the original error re-raised once
    retries are exhausted (a crashed shard's lease then goes stale and a
    peer takes the unit over, which is the fabric's equivalent of the
    pool rebuild).
    """
    attempt = 0
    while True:
        try:
            return run()
        except retry_on:
            if attempt >= max_retries:
                raise
            observability.increment("retries.attempted")
            delay = backoff_seconds * (2 ** attempt)
            time.sleep(min(delay, max_backoff_seconds))
            attempt += 1


def serial_task(task_key: str, run: Callable[[], T]) -> T:
    """Run one degraded-serial task with pool-worker metrics parity.

    A pool worker starts from a clean metrics registry, runs the fault
    hooks, and ships its snapshot back for exactly one merge into the
    parent.  The in-parent serial fallback must look identical to
    ``--profile`` consumers, so this helper reproduces that lifecycle
    in-process: parent counters are set aside (never bleeding into the
    task's delta), the serial fault hooks run, and the task's own delta
    is merged back alongside the restored parent state.  A failing task
    merges nothing — matching a worker that died before reporting.
    """
    parent = observability.snapshot()
    observability.reset_metrics()
    delta = None
    try:
        faults.inject_serial_faults(task_key)
        result = run()
        delta = observability.snapshot()
        return result
    finally:
        observability.reset_metrics()
        observability.merge_snapshot(parent)
        if delta is not None:
            observability.merge_snapshot(delta)


def _pool_task(task: Callable, key: str, payload: Sequence) -> "tuple[Any, Dict]":
    """Pool-worker lifecycle of one task: clean metrics, fault hooks, run.

    The returned snapshot is merged into the parent exactly once, so a
    ``--profile`` export accounts every worker's counters.
    """
    observability.reset_metrics()
    faults.inject_worker_faults(key)
    result = task(*payload)
    return result, observability.snapshot()


def resilient_map(
    task: Callable,
    payloads: Sequence[Sequence],
    *,
    jobs: int,
    keys: Sequence[str],
    max_retries: int = 2,
    task_timeout: Optional[float] = None,
) -> List[Any]:
    """``[task(*payload) for payload in payloads]`` on a process pool.

    ``task`` is a picklable module-level function.  ``keys`` names each
    payload's fault-injection site (:mod:`repro.testing.faults`), so a
    ``REPRO_FAULT_SPEC`` schedule replays task for task.  The degraded
    path runs the same ``task`` in the parent under :func:`serial_task`,
    so the returned list always matches a serial run in content and
    order.
    """
    results: List[Any] = [None] * len(payloads)
    done: List[bool] = [False] * len(payloads)
    attempts: Dict[int, int] = {}
    errors: Dict[int, BaseException] = {}
    last_failure: Dict[int, str] = {}
    pending = list(range(len(payloads)))
    pool_breaks = 0

    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures import TimeoutError as FuturesTimeout
    from concurrent.futures.process import BrokenProcessPool

    while pending:
        if pool_breaks > MAX_POOL_REBUILDS:
            # The pool keeps dying; compute the remainder in-process.
            observability.increment("degraded.serial_fallback", len(pending))
            for index in pending:
                results[index] = serial_task(
                    keys[index], lambda: task(*payloads[index])
                )
                done[index] = True
            break
        broken = False
        timed_out = False
        retry: List[int] = []
        observability.increment("pool.started")
        pool = ProcessPoolExecutor(max_workers=max(1, min(jobs, len(pending))))
        try:
            futures = []
            try:
                for index in pending:
                    futures.append((index, pool.submit(
                        _pool_task, task, keys[index], payloads[index]
                    )))
            except BrokenProcessPool:
                # A worker died before the last submit; drain what was
                # submitted and leave the rest pending for the rebuild.
                observability.increment("pool.broken")
                broken = True
            for index, future in futures:
                try:
                    result, metrics = future.result(timeout=task_timeout)
                except FuturesTimeout:
                    observability.increment("tasks.timed_out")
                    timed_out = True
                    future.cancel()
                    retry.append(index)
                    last_failure[index] = "timeout"
                except BrokenProcessPool:
                    # The pool is gone, but futures that completed before
                    # the break still hold results — keep draining.
                    if not broken:
                        observability.increment("pool.broken")
                        broken = True
                except Exception as error:  # noqa: BLE001 - retried, then re-raised
                    retry.append(index)
                    errors[index] = error
                    last_failure[index] = "error"
                else:
                    observability.merge_snapshot(metrics)
                    results[index] = result
                    done[index] = True
        finally:
            # Join the pool so its manager thread is gone before interpreter
            # exit, unless a timed-out straggler may still be running:
            # never block on one, it finishes or dies on its own.
            pool.shutdown(wait=not timed_out, cancel_futures=True)
        if broken:
            pool_breaks += 1
            pending = [index for index in pending if not done[index]]
            continue
        next_pending: List[int] = []
        for index in retry:
            attempts[index] = attempts.get(index, 0) + 1
            if attempts[index] <= max_retries:
                observability.increment("retries.attempted")
                next_pending.append(index)
            elif last_failure[index] == "timeout":
                # Slow is not wrong: the serial path has no deadline.
                observability.increment("degraded.serial_fallback")
                results[index] = serial_task(
                    keys[index], lambda: task(*payloads[index])
                )
                done[index] = True
            else:
                raise errors[index]
        pending = next_pending
        if pending:
            worst = max(attempts[index] for index in pending)
            delay = RETRY_BACKOFF_SECONDS * (2 ** (worst - 1))
            time.sleep(min(delay, MAX_BACKOFF_SECONDS))
    return results
