"""``resilient_map`` joins its pool, unless a timed-out task may still run."""

import multiprocessing
import threading
import time

from repro.utils.resilient import resilient_map


def _square(value):
    return value * value


def _square_slowly_in_a_worker(value):
    # The degraded path runs this same task in the parent; only a pool
    # worker straggles.
    if multiprocessing.parent_process() is not None:
        time.sleep(value)
    return value * value


def _manager_threads():
    return {
        thread for thread in threading.enumerate()
        if type(thread).__name__ == "_ExecutorManagerThread"
    }


def test_fault_free_map_leaves_no_manager_thread():
    before = _manager_threads()
    results = resilient_map(_square, [(1,), (2,), (3,)], jobs=2, keys=["1", "2", "3"])
    assert results == [1, 4, 9]
    assert _manager_threads() <= before


def test_timed_out_straggler_is_not_waited_for():
    started = time.monotonic()
    results = resilient_map(
        _square_slowly_in_a_worker, [(0,), (3,)], jobs=2, keys=["0", "3"],
        max_retries=0, task_timeout=0.3,
    )
    assert results == [0, 9]
    assert time.monotonic() - started < 2.5
