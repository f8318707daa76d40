"""``resilient_map`` joins its pool, unless a timed-out task may still run."""

import threading
import time

from repro.utils.resilient import resilient_map


def _square(value):
    return value * value, {}


def _sleep_then_square(value):
    time.sleep(value)
    return value * value, {}


def _serial_square(value):
    return value * value


def _manager_threads():
    return {
        thread for thread in threading.enumerate()
        if type(thread).__name__ == "_ExecutorManagerThread"
    }


def test_fault_free_map_leaves_no_manager_thread():
    before = _manager_threads()
    assert resilient_map(_square, [1, 2, 3], jobs=2, serial_worker=_serial_square) == [1, 4, 9]
    assert _manager_threads() <= before


def test_timed_out_straggler_is_not_waited_for():
    started = time.monotonic()
    results = resilient_map(
        _sleep_then_square, [0, 3], jobs=2, serial_worker=_serial_square,
        max_retries=0, task_timeout=0.3,
    )
    assert results == [0, 9]
    assert time.monotonic() - started < 2.5
