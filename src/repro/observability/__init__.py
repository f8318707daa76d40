"""Lightweight stage timers and counters for the simulation substrate.

The fast path is built around reuse (one predictor sweep feeds every
experiment, cached in memory and on disk), and reuse is only trustworthy
when it is observable: a warm run should *prove* it did zero sweeps, a
cold run should show where the wall time went.  This module is that
proof: a process-global :class:`MetricsRegistry` of named counters and
accumulated timers, cheap enough to leave on permanently.

Conventions
-----------
* Counter and timer names are dotted lowercase (``stream_cache.sweeps``,
  ``experiment.fig5.seconds``).
* Counters count events; timers accumulate seconds and call counts.
* :func:`snapshot` returns a plain JSON-serializable dict; worker
  processes return snapshots that the parent folds in with
  :func:`merge_snapshot`, so parallel runs report fleet-wide totals.
"""

from __future__ import annotations

import json
import logging
import sys
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional

logger = logging.getLogger("repro.observability")

#: Schema tag written into ``--profile`` JSON exports.
PROFILE_SCHEMA = "repro-profile/1"

#: Fault-tolerance error taxonomy.  These counters are zero-filled into
#: every ``--profile`` export, so dashboards and
#: ``benchmarks/fault_gate.py`` can rely on the keys existing whether or
#: not anything failed:
#:
#: * ``faults.injected`` — faults fired by :mod:`repro.testing.faults`
#: * ``retries.attempted`` — worker-task and cache-store retry attempts
#: * ``tasks.timed_out`` — parallel tasks that exceeded ``task_timeout``
#: * ``pool.broken`` — process pools lost to a crashed worker
#: * ``degraded.serial_fallback`` — tasks finished on the in-parent
#:   serial path after retries/pool rebuilds were exhausted
ERROR_TAXONOMY = (
    "faults.injected",
    "retries.attempted",
    "tasks.timed_out",
    "pool.broken",
    "degraded.serial_fallback",
)

#: Sharded-fabric claim taxonomy.  Like :data:`ERROR_TAXONOMY`, these are
#: zero-filled into every ``--profile`` export so fleet dashboards and
#: ``benchmarks/fabric_gate.py`` can rely on the keys existing even for
#: serial runs:
#:
#: * ``fabric.claims`` — work-unit leases acquired first-hand
#: * ``fabric.steals`` — abandoned (stale) leases taken over from a peer
#: * ``fabric.stale_leases`` — leases observed past their heartbeat TTL
#: * ``fabric.lease_conflicts`` — claim attempts lost to a live peer
#: * ``fabric.warm_skips`` — work units skipped because their cache
#:   artifact was already published by this or another shard
#: * ``fabric.lease_lost`` — heartbeats that found their own lease
#:   taken over by a peer
FABRIC_TAXONOMY = (
    "fabric.claims",
    "fabric.steals",
    "fabric.stale_leases",
    "fabric.lease_conflicts",
    "fabric.warm_skips",
    "fabric.lease_lost",
)


class MetricsRegistry:
    """Thread-safe named counters and accumulated stage timers."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Counter = Counter()
        self._timer_seconds: Dict[str, float] = defaultdict(float)
        self._timer_calls: Counter = Counter()
        self._maxima: Dict[str, float] = {}

    # ----- counters ---------------------------------------------------------

    def increment(self, name: str, amount: int = 1) -> None:
        """Add ``amount`` to counter ``name`` (creating it at zero)."""
        with self._lock:
            self._counters[name] += amount

    def counter(self, name: str) -> int:
        """Current value of counter ``name`` (0 when never incremented)."""
        with self._lock:
            return int(self._counters.get(name, 0))

    # ----- maxima -----------------------------------------------------------

    def update_max(self, name: str, value: float) -> None:
        """Record the running maximum of gauge ``name`` (e.g. peak RSS)."""
        with self._lock:
            current = self._maxima.get(name)
            if current is None or value > current:
                self._maxima[name] = float(value)

    def maximum(self, name: str) -> float:
        """Largest value recorded for gauge ``name`` (0.0 when never set)."""
        with self._lock:
            return float(self._maxima.get(name, 0.0))

    # ----- timers -----------------------------------------------------------

    def record_seconds(self, name: str, seconds: float) -> None:
        """Accumulate ``seconds`` into timer ``name``."""
        with self._lock:
            self._timer_seconds[name] += float(seconds)
            self._timer_calls[name] += 1

    @contextmanager
    def timed(self, name: str) -> Iterator[None]:
        """Context manager accumulating the enclosed wall time."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.record_seconds(name, time.perf_counter() - start)

    def timer_seconds(self, name: str) -> float:
        """Accumulated seconds of timer ``name`` (0.0 when never used)."""
        with self._lock:
            return float(self._timer_seconds.get(name, 0.0))

    # ----- aggregation ------------------------------------------------------

    def snapshot(self) -> Dict:
        """JSON-serializable copy of every counter, timer, and max gauge.

        The ``maxima`` key is present only when at least one gauge was
        recorded, keeping snapshots of older runs comparable.
        """
        with self._lock:
            data = {
                "counters": {name: int(value) for name, value in sorted(self._counters.items())},
                "timers": {
                    name: {
                        "seconds": float(self._timer_seconds[name]),
                        "calls": int(self._timer_calls[name]),
                    }
                    for name in sorted(self._timer_seconds)
                },
            }
            if self._maxima:
                data["maxima"] = {
                    name: float(self._maxima[name]) for name in sorted(self._maxima)
                }
            return data

    def merge(self, snapshot: Dict) -> None:
        """Fold a :func:`snapshot` (e.g. from a worker process) into this registry."""
        for name, value in snapshot.get("counters", {}).items():
            self.increment(name, int(value))
        for name, timer in snapshot.get("timers", {}).items():
            with self._lock:
                self._timer_seconds[name] += float(timer.get("seconds", 0.0))
                self._timer_calls[name] += int(timer.get("calls", 0))
        for name, value in snapshot.get("maxima", {}).items():
            self.update_max(name, float(value))

    def reset(self) -> None:
        """Drop every counter, timer, and gauge (tests and worker deltas)."""
        with self._lock:
            self._counters.clear()
            self._timer_seconds.clear()
            self._timer_calls.clear()
            self._maxima.clear()

    def summary_lines(self) -> List[str]:
        """Human-readable one-line-per-metric summary."""
        data = self.snapshot()
        lines = [
            f"{name} = {value}" for name, value in data["counters"].items()
        ]
        lines.extend(
            f"{name} = {timer['seconds']:.3f}s over {timer['calls']} call(s)"
            for name, timer in data["timers"].items()
        )
        lines.extend(
            f"{name} = {value:.0f} (max)"
            for name, value in data.get("maxima", {}).items()
        )
        return lines


#: The process-global registry used by the library.
METRICS = MetricsRegistry()


def increment(name: str, amount: int = 1) -> None:
    """Increment a counter on the global registry."""
    METRICS.increment(name, amount)


def counter_value(name: str) -> int:
    """Read a counter from the global registry."""
    return METRICS.counter(name)


def record_seconds(name: str, seconds: float) -> None:
    """Accumulate seconds into a timer on the global registry."""
    METRICS.record_seconds(name, seconds)


def update_max(name: str, value: float) -> None:
    """Record a running-maximum gauge on the global registry."""
    METRICS.update_max(name, value)


def max_value(name: str) -> float:
    """Read a running-maximum gauge from the global registry."""
    return METRICS.maximum(name)


#: Gauge name under which :func:`record_peak_rss` reports peak memory.
PEAK_RSS_GAUGE = "memory.peak_rss_bytes"


def peak_rss_bytes() -> int:
    """Peak resident-set size in bytes of this process or any reaped
    child, whichever is larger (0 if unavailable).

    ``RUSAGE_CHILDREN`` covers finished ``--jobs`` pool workers and
    fabric shards, which ``RUSAGE_SELF`` alone under-reports.
    ``ru_maxrss`` is kibibytes on Linux and bytes on macOS.
    """
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX platforms
        return 0
    peak = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    if sys.platform == "darwin":  # pragma: no cover - platform-specific
        return int(peak)
    return int(peak) * 1024


def record_peak_rss(name: str = PEAK_RSS_GAUGE) -> int:
    """Sample peak RSS into the ``maxima`` gauge ``name``; returns the bytes."""
    peak = peak_rss_bytes()
    if peak:
        METRICS.update_max(name, peak)
    return peak


def timed(name: str):
    """Time a block against the global registry."""
    return METRICS.timed(name)


def timer_seconds(name: str) -> float:
    """Read accumulated timer seconds from the global registry."""
    return METRICS.timer_seconds(name)


def snapshot() -> Dict:
    """Snapshot the global registry."""
    return METRICS.snapshot()


def merge_snapshot(data: Dict) -> None:
    """Merge a worker snapshot into the global registry."""
    METRICS.merge(data)


def reset_metrics() -> None:
    """Reset the global registry."""
    METRICS.reset()


def write_profile(path: str, extra: Optional[Dict] = None) -> None:
    """Write the global registry as a ``--profile`` JSON file.

    The error-taxonomy counters (:data:`ERROR_TAXONOMY`) and the fabric
    claim counters (:data:`FABRIC_TAXONOMY`) are always present in the
    export, zero-filled when nothing failed / nothing was sharded.  Peak
    RSS (:data:`PEAK_RSS_GAUGE`) is sampled here, so every export
    carries it.
    """
    record_peak_rss()
    payload = {"schema": PROFILE_SCHEMA}
    payload.update(snapshot())
    counters = payload.setdefault("counters", {})
    for name in ERROR_TAXONOMY + FABRIC_TAXONOMY:
        counters.setdefault(name, 0)
    if extra:
        payload["extra"] = extra
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def log_summary(prefix: str = "metrics") -> None:
    """Log the current summary at INFO (no-op unless logging is configured)."""
    for line in METRICS.summary_lines():
        logger.info("%s: %s", prefix, line)
