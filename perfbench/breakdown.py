"""Per-layer breakdown of one traced ``repro`` run.

A traced run (see ``tracer.py``) writes its spans as
``[layer, start, end, parent]`` rows plus work counters.  This module
turns them into the benchmark's per-layer metrics: self time per layer
(a span's duration minus the part its child spans cover), work counts
and rates, cache and dispatch figures from the run's ``--profile``
JSON, and ``trace.unattributed_s`` — the traced wall minus every
layer's self time.

On a dispatched run (``--jobs 2``) the spans cover the parent only;
the worker-side layer seconds and counters come from the merged
profile instead and are added on top, so there the layers sum to more
than the wall (workers run in parallel with the parent's wait).
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Iterable, List, Mapping, Sequence

#: Span layer -> the metric holding its self time.
SELF_METRICS = {
    "startup": "startup.self_s",
    "workloads": "workloads.synthesize.self_s",
    "sim.sweep": "sim.sweep.self_s",
    "sim.observe": "sim.observe.self_s",
    "sim.cache.load": "sim.cache.load.self_s",
    "sim.cache.store": "sim.cache.store.self_s",
    "analysis": "analysis.fold.self_s",
    "pipeline": "pipeline.self_s",
    "experiments": "experiments.report.self_s",
    "dispatch": "dispatch.self_s",
}

#: Rate metric -> (work counter, self-time metric).
RATES = {
    "workloads.synthesize.branches_per_s": (
        "workloads.synthesize.branches", "workloads.synthesize.self_s"
    ),
    "sim.sweep.branches_per_s": ("sim.sweep.branches", "sim.sweep.self_s"),
    "sim.observe.branch_specs_per_s": (
        "sim.observe.branch_specs", "sim.observe.self_s"
    ),
    "pipeline.branches_per_s": ("pipeline.branches", "pipeline.self_s"),
}

#: Profile counters of the three disk tiers of the cache.
_DISK_HITS = ("stream_cache.disk_hits", "stream_cache.chunk_hits", "sweep_cache.disk_hits")
_DISK_MISSES = (
    "stream_cache.disk_misses", "stream_cache.chunk_misses", "sweep_cache.disk_misses"
)
_DISK_CORRUPT = (
    "stream_cache.disk_corrupt", "stream_cache.chunk_corrupt", "sweep_cache.disk_corrupt"
)
_DISK_STORES = ("stream_cache.stores", "stream_cache.chunk_stores", "sweep_cache.stores")


def self_times(spans: Sequence[Sequence]) -> Dict[str, float]:
    """Seconds per layer that no child span covers.

    ``spans`` rows are ``[layer, start, end, parent_index]`` with
    ``parent_index == -1`` for a top-level span; spans nest properly
    (the traced program calls the layers from one thread).
    """
    covered = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    totals: Dict[str, float] = {}
    for (layer, start, end, _), child_seconds in zip(spans, covered):
        totals[layer] = totals.get(layer, 0.0) + (end - start) - child_seconds
    return totals


def _sum(counters: Mapping[str, float], names: Iterable[str]) -> float:
    return float(sum(counters.get(name, 0) for name in names))


def layer_metrics(
    trace: Mapping, profile: Mapping, wall_s: float, bytes_on_disk: int
) -> Dict[str, float]:
    """Every per-layer metric of one traced run except ``trace.overhead_s``.

    ``trace`` is the tracer's output document, ``profile`` the run's
    ``--profile`` JSON, ``wall_s`` the run's wall measured by the
    harness and ``bytes_on_disk`` the cache directory's size after it.
    """
    metrics: Dict[str, float] = Counter(trace["counters"])
    spans_self = self_times(trace["spans"])
    spans_self["startup"] = trace["startup_s"]
    for layer, name in SELF_METRICS.items():
        metrics[name] = spans_self.get(layer, 0.0)
    metrics["trace.wall_s"] = wall_s
    metrics["trace.unattributed_s"] = wall_s - sum(spans_self.values())

    counters = profile.get("counters", {})
    timers = profile.get("timers", {})
    hits = _sum(counters, _DISK_HITS)
    lookups = hits + _sum(counters, _DISK_MISSES) + _sum(counters, _DISK_CORRUPT)
    metrics["sim.cache.hit_ratio"] = hits / lookups if lookups else 0.0
    metrics["sim.cache.corrupt_drops"] = _sum(counters, _DISK_CORRUPT)
    metrics["sim.cache.bytes_on_disk"] = float(bytes_on_disk)
    metrics["dispatch.retries"] = float(counters.get("retries.attempted", 0))
    metrics["dispatch.failures"] = _sum(
        counters, ("tasks.timed_out", "pool.broken", "degraded.serial_fallback")
    )

    capacity = metrics.pop("dispatch.capacity_s", 0.0)
    if metrics["dispatch.tasks"]:
        _add_worker_side(metrics, counters, timers, capacity)

    for rate, (work, seconds) in RATES.items():
        metrics[rate] = metrics[work] / metrics[seconds] if metrics[seconds] > 0 else 0.0
    return dict(metrics)


def _add_worker_side(
    metrics: Dict[str, float],
    counters: Mapping[str, float],
    timers: Mapping[str, Mapping[str, float]],
    capacity_s: float,
) -> None:
    """Fold the workers' merged profile into the layers of a dispatched run."""

    def seconds(name: str) -> float:
        return float(timers.get(name, {}).get("seconds", 0.0))

    busy = 0.0
    for name in timers:
        if name.startswith("experiment.") and name.endswith(".seconds"):
            experiment_id = name[len("experiment."):-len(".seconds")]
            metrics[f"experiments.{experiment_id}.s"] += seconds(name)
            busy += seconds(name)
    metrics["dispatch.worker_busy_s"] = busy
    metrics["dispatch.idle_share"] = (
        max(0.0, 1.0 - busy / capacity_s) if capacity_s > 0 else 0.0
    )
    metrics["sim.sweep.self_s"] += seconds("chunked.sweep_seconds") + seconds(
        "stream_cache.chunk_sweep_seconds"
    )
    metrics["sim.sweep.calls"] += _sum(
        counters, ("chunked.chunks", "stream_cache.chunk_sweeps")
    )
    metrics["sim.observe.self_s"] += seconds("batched.grid_sweep_seconds")
    metrics["sim.observe.calls"] += float(counters.get("batched.grid_sweeps", 0))
    metrics["sim.cache.load.calls"] += (
        _sum(counters, _DISK_HITS)
        + _sum(counters, _DISK_MISSES)
        + _sum(counters, _DISK_CORRUPT)
    )
    metrics["sim.cache.store.calls"] += _sum(counters, _DISK_STORES)


def format_layer_table(metrics: Mapping[str, float]) -> str:
    """Seconds, share of the traced wall and work rate per layer."""
    wall = metrics.get("trace.wall_s", 0.0)
    rate_of = {seconds: rate for rate, (_, seconds) in RATES.items()}
    rows: List[str] = [f"{'layer':<22} {'self_s':>9} {'share':>7} {'work/s':>12}"]
    for layer, name in SELF_METRICS.items():
        value = metrics.get(name, 0.0)
        share = value / wall if wall else 0.0
        rate = metrics.get(rate_of[name], 0.0) if name in rate_of else 0.0
        rate_text = f"{rate:12.0f}" if rate else f"{'-':>12}"
        rows.append(f"{layer:<22} {value:9.3f} {share:7.1%} {rate_text}")
    unattributed = metrics.get("trace.unattributed_s", 0.0)
    rows.append(
        f"{'(unattributed)':<22} {unattributed:9.3f} "
        f"{(unattributed / wall if wall else 0.0):7.1%} {'-':>12}"
    )
    rows.append(f"{'traced wall':<22} {wall:9.3f}")
    return "\n".join(rows)
