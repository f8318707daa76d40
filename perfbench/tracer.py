"""Run the ``repro`` CLI once with a span around every layer entry point.

    python3 perfbench/tracer.py SPANS.json -- run-all --benchmarks gcc nroff ...

The tracer wraps the public functions listed in :data:`TARGETS`, in
their defining module and in every loaded ``repro`` module that imported
them by name, so no file under ``src/`` changes.  Each call records one
span row ``[layer, start, end, parent]`` in memory; after
``repro.cli.main`` returns, the rows and the work counters are written
to SPANS.json together with ``startup_s``, the time from the launch
(``PERFBENCH_LAUNCH_EPOCH``, set by the harness just before it started
this process) until the CLI was ready to run.

Spans are recorded in the process that runs this file.  Pool workers
forked by ``--jobs`` inherit the wrappers but their spans are never
written; ``breakdown.py`` takes the workers' share from ``--profile``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time
from collections import Counter
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple


class Tracer:
    """Spans and work counters of one process, kept in memory."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counters: Counter = Counter()
        self._stack: List[int] = []

    def open(self, layer: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([layer, time.perf_counter(), 0.0, parent])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def outermost(self, index: int) -> bool:
        """True when no enclosing span belongs to the same layer."""
        layer = self.spans[index][0]
        parent = self.spans[index][3]
        while parent >= 0:
            if self.spans[parent][0] == layer:
                return False
            parent = self.spans[parent][3]
        return True


class Call:
    """One finished call, as the counter functions see it."""

    def __init__(self, args, kwargs, result, seconds, outermost, memo_miss) -> None:
        self.args = args
        self.kwargs = kwargs
        self.result = result
        self.seconds = seconds
        self.outermost = outermost
        self.memo_miss = memo_miss

    def arg(self, position: int, name: str) -> Any:
        return self.args[position] if len(self.args) > position else self.kwargs[name]


Counts = Iterator[Tuple[str, float]]


def _synthesized(call: Call) -> Counts:
    if call.memo_miss:
        yield "workloads.synthesize.calls", 1
        yield "workloads.synthesize.branches", len(call.result)


def _sweep_trace(call: Call) -> Counts:
    if call.outermost:
        yield "sim.sweep.calls", 1


def _sweep_chunk(call: Call) -> Counts:
    # Every sweep runs through sweep_chunk, so branches are counted here.
    yield "sim.sweep.branches", len(call.arg(1, "outcomes"))
    if call.outermost:
        yield "sim.sweep.calls", 1


def _observe_rows(position: int, name: str) -> Callable[[Call], Counts]:
    def count(call: Call) -> Counts:
        if call.outermost:
            yield "sim.observe.calls", 1
            yield "sim.observe.branch_specs", len(call.arg(position, name))

    return count


def _observe_grid(call: Call) -> Counts:
    if call.outermost:
        observer, chunk = call.args[0], call.arg(1, "chunk")
        yield "sim.observe.calls", 1
        yield "sim.observe.branch_specs", chunk.num_branches * len(observer.specs)


def _disk_load(path_function: str) -> Callable[[Call], Counts]:
    def count(call: Call) -> Counts:
        yield "sim.cache.load.calls", 1
        if call.result is not None:
            diskcache = sys.modules["repro.sim.diskcache"]
            path = getattr(diskcache, path_function)(call.arg(0, "key"))
            yield "sim.cache.load.bytes", os.path.getsize(path)

    return count


def _disk_store(call: Call) -> Counts:
    yield "sim.cache.store.calls", 1
    if call.result is not None:
        yield "sim.cache.store.bytes", os.path.getsize(call.result)


def _fold(call: Call) -> Counts:
    if call.outermost:
        yield "analysis.fold.calls", 1


def _frontend(call: Call) -> Counts:
    yield "pipeline.calls", 1
    yield "pipeline.branches", len(call.arg(1, "trace"))


def _smt(call: Call) -> Counts:
    yield "pipeline.calls", 1
    yield "pipeline.branches", sum(len(trace) for trace in call.arg(0, "traces"))


def _experiment(call: Call) -> Counts:
    yield f"experiments.{call.arg(0, 'experiment_id')}.s", call.seconds


def _dispatch(call: Call) -> Counts:
    tasks = len(call.arg(1, "payloads"))
    yield "dispatch.tasks", tasks
    # Worker capacity: the pool's size times the parent's wait for it.
    yield "dispatch.capacity_s", min(call.kwargs["jobs"], tasks) * call.seconds


#: (defining module, attribute, layer, counter) per layer entry point.
TARGETS: Tuple[Tuple[str, str, str, Optional[Callable[[Call], Counts]]], ...] = (
    ("repro.workloads.ibs", "load_benchmark", "workloads", _synthesized),
    ("repro.workloads.spec_like", "load_spec_benchmark", "workloads", _synthesized),
    ("repro.sim.fast", "predictor_streams", "sim.sweep", _sweep_trace),
    ("repro.sim.chunked", "sweep_chunk", "sim.sweep", _sweep_chunk),
    ("repro.sim.batched", "GridObserver.observe", "sim.observe", _observe_grid),
    ("repro.sim.chunked", "CIRTableObserver.observe", "sim.observe",
     _observe_rows(1, "indices")),
    ("repro.sim.chunked", "ResettingCounterObserver.observe", "sim.observe",
     _observe_rows(1, "indices")),
    ("repro.sim.chunked", "SaturatingCounterObserver.observe", "sim.observe",
     _observe_rows(1, "indices")),
    ("repro.sim.chunked", "TwoLevelObserver.observe", "sim.observe",
     _observe_rows(1, "level1_indices")),
    ("repro.sim.fast", "cir_pattern_stream", "sim.observe", _observe_rows(0, "indices")),
    ("repro.sim.fast", "two_level_pattern_stream", "sim.observe",
     _observe_rows(0, "level1_indices")),
    ("repro.sim.fast", "resetting_counter_stream", "sim.observe",
     _observe_rows(0, "indices")),
    ("repro.sim.fast", "saturating_counter_stream", "sim.observe",
     _observe_rows(0, "indices")),
    ("repro.sim.fast", "final_cir_patterns", "sim.observe", _observe_rows(0, "indices")),
    ("repro.sim.fast", "cir_pattern_stream_with_flushes", "sim.observe",
     _observe_rows(0, "indices")),
    ("repro.sim.cache", "cached_predictor_streams", "sim.cache.load", None),
    ("repro.sim.cache", "iter_cached_stream_chunks", "sim.cache.load", None),
    ("repro.sim.cache", "load_sweep_results", "sim.cache.load", None),
    ("repro.sim.cache", "store_sweep_results", "sim.cache.store", None),
    ("repro.sim.diskcache", "load_cached_streams", "sim.cache.load",
     _disk_load("entry_path")),
    ("repro.sim.diskcache", "load_cached_chunk", "sim.cache.load",
     _disk_load("chunk_entry_path")),
    ("repro.sim.diskcache", "load_cached_sweep", "sim.cache.load",
     _disk_load("sweep_entry_path")),
    ("repro.sim.diskcache", "store_cached_streams", "sim.cache.store", _disk_store),
    ("repro.sim.diskcache", "store_cached_chunk", "sim.cache.store", _disk_store),
    ("repro.sim.diskcache", "store_cached_sweep", "sim.cache.store", _disk_store),
    ("repro.analysis.buckets", "BucketStatistics.from_streams", "analysis", _fold),
    ("repro.analysis.weighting", "equal_weight_combine", "analysis", _fold),
    ("repro.analysis.curves", "ConfidenceCurve.from_statistics", "analysis", _fold),
    ("repro.pipeline.machine", "SpeculativeFrontend.run", "pipeline", _frontend),
    ("repro.pipeline.smt", "simulate_smt", "pipeline", _smt),
    ("repro.experiments.registry", "run_experiment_report", "experiments", _experiment),
    ("repro.utils.resilient", "resilient_map", "dispatch", _dispatch),
)


def _wrap(tracer: Tracer, layer: str, function: Callable, count) -> Callable:
    if inspect.isgeneratorfunction(function):
        # A generator's work happens inside next(): one span per item.
        @functools.wraps(function)
        def generator(*args, **kwargs):
            inner = function(*args, **kwargs)
            while True:
                index = tracer.open(layer)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    tracer.close(index)
                yield item

        return generator

    memo_info = getattr(function, "cache_info", None)

    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        misses = memo_info().misses if memo_info else 0
        index = tracer.open(layer)
        try:
            result = function(*args, **kwargs)
        finally:
            tracer.close(index)
        if count is not None:
            _, start, end, _ = tracer.spans[index]
            call = Call(
                args,
                kwargs,
                result,
                end - start,
                tracer.outermost(index),
                memo_info is None or memo_info().misses > misses,
            )
            for name, amount in count(call):
                tracer.counters[name] += amount
        return result

    return wrapper


def install(tracer: Tracer) -> None:
    """Replace every target with its traced wrapper, wherever it is bound."""
    for module_name, attribute, layer, count in TARGETS:
        module = importlib.import_module(module_name)
        owner_name, _, name = attribute.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            raw = owner.__dict__[name]
            if isinstance(raw, classmethod):
                setattr(owner, name, classmethod(_wrap(tracer, layer, raw.__func__, count)))
            else:
                setattr(owner, name, _wrap(tracer, layer, raw, count))
            continue
        original = getattr(module, name)
        traced = _wrap(tracer, layer, original, count)
        for loaded_name, loaded in list(sys.modules.items()):
            if loaded_name != "repro" and not loaded_name.startswith("repro."):
                continue
            for binding, value in list(vars(loaded).items()):
                if value is original:
                    setattr(loaded, binding, traced)


def main(argv: List[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py SPANS.json -- REPRO_ARGS...", file=sys.stderr)
        return 2
    out_path, cli_args = argv[0], argv[2:]
    launch = float(os.environ.get("PERFBENCH_LAUNCH_EPOCH", time.time()))
    tracer = Tracer()
    install(tracer)
    from repro.cli import main as cli_main

    startup_s = time.time() - launch
    try:
        return cli_main(cli_args)
    finally:
        document: Dict[str, Any] = {
            "startup_s": startup_s,
            "spans": tracer.spans,
            "counters": dict(tracer.counters),
        }
        with open(out_path, "w", encoding="utf-8") as handle:
            json.dump(document, handle)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
