"""CI gate: injected faults must not change a single experiment report.

Runs the registered experiment suite twice on a reduced configuration:
once fault-free and serial (the golden outputs), then once with a
deterministic low-rate fault schedule (worker crashes, corrupted cache
entries, store ``OSError``, slow tasks) under ``--jobs``/``--chunk-size``
against a cold cache.  The faulted run must complete and every report
must be byte-identical to its golden counterpart; any divergence fails
the gate.

Usage (exits non-zero on gate failure)::

    PYTHONPATH=src python benchmarks/fault_gate.py
"""

from __future__ import annotations

import os
import sys
import tempfile

#: Reduced configuration both runs use.
BENCHMARKS = ("jpeg_play", "gcc")
LENGTH = 4000

#: Runtime settings of the faulted run.
JOBS = 4
CHUNK_SIZE = 1024
MAX_RETRIES = 2
TASK_TIMEOUT = 120.0

#: ``REPRO_FAULT_SPEC`` of the faulted run.
FAULT_SPEC = (
    "seed=1306,worker_crash=0.35,corrupt_entry=0.5,"
    "store_oserror=0.5,slow_task=0.25,slow_seconds=0.2"
)


def main() -> int:
    from repro import observability
    from repro.experiments.config import DEFAULT_CONFIG
    from repro.experiments.registry import list_experiments, run_all_reports
    from repro.sim.cache import clear_stream_cache
    from repro.testing import faults

    ids = [experiment.id for experiment in list_experiments()]
    config = DEFAULT_CONFIG.scaled(benchmarks=BENCHMARKS, trace_length=LENGTH)

    os.environ.pop(faults.FAULT_SPEC_ENV, None)
    faults.reset_fault_state()
    with tempfile.TemporaryDirectory() as golden_cache:
        os.environ["REPRO_CACHE_DIR"] = golden_cache
        clear_stream_cache()
        observability.reset_metrics()
        golden = run_all_reports(config, experiment_ids=ids, jobs=1)

    os.environ[faults.FAULT_SPEC_ENV] = FAULT_SPEC
    faults.reset_fault_state()
    with tempfile.TemporaryDirectory() as faulted_cache:
        os.environ["REPRO_CACHE_DIR"] = faulted_cache
        clear_stream_cache()
        observability.reset_metrics()
        faulted = run_all_reports(
            config.scaled(
                jobs=JOBS,
                chunk_size=CHUNK_SIZE,
                max_retries=MAX_RETRIES,
                task_timeout=TASK_TIMEOUT,
            ),
            experiment_ids=ids,
            jobs=JOBS,
        )
        counters = observability.snapshot()["counters"]
    os.environ.pop(faults.FAULT_SPEC_ENV, None)

    divergent = [
        g.experiment_id
        for g, f in zip(golden, faulted)
        if g.experiment_id != f.experiment_id or g.text != f.text
    ]
    taxonomy = {
        name: counters.get(name, 0) for name in observability.ERROR_TAXONOMY
    }
    for name, value in taxonomy.items():
        print(f"{name} = {value}")
    replayed = counters.get("report_cache.disk_hits", 0)
    if replayed:
        print(f"FAIL: the faulted run replayed {replayed} cached report(s)")
        return 1
    if divergent:
        print(f"FAIL: {len(divergent)} report(s) diverged: {', '.join(divergent)}")
        return 1
    print(f"PASS: {len(ids)} faulted reports byte-identical to golden outputs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
