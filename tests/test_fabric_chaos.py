"""Chaos: a worker killed mid-claim plus entries corrupted mid-run.

Worker A stalls inside the first unit it claims and is SIGKILLed the
moment its lease file appears, so it dies holding the lease and without
publishing anything.  Worker B then runs with ``corrupt_entry`` faults
armed: it must wait out A's stale lease, take the unit over, drop every
entry the fault damages, and still leave a fabric whose merge is
byte-identical to a serial run, with every unit done and nothing
computed twice by B.
"""

import multiprocessing
import os
import signal
import time

from repro import observability
from repro.experiments.config import ExperimentConfig
from repro.experiments.registry import run_all_reports
from repro.fabric import runtime
from repro.fabric.plan import build_plan
from repro.fabric.runtime import (
    FabricOptions,
    fabric_status,
    merge_reports_text,
    run_worker,
)
from repro.sim.cache import clear_stream_cache
from repro.testing import faults

IDS = ["table1", "fig5", "fig10"]
CONFIG = ExperimentConfig(
    benchmarks=("jpeg_play", "gcc"), trace_length=2000, chunk_size=512
)
CORRUPT_COUNTERS = (
    "stream_cache.disk_corrupt",
    "stream_cache.chunk_corrupt",
    "sweep_cache.disk_corrupt",
    "report_cache.disk_corrupt",
)
TTL_SECONDS = 1.0


def _options(fabric_dir, shard_id):
    return FabricOptions(
        shards=2,
        shard_id=shard_id,
        fabric_dir=fabric_dir,
        ttl_seconds=TTL_SECONDS,
        heartbeat_seconds=0.2,
        poll_seconds=0.05,
    )


def _worker_a(fabric_dir):
    # Stall inside the first claimed unit, so the kill lands mid-claim.
    runtime._compute_unit = lambda *args: time.sleep(600)
    run_worker(CONFIG, IDS, _options(fabric_dir, 0))


def _kill_at_first_lease(fabric_dir):
    context = multiprocessing.get_context("spawn")
    worker = context.Process(target=_worker_a, args=(fabric_dir,))
    worker.start()
    deadline = time.monotonic() + 120
    while not list((fabric_dir / "leases").glob("*.lease")):
        assert worker.is_alive(), "worker A exited before claiming anything"
        assert time.monotonic() < deadline, "worker A never claimed a unit"
        time.sleep(0.005)
    os.kill(worker.pid, signal.SIGKILL)
    worker.join(timeout=30)
    assert worker.exitcode == -signal.SIGKILL
    assert len(list((fabric_dir / "leases").glob("*.lease"))) == 1


def test_killed_worker_and_corrupt_entries_leave_a_golden_merge(tmp_path, monkeypatch):
    monkeypatch.delenv(faults.FAULT_SPEC_ENV, raising=False)
    monkeypatch.delenv("REPRO_CACHE_DISABLE", raising=False)
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "serial"))
    clear_stream_cache()
    golden = "".join(
        f"=== {r.experiment_id}: {r.description}\n{r.text}\n\n"
        for r in run_all_reports(CONFIG, experiment_ids=IDS, jobs=1)
    )

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "fabric-cache"))
    clear_stream_cache()
    fabric_dir = tmp_path / "fabric"
    _kill_at_first_lease(fabric_dir)

    monkeypatch.setenv(faults.FAULT_SPEC_ENV, "seed=3,corrupt_entry=0.5")
    faults.reset_fault_state()
    observability.reset_metrics()
    try:
        result = run_worker(CONFIG, IDS, _options(fabric_dir, 1))
        drops = sum(observability.counter_value(name) for name in CORRUPT_COUNTERS)
        steals = observability.counter_value("fabric.steals")
    finally:
        monkeypatch.delenv(faults.FAULT_SPEC_ENV)
        faults.reset_fault_state()
        clear_stream_cache()
        observability.reset_metrics()

    assert merge_reports_text(CONFIG, IDS) == golden
    units = len(build_plan(CONFIG, IDS).units)
    assert f"{units}/{units} units done" in fabric_status(CONFIG, IDS, fabric_dir)
    assert len(result.computed) == len(set(result.computed))
    assert drops >= 1
    assert steals == 1  # A's abandoned lease was taken over, not ignored
