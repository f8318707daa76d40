"""Fabric runtime: worker claim loop, report merge, single-host launch.

A worker is one process running :func:`run_worker` over the shared plan.
It repeatedly walks the unit list (rotated by shard id so shards start
their scans at different units), and for each unit either

* observes it **done** — its cache entries / report artifact already
  exist, published by this fleet or any earlier run (``fabric.warm_skips``
  when someone else did the work);
* observes its **deps unmet** and moves on;
* **claims** it through :func:`repro.fabric.leases.try_acquire_lease`
  and computes it under a heartbeat, with
  :func:`repro.utils.resilient.retry_call` retry semantics.

When a pass over the list neither completes nor claims anything, the
worker sleeps ``poll_seconds`` and rescans — that is how it waits for a
peer to finish a dependency, and how it eventually takes over a stale
lease.  Workers produce *only* filesystem artifacts (cache entries,
report JSONs, a metrics snapshot); stdout is reserved for the merge.

The merge (:func:`merge_reports_text`) folds the per-experiment report
artifacts in registry order into exactly the byte stream the serial
``repro run-all`` prints, at any shard count.
"""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro import observability
from repro.experiments.config import ExperimentConfig
from repro.fabric.leases import (
    DEFAULT_HEARTBEAT_SECONDS,
    DEFAULT_LEASE_TTL_SECONDS,
    read_lease,
    try_acquire_lease,
)
from repro.fabric.plan import (
    FabricPlan,
    WorkUnit,
    build_plan,
    compute_stream_unit,
    plan_digest,
    static_partition,
    stream_unit_done,
)
from repro.utils.resilient import retry_call

#: Version stamp of the on-disk fabric directory layout.
FABRIC_FORMAT = "repro-fabric/1"

#: Default seconds between rescans while waiting on peers.
DEFAULT_POLL_SECONDS = 0.2

#: Default ceiling on waiting for peers before a worker gives up.
DEFAULT_WAIT_TIMEOUT_SECONDS = 900.0


@dataclass(frozen=True)
class FabricOptions:
    """Execution knobs of one worker (never part of the plan identity)."""

    shards: int = 1
    shard_id: int = 0
    fabric_dir: Optional[Path] = None
    owner: Optional[str] = None
    ttl_seconds: float = DEFAULT_LEASE_TTL_SECONDS
    heartbeat_seconds: float = DEFAULT_HEARTBEAT_SECONDS
    poll_seconds: float = DEFAULT_POLL_SECONDS
    wait_timeout_seconds: float = DEFAULT_WAIT_TIMEOUT_SECONDS
    #: Static partition: only claim units this shard owns under the
    #: deterministic weighted assignment (:func:`repro.fabric.plan.static_partition`)
    #: and never steal.  Used by the critical-path benchmark, where each
    #: shard's work must be attributable to exactly one worker.
    no_steal: bool = False
    #: Restrict the pass to one unit kind (``"streams"`` / ``"reports"``).
    #: Lets the benchmark time the two layers as explicit phases.
    phase: Optional[str] = None

    def resolved_owner(self) -> str:
        return self.owner or f"shard{self.shard_id}"


@dataclass
class WorkerResult:
    """What one worker did, for gates and ``fabric status``."""

    owner: str
    computed: List[str] = field(default_factory=list)
    skipped_warm: List[str] = field(default_factory=list)
    seconds: float = 0.0


def default_fabric_dir(
    config: ExperimentConfig, experiment_ids: Sequence[str]
) -> Path:
    """Per-plan fabric directory under the shared cache root."""
    from repro.sim.diskcache import cache_root

    return cache_root() / "fabric" / plan_digest(config, experiment_ids)


def _leases_dir(fabric_dir: Path) -> Path:
    return fabric_dir / "leases"


def _reports_dir(fabric_dir: Path) -> Path:
    return fabric_dir / "reports"


def _metrics_dir(fabric_dir: Path) -> Path:
    return fabric_dir / "metrics"


def _report_path(fabric_dir: Path, experiment_id: str) -> Path:
    return _reports_dir(fabric_dir) / f"{experiment_id}.json"


def _unit_done(
    config: ExperimentConfig, fabric_dir: Path, unit: WorkUnit
) -> bool:
    if unit.kind == "stream":
        return stream_unit_done(config, unit)
    return _report_path(fabric_dir, unit.experiment_id).is_file()


def _write_json_atomic(path: Path, payload: Dict[str, object]) -> None:
    """Publish ``payload`` at ``path`` via tmp + rename (idempotent)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    tmp.write_text(
        json.dumps(payload, sort_keys=True, indent=2) + "\n",
        encoding="utf-8",
    )
    os.replace(tmp, path)


def _compute_report_unit(
    config: ExperimentConfig, fabric_dir: Path, unit: WorkUnit
) -> None:
    from repro.experiments.registry import run_experiment_report

    report = run_experiment_report(unit.experiment_id, config)
    _write_json_atomic(
        _report_path(fabric_dir, unit.experiment_id),
        {
            "experiment_id": report.experiment_id,
            "description": report.description,
            "text": report.text,
            "seconds": report.seconds,
        },
    )


def _compute_unit(
    config: ExperimentConfig, fabric_dir: Path, unit: WorkUnit
) -> None:
    if unit.kind == "stream":
        compute_stream_unit(config, unit)
    else:
        _compute_report_unit(config, fabric_dir, unit)


def _rotated(units: Sequence[WorkUnit], shard_id: int) -> List[WorkUnit]:
    if not units:
        return []
    pivot = shard_id % len(units)
    return list(units[pivot:]) + list(units[:pivot])


def _phase_units(plan: FabricPlan, phase: Optional[str]) -> Tuple[WorkUnit, ...]:
    if phase == "streams":
        return plan.stream_units
    if phase == "reports":
        return plan.report_units
    if phase is None:
        return plan.units
    raise ValueError(f"unknown fabric phase: {phase!r}")


def run_worker(
    config: ExperimentConfig,
    experiment_ids: Sequence[str],
    options: FabricOptions,
) -> WorkerResult:
    """Claim-and-compute loop of one shard; returns when its view is done.

    "Done" means every unit in the worker's phase either has its artifact
    on disk or — in ``no_steal`` mode — belongs to another shard's static
    partition (report phases still wait for foreign *deps* to land,
    bounded by ``wait_timeout_seconds``).
    """
    if options.shards < 1:
        raise ValueError("--shards must be >= 1")
    if not (0 <= options.shard_id < options.shards):
        raise ValueError("--shard-id must be in [0, --shards)")
    plan = build_plan(config, experiment_ids)
    fabric_dir = options.fabric_dir or default_fabric_dir(config, experiment_ids)
    fabric_dir.mkdir(parents=True, exist_ok=True)
    owner = options.resolved_owner()
    units = _phase_units(plan, options.phase)
    partition = (
        static_partition(plan, options.shards) if options.no_steal else {}
    )
    result = WorkerResult(owner=owner)
    start = time.perf_counter()

    done: Set[str] = set()
    # Dependencies may live outside the phase (a report phase depends on
    # stream units computed in an earlier phase); those are judged
    # directly against the cache rather than against this pass.
    def deps_met(unit: WorkUnit) -> bool:
        for dep in unit.deps:
            if dep in done:
                continue
            if _unit_done(config, fabric_dir, plan.unit(dep)):
                done.add(dep)
                continue
            return False
        return True

    def owned(unit: WorkUnit) -> bool:
        if not options.no_steal:
            return True
        return partition[unit.name] == options.shard_id

    pending = [unit for unit in _rotated(units, options.shard_id)]
    deadline = time.monotonic() + options.wait_timeout_seconds
    while pending:
        progressed = False
        remaining: List[WorkUnit] = []
        for unit in pending:
            if _unit_done(config, fabric_dir, unit):
                done.add(unit.name)
                if unit.name not in result.computed:
                    observability.increment("fabric.warm_skips")
                    result.skipped_warm.append(unit.name)
                progressed = True
                continue
            if not owned(unit):
                # Foreign partition: it is its shard's job; only its
                # absence from `done` can hold back our own reports.
                remaining.append(unit)
                continue
            if not deps_met(unit):
                remaining.append(unit)
                continue
            lease = try_acquire_lease(
                _leases_dir(fabric_dir) / f"{unit.name}.lease",
                owner,
                ttl_seconds=(float("inf") if options.no_steal else options.ttl_seconds),
                heartbeat_seconds=options.heartbeat_seconds,
            )
            if lease is None:
                remaining.append(unit)
                continue
            with lease:
                # The previous owner may have published and released
                # between our done-check and the claim.
                if _unit_done(config, fabric_dir, unit):
                    done.add(unit.name)
                    observability.increment("fabric.warm_skips")
                    result.skipped_warm.append(unit.name)
                else:
                    retry_call(
                        lambda: _compute_unit(config, fabric_dir, unit),
                        max_retries=config.max_retries,
                    )
                    done.add(unit.name)
                    result.computed.append(unit.name)
            progressed = True
        pending = remaining
        if not pending:
            break
        if progressed:
            deadline = time.monotonic() + options.wait_timeout_seconds
            continue
        if options.no_steal and all(not owned(unit) for unit in pending):
            # Everything left belongs to other static partitions, and no
            # owned unit is waiting on it (it would still be pending):
            # this shard is finished.
            break
        if time.monotonic() > deadline:
            names = ", ".join(unit.name for unit in pending)
            raise TimeoutError(
                f"fabric worker {owner} stalled waiting on peers for "
                f"{options.wait_timeout_seconds:.0f}s (pending: {names})"
            )
        time.sleep(options.poll_seconds)

    result.seconds = time.perf_counter() - start
    # Zero-fill the fabric taxonomy under the full counter snapshot, so
    # gates can sum claim/steal counters (and cache hit rates) across
    # workers without per-counter existence checks.
    counters: Dict[str, int] = {
        name: 0 for name in observability.FABRIC_TAXONOMY
    }
    counters.update(observability.snapshot()["counters"])
    metrics_name = (
        f"{owner}.{options.phase}.json" if options.phase else f"{owner}.json"
    )
    # The metrics file is named after this worker's unique owner id, so
    # no two workers can ever contend on it — it is per-worker state,
    # not a shared artifact, and needs no lease.
    _write_json_atomic(
        _metrics_dir(fabric_dir) / metrics_name,
        {
            "format": FABRIC_FORMAT,
            "owner": owner,
            "shard_id": options.shard_id,
            "shards": options.shards,
            "phase": options.phase,
            "seconds": result.seconds,
            "computed": sorted(result.computed),
            "skipped_warm": sorted(result.skipped_warm),
            "counters": counters,
        },
    )
    return result


def fabric_complete(
    config: ExperimentConfig,
    experiment_ids: Sequence[str],
    fabric_dir: Path,
) -> bool:
    """True when every report artifact of the plan has been published."""
    return all(
        _report_path(fabric_dir, experiment_id).is_file()
        for experiment_id in experiment_ids
    )


def merge_reports_text(
    experiment_ids: Sequence[str], fabric_dir: Path
) -> str:
    """Fold report artifacts in registry order, byte-identical to serial.

    The serial ``repro run-all`` prints, per report, a header line, the
    report text, and a blank line; this reproduces that stream exactly,
    so ``diff`` against a serial golden is the fabric's equivalence
    oracle.
    """
    pieces: List[str] = []
    for experiment_id in experiment_ids:
        path = _report_path(fabric_dir, experiment_id)
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except FileNotFoundError:
            raise FileNotFoundError(
                f"fabric merge: report artifact missing for "
                f"'{experiment_id}' ({path}); run more workers or "
                f"`repro fabric status` to see what is pending"
            ) from None
        pieces.append(
            f"=== {payload['experiment_id']}: {payload['description']}\n"
            f"{payload['text']}\n\n"
        )
    return "".join(pieces)


def fabric_status(
    config: ExperimentConfig,
    experiment_ids: Sequence[str],
    fabric_dir: Optional[Path] = None,
) -> str:
    """Human-readable per-unit state: done / leased(owner, age) / pending."""
    plan = build_plan(config, experiment_ids)
    directory = fabric_dir or default_fabric_dir(config, experiment_ids)
    lines = [f"fabric {plan_digest(config, experiment_ids)} at {directory}"]
    done = 0
    for unit in plan.units:
        if _unit_done(config, directory, unit):
            state = "done"
            done += 1
        else:
            info = read_lease(_leases_dir(directory) / f"{unit.name}.lease")
            if info is not None:
                state = (
                    f"leased by {info.owner} (pid {info.pid}, "
                    f"{info.age_seconds:.1f}s ago)"
                )
            else:
                state = "pending"
        lines.append(f"  {unit.name:<44} {state}")
    lines.append(f"{done}/{len(plan.units)} units done")
    return "\n".join(lines)


def write_plan_manifest(
    config: ExperimentConfig,
    experiment_ids: Sequence[str],
    fabric_dir: Path,
) -> Path:
    """Persist the plan inputs so spawned workers rebuild it bit-identically."""
    payload = {
        "format": FABRIC_FORMAT,
        "digest": plan_digest(config, experiment_ids),
        "config": dataclasses.asdict(config),
        "experiment_ids": list(experiment_ids),
    }
    path = fabric_dir / "plan.json"
    _write_json_atomic(path, payload)
    return path


def load_plan_manifest(path: Path) -> "Tuple[ExperimentConfig, List[str]]":
    """Reconstruct ``(config, experiment_ids)`` from a plan manifest."""
    payload = json.loads(path.read_text(encoding="utf-8"))
    raw = dict(payload["config"])
    raw["benchmarks"] = tuple(raw["benchmarks"])
    config = ExperimentConfig(**raw)
    ids = [str(item) for item in payload["experiment_ids"]]
    digest = plan_digest(config, ids)
    if digest != payload.get("digest"):
        raise ValueError(
            f"plan manifest digest mismatch at {path}: manifest says "
            f"{payload.get('digest')!r} but the rebuilt plan is {digest!r} "
            "(mixed fabric versions sharing a directory?)"
        )
    return config, ids


def launch_fabric(
    config: ExperimentConfig,
    experiment_ids: Sequence[str],
    *,
    workers: int,
    fabric_dir: Optional[Path] = None,
    options: Optional[FabricOptions] = None,
) -> str:
    """Single-host convenience: spawn ``workers`` shards, wait, merge.

    Each worker is a fresh ``repro fabric worker`` process pointed at the
    shared plan manifest; worker stdout is discarded (workers only write
    artifacts), and the parent prints nothing either — it *returns* the
    merged text so the CLI owns the printing.
    """
    if workers < 1:
        raise ValueError("--workers must be >= 1")
    base = options or FabricOptions()
    directory = fabric_dir or default_fabric_dir(config, experiment_ids)
    directory.mkdir(parents=True, exist_ok=True)
    manifest = write_plan_manifest(config, experiment_ids, directory)
    commands = [
        [
            sys.executable,
            "-m",
            "repro.cli",
            "fabric",
            "worker",
            "--plan",
            str(manifest),
            "--shards",
            str(workers),
            "--shard-id",
            str(shard_id),
            "--ttl-seconds",
            str(base.ttl_seconds),
            "--heartbeat-seconds",
            str(base.heartbeat_seconds),
            "--poll-seconds",
            str(base.poll_seconds),
            "--fabric-dir",
            str(directory),
        ]
        + (["--no-steal"] if base.no_steal else [])
        + (["--phase", base.phase] if base.phase else [])
        for shard_id in range(workers)
    ]
    procs = [
        subprocess.Popen(
            command,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
        )
        for command in commands
    ]
    failures: List[str] = []
    for shard_id, proc in enumerate(procs):
        _, stderr = proc.communicate()
        if proc.returncode != 0:
            tail = stderr.decode("utf-8", "replace").strip().splitlines()[-8:]
            failures.append(
                f"shard {shard_id} exited {proc.returncode}:\n  "
                + "\n  ".join(tail)
            )
    if failures and not fabric_complete(config, experiment_ids, directory):
        raise RuntimeError(
            "fabric launch failed and the plan is incomplete:\n"
            + "\n".join(failures)
        )
    return merge_reports_text(experiment_ids, directory)
