"""Sharded run fabric: cache-mediated work claiming across processes.

``repro run-all --shards N --shard-id i`` turns a full-registry run into
one of ``N`` cooperating worker processes.  Workers never talk to each
other directly — coordination happens entirely through the filesystem
they already share:

* the **content-keyed disk cache** (:mod:`repro.sim.diskcache`) is the
  artifact store: a work unit is *done* exactly when its cache entries
  exist (the same cheap peek the parallel runner uses) or its report
  entry, the one serial ``run-all`` writes too, loads and verifies, so
  warm units are skipped fleet-wide;
* **atomic lease files** (:mod:`repro.fabric.leases`) make cold units
  exclusive: a worker claims a unit by ``O_EXCL``-creating its lease, and
  a straggler's abandoned lease is taken over by any peer once its
  heartbeat goes stale (work stealing);
* the **merge** (:mod:`repro.fabric.runtime`) folds per-experiment
  report entries in registry order, so the combined output is
  byte-identical to a serial ``repro run-all`` at any shard count.

The package splits into :mod:`~repro.fabric.leases` (claim protocol),
:mod:`~repro.fabric.plan` (work-unit planning over the experiment
registry), and :mod:`~repro.fabric.runtime` (worker loop, merge, and the
single-host ``repro fabric launch`` convenience mode).
"""

from __future__ import annotations

from repro.fabric.leases import Lease, LeaseInfo, try_acquire_lease
from repro.fabric.plan import FabricPlan, WorkUnit, build_plan, plan_digest
from repro.fabric.runtime import (
    FabricOptions,
    fabric_status,
    launch_fabric,
    merge_reports_text,
    run_worker,
)

__all__ = [
    "FabricOptions",
    "FabricPlan",
    "Lease",
    "LeaseInfo",
    "WorkUnit",
    "build_plan",
    "fabric_status",
    "launch_fabric",
    "merge_reports_text",
    "plan_digest",
    "run_worker",
    "try_acquire_lease",
]
