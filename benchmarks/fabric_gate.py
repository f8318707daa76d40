"""Sharded-fabric speedup + equivalence gate.

Runs the full experiment registry twice against cold caches:

1. **Serial baseline** — one ``repro run-all`` subprocess; its stdout is
   the golden byte stream and its wall time the denominator.
2. **Fabric** — :data:`WORKERS` shards in no-steal static partition, each
   a fresh ``repro fabric worker`` subprocess, in two explicit phases
   (``streams`` then ``reports``, because a shard's reports may read
   stream units owned by its peers).  Every shard's wall time is
   measured separately and the fleet wall is scored as the *critical
   path*: ``max(stream walls) + max(report walls) + merge``.

The critical-path score is a **model**, not a measured fleet wall: on a
single-core CI box, running three workers concurrently just timeslices
one core and measures nothing, while the per-shard walls are what
concurrent shards would each pay on real hardware — the max over shards
plus the barrier between phases models the fleet's wall clock.  The gate
prints every per-shard wall, so the modelled score can be audited rather
than trusted.  (CI's ``fabric`` job separately runs a genuinely
concurrent ``repro fabric launch`` for the byte-equivalence assert; this
gate is about attribution and speedup.)

The gate FAILS unless:

* the fabric merge is byte-identical to the serial golden stdout,
* every work unit was computed exactly once fleet-wide (asserted from
  the per-worker ``fabric.claims`` counters and computed-unit lists),
* the modelled critical-path speedup reaches :data:`SPEEDUP_FLOOR`.

Usage (exits non-zero on gate failure)::

    PYTHONPATH=src python benchmarks/fabric_gate.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path
from typing import Dict, List

from repro.experiments.config import DEFAULT_CONFIG
from repro.experiments.registry import list_experiments
from repro.fabric.plan import build_plan
from repro.fabric.runtime import merge_reports_text, write_plan_manifest

#: Modelled critical-path speedup the fabric must reach over the serial
#: baseline.
SPEEDUP_FLOOR = 1.8

#: Fabric shards, one ``repro fabric worker`` subprocess each per phase.
WORKERS = 3

#: Configuration both the serial and the fabric run use.
BENCHMARKS = ("jpeg_play", "gcc", "mpeg_play", "nroff")
LENGTH = 12_288
CHUNK_SIZE = 1024


def _run(command: List[str], env: Dict[str, str]) -> "Dict[str, object]":
    started = time.perf_counter()
    completed = subprocess.run(
        command, env=env, capture_output=True, text=True
    )
    seconds = time.perf_counter() - started
    if completed.returncode != 0:
        tail = "\n".join(completed.stderr.strip().splitlines()[-10:])
        raise RuntimeError(
            f"command failed ({completed.returncode}): {' '.join(command)}\n{tail}"
        )
    return {"seconds": seconds, "stdout": completed.stdout}


def main() -> int:
    config = DEFAULT_CONFIG.scaled(
        benchmarks=BENCHMARKS, trace_length=LENGTH, chunk_size=CHUNK_SIZE
    )
    ids = [experiment.id for experiment in list_experiments()]
    plan = build_plan(config, ids)
    config_flags = [
        "--benchmarks",
        *config.benchmarks,
        "--length",
        str(config.trace_length),
        "--chunk-size",
        str(config.chunk_size),
    ]
    cli = [sys.executable, "-m", "repro.cli"]

    with tempfile.TemporaryDirectory() as serial_cache, tempfile.TemporaryDirectory() as fabric_cache:
        serial_env = dict(os.environ, REPRO_CACHE_DIR=serial_cache)
        serial = _run(cli + ["run-all"] + config_flags, serial_env)
        golden = serial["stdout"]

        fabric_env = dict(os.environ, REPRO_CACHE_DIR=fabric_cache)
        fabric_dir = Path(fabric_cache) / "fabric-gate"
        fabric_dir.mkdir(parents=True)
        manifest = write_plan_manifest(config, ids, fabric_dir)
        shard_walls: Dict[str, Dict[str, float]] = {
            phase: {} for phase in ("streams", "reports")
        }
        for phase in ("streams", "reports"):
            for shard_id in range(WORKERS):
                worker = _run(
                    cli
                    + [
                        "fabric",
                        "worker",
                        "--plan",
                        str(manifest),
                        "--fabric-dir",
                        str(fabric_dir),
                        "--shards",
                        str(WORKERS),
                        "--shard-id",
                        str(shard_id),
                        "--no-steal",
                        "--phase",
                        phase,
                    ],
                    fabric_env,
                )
                shard_walls[phase][f"shard{shard_id}"] = worker["seconds"]

        # The workers' report entries live in the fabric cache's store.
        os.environ["REPRO_CACHE_DIR"] = fabric_cache
        merge_started = time.perf_counter()
        merged = merge_reports_text(config, ids)
        merge_seconds = time.perf_counter() - merge_started

        computed: "Counter[str]" = Counter()
        total_claims = 0
        total_steals = 0
        for metrics_path in sorted((fabric_dir / "metrics").glob("*.json")):
            payload = json.loads(metrics_path.read_text(encoding="utf-8"))
            computed.update(payload["computed"])
            counters = payload["counters"]
            total_claims += counters.get("fabric.claims", 0)
            total_steals += counters.get("fabric.steals", 0)

    identical = merged == golden
    unit_names = [unit.name for unit in plan.units]
    duplicates = sorted(name for name, count in computed.items() if count > 1)
    missing = sorted(set(unit_names) - set(computed))
    exactly_once = (
        not duplicates and not missing and total_claims == len(unit_names)
    )

    stream_wall = max(shard_walls["streams"].values())
    report_wall = max(shard_walls["reports"].values())
    fabric_seconds = stream_wall + report_wall + merge_seconds
    speedup = serial["seconds"] / fabric_seconds
    passed = identical and exactly_once and speedup >= SPEEDUP_FLOOR

    for phase in ("streams", "reports"):
        walls = " ".join(
            f"{owner} {seconds:.2f}s"
            for owner, seconds in sorted(shard_walls[phase].items())
        )
        print(f"fabric gate: {phase:8s} {walls}")
    print(
        f"fabric gate: serial {serial['seconds']:.2f}s -> modelled critical "
        f"path {fabric_seconds:.2f}s ({speedup:.2f}x modelled, floor "
        f"{SPEEDUP_FLOOR:.1f}x); merge {merge_seconds:.3f}s"
    )
    print(
        f"fabric gate: merge byte-identical: {identical}; "
        f"{len(unit_names)} units, {total_claims} claims, "
        f"{total_steals} steals, exactly-once: {exactly_once} -> "
        f"{'PASS' if passed else 'FAIL'}"
    )
    if duplicates:
        print(f"fabric gate: computed more than once: {', '.join(duplicates)}")
    if missing:
        print(f"fabric gate: never computed: {', '.join(missing)}")
    return 0 if passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
