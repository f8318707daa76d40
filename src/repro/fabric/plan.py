"""Work-unit planning: what a fabric fleet has to compute, and in what shape.

A ``repro run-all`` decomposes into two layers of cacheable work:

* **Stream units** — one per distinct predictor-sweep request (benchmark
  x predictor geometry x chunk range).  The gshare sweep carries state
  chunk-to-chunk, so one benchmark's chunk range is a single sequential
  unit (chunk ``k`` cannot start before ``k-1``); the fleet-level
  parallelism is *across* benchmarks and geometries, exactly like the
  in-process pool.  A stream unit is done when every chunk entry (or the
  monolithic entry) exists in the shared disk cache — the same
  ``has_disk_entry`` peek that keeps warm in-process runs pool-free.
* **Report units** — one per registered experiment.  Computing a report
  replays the (now warm) stream tiers and folds statistics; its artifact
  is a verified entry of the :mod:`repro.sim.diskcache` store in the
  fabric directory, keyed by the plan digest and the experiment id.

Report units depend on the stream units of the geometry they read, so
the claim scheduler never starts an experiment whose streams another
shard is still sweeping — that is what makes "every cold sweep computed
exactly once fleet-wide" hold even under work stealing.

The plan (unit list, dependency edges, unit order) is a pure function of
``(config, experiment ids)``; :func:`plan_digest` names the fabric
directory so two different runs can never share leases or artifacts.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass
from typing import Any, Dict, List, Sequence, Tuple

from repro.experiments.config import ExperimentConfig
from repro.experiments.extension_pipeline import PIPELINE_TRACE_LENGTH
from repro.experiments.runner import _stream_request
from repro.sim.cache import has_disk_entry

#: Bump when the plan layout (unit naming, artifact layout) changes; the
#: digest then changes, so mixed-version fleets never share a directory.
FABRIC_PLAN_FORMAT = 2

#: Experiments that read the Section 5.3 small-predictor geometry in
#: addition to / instead of the default one.  Kept as data here (rather
#: than introspecting experiment modules) so the planner stays a pure
#: function; an experiment with a geometry the planner does not know
#: about still runs correctly — its report unit computes the missing
#: streams itself, privately, through the normal cache path.
SMALL_PREDICTOR_EXPERIMENTS = frozenset({"fig10", "extension-cost"})

#: Experiments whose report units read only the small-predictor streams.
SMALL_PREDICTOR_ONLY = frozenset({"fig10"})

#: The warmup ablation sweeps these fixed trace lengths regardless of
#: ``config.trace_length`` (see ``ablation_trace_length.DEFAULT_LENGTHS``).
#: Planning them as stream units matters more than anything else in the
#: registry: the 160k-branch sweeps dominate a cold run-all, and as one
#: opaque report unit they would put the whole cost on a single shard.
TRACE_LENGTH_SWEEP_EXPERIMENT = "ablation-trace-length"
TRACE_LENGTH_SWEEP_LENGTHS = (20_000, 40_000, 80_000, 160_000)

#: The pipeline experiment reads the default-geometry streams at its own
#: fixed length, which the warmup ablation's sweep also plans as stream
#: units; its SMT threads' 4K-gshare sweeps stay private to its report
#: unit.
PIPELINE_EXPERIMENT = "extension-pipeline"


@dataclass(frozen=True)
class WorkUnit:
    """One claimable unit of fleet work.

    ``kind`` is ``"stream"`` (payload: a sweep-request dict) or
    ``"report"`` (payload: an experiment id).  ``name`` doubles as the
    lease file name; ``deps`` names units that must be done before this
    one may be claimed.
    """

    kind: str
    name: str
    payload: Tuple[Tuple[str, object], ...]
    deps: Tuple[str, ...] = ()

    @property
    def request(self) -> Dict[str, Any]:
        """The payload as the keyword dict the cache layer consumes.

        Typed ``Any``-valued because it is ``**``-unpacked into the
        cache layer's fully-annotated keyword signatures.
        """
        return dict(self.payload)

    @property
    def experiment_id(self) -> str:
        assert self.kind == "report"
        return str(dict(self.payload)["experiment_id"])


def _request_token(request: Dict[str, object]) -> str:
    canonical = json.dumps(request, sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:12]


def _stream_unit(request: Dict[str, object]) -> WorkUnit:
    name = f"stream-{request['benchmark']}-{_request_token(request)}"
    return WorkUnit(
        kind="stream",
        name=name,
        payload=tuple(sorted(request.items())),
    )


@dataclass(frozen=True)
class FabricPlan:
    """The full unit list of one fabric run, in canonical order."""

    config: ExperimentConfig
    experiment_ids: Tuple[str, ...]
    units: Tuple[WorkUnit, ...]

    @property
    def stream_units(self) -> Tuple[WorkUnit, ...]:
        return tuple(unit for unit in self.units if unit.kind == "stream")

    @property
    def report_units(self) -> Tuple[WorkUnit, ...]:
        return tuple(unit for unit in self.units if unit.kind == "report")

    def unit(self, name: str) -> WorkUnit:
        for unit in self.units:
            if unit.name == name:
                return unit
        raise KeyError(name)


def _geometry_requests(
    config: ExperimentConfig, experiment_ids: Sequence[str]
) -> "Tuple[List[Dict[str, object]], Dict[str, List[str]]]":
    """Distinct stream requests plus the per-experiment dependency map."""
    default_requests = [
        _stream_request(config, name) for name in config.benchmarks
    ]
    small = config.small_predictor
    small_requests = [
        _stream_request(small, name) for name in config.benchmarks
    ]
    default_names = [_stream_unit(r).name for r in default_requests]
    small_names = [_stream_unit(r).name for r in small_requests]

    requests: List[Dict[str, object]] = []
    seen: Dict[str, bool] = {}
    needs_small = any(
        experiment_id in SMALL_PREDICTOR_EXPERIMENTS
        for experiment_id in experiment_ids
    )
    for request, name in zip(default_requests, default_names):
        if name not in seen:
            seen[name] = True
            requests.append(request)
    if needs_small:
        for request, name in zip(small_requests, small_names):
            if name not in seen:
                seen[name] = True
                requests.append(request)

    sweep_names: List[str] = []
    if TRACE_LENGTH_SWEEP_EXPERIMENT in experiment_ids:
        for length in TRACE_LENGTH_SWEEP_LENGTHS:
            scaled = config.scaled(trace_length=length)
            for benchmark in config.benchmarks:
                request = _stream_request(scaled, benchmark)
                name = _stream_unit(request).name
                sweep_names.append(name)
                if name not in seen:
                    seen[name] = True
                    requests.append(request)

    deps: Dict[str, List[str]] = {}
    for experiment_id in experiment_ids:
        if experiment_id == TRACE_LENGTH_SWEEP_EXPERIMENT:
            # The warmup ablation reads only its fixed-length sweeps,
            # never the configured trace length.
            deps[experiment_id] = list(sweep_names)
        elif experiment_id == PIPELINE_EXPERIMENT:
            # Only planned when the warmup ablation is in the run; the
            # plan drops deps on units it does not hold.
            pipeline = config.scaled(trace_length=PIPELINE_TRACE_LENGTH)
            deps[experiment_id] = [
                _stream_unit(_stream_request(pipeline, benchmark)).name
                for benchmark in config.benchmarks
            ]
        elif experiment_id in SMALL_PREDICTOR_ONLY:
            deps[experiment_id] = list(small_names)
        elif experiment_id in SMALL_PREDICTOR_EXPERIMENTS:
            deps[experiment_id] = list(default_names) + list(small_names)
        else:
            deps[experiment_id] = list(default_names)
    return requests, deps


def build_plan(
    config: ExperimentConfig, experiment_ids: Sequence[str]
) -> FabricPlan:
    """The canonical unit list for ``(config, experiment_ids)``.

    Stream units come first (they are the expensive, widely shared
    work), then report units in registry order.  The order is part of
    the plan's identity: workers rotate over it by shard id so claim
    traffic spreads instead of stampeding unit 0.
    """
    requests, deps = _geometry_requests(config, experiment_ids)
    units: List[WorkUnit] = [_stream_unit(request) for request in requests]
    known = {unit.name for unit in units}
    for experiment_id in experiment_ids:
        unit_deps = tuple(
            name for name in deps.get(experiment_id, []) if name in known
        )
        units.append(
            WorkUnit(
                kind="report",
                name=f"report-{experiment_id}",
                payload=(("experiment_id", experiment_id),),
                deps=unit_deps,
            )
        )
    return FabricPlan(
        config=config,
        experiment_ids=tuple(experiment_ids),
        units=tuple(units),
    )


def plan_digest(
    config: ExperimentConfig, experiment_ids: Sequence[str]
) -> str:
    """Content digest naming the fabric directory of one plan.

    Execution-only knobs that cannot change any artifact byte (jobs,
    retry budget, timeouts) are excluded, so a 3-worker fleet
    and a later ``--shards 1`` resume land in the same directory; every
    result-relevant field (suite, lengths, seeds, geometry, chunk size)
    is included, so nothing can alias.
    """
    payload = dataclasses.asdict(config)
    for execution_knob in ("jobs", "max_retries", "task_timeout"):
        del payload[execution_knob]
    payload["experiment_ids"] = list(experiment_ids)
    payload["format"] = FABRIC_PLAN_FORMAT
    canonical = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


#: Relative cost hints for report units, in seconds at the gate's scale
#: (``benchmarks/fabric_gate.py``: 4 benchmarks x 12,288 branches, chunk
#: size 1024): the median of three fresh-process runs of each experiment
#: over a cache holding every stream unit and no sweep results, on a
#: 2-vCPU host.  Scheduling hints ONLY: the static (no-steal) partition
#: uses them to balance shards, and a wrong weight costs balance, never
#: correctness — every unit still computes exactly once wherever it
#: lands.  Unlisted experiments get :data:`DEFAULT_REPORT_WEIGHT`.
REPORT_WEIGHTS: Dict[str, float] = {
    "ablation-trace-length": 4.35,  # fixed 20k-160k grids, length-invariant
    "ablation-suite-seed": 3.5,
    "extension-pipeline": 1.75,     # private 4K-gshare 40k sweeps
    "extension-cost": 1.05,
    "extension-metrics": 0.9,
    "fig5": 0.55,
    "ablation-indexing": 0.55,
    "fig6": 0.55,
    "fig11": 0.55,
    "fig7": 0.5,
    "extension-crossval": 0.4,
    "fig2": 0.3,
    "fig8": 0.25,
    "ablation-counter-width": 0.25,
    "ablation-context-switch": 0.2,
    "fig10": 0.2,
    "fig9": 0.2,
    "extension-multilevel": 0.2,
    "table1": 0.15,
}

DEFAULT_REPORT_WEIGHT = 0.5


def unit_weight(unit: WorkUnit) -> float:
    """Relative cost of one unit within its kind (see REPORT_WEIGHTS)."""
    if unit.kind == "stream":
        # The gshare sweep is linear in trace length; geometry barely
        # matters next to it.
        return float(dict(unit.payload)["length"])  # type: ignore[arg-type]
    return REPORT_WEIGHTS.get(unit.experiment_id, DEFAULT_REPORT_WEIGHT)


def static_partition(plan: FabricPlan, shards: int) -> Dict[str, int]:
    """Deterministic weighted (LPT-greedy) unit-to-shard assignment.

    Used by no-steal mode, where each unit must be attributable to
    exactly one shard up front.  Stream and report units are balanced
    *independently* — the two-phase execution barriers on each kind, so
    the fleet's wall clock is the max shard within each kind, not across
    the mix.  Ties (equal weights, equal loads) resolve by plan order
    and lowest shard id, so every worker computes the same assignment.
    """
    assignment: Dict[str, int] = {}
    for units in (plan.stream_units, plan.report_units):
        loads = [0.0] * shards
        ordered = sorted(
            range(len(units)), key=lambda i: (-unit_weight(units[i]), i)
        )
        for index in ordered:
            shard = min(range(shards), key=lambda s: (loads[s], s))
            assignment[units[index].name] = shard
            loads[shard] += unit_weight(units[index])
    return assignment


def stream_unit_done(config: ExperimentConfig, unit: WorkUnit) -> bool:
    """True when every cache entry of a stream unit is already on disk."""
    return has_disk_entry(chunk_size=config.chunk_size, **unit.request)


def compute_stream_unit(config: ExperimentConfig, unit: WorkUnit) -> None:
    """Sweep one stream unit into the shared disk cache.

    Draining the unit's stream chunks sweeps and stores every missing
    entry: a chunked config resumes after any warm prefix and holds one
    chunk at a time, and a ``None`` chunk size is one whole-trace chunk
    persisted exactly like a pool worker would.
    """
    from repro.sim.cache import iter_cached_stream_chunks

    for _ in iter_cached_stream_chunks(
        chunk_size=config.chunk_size, **unit.request
    ):
        pass
