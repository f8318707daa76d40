"""Work-unit planning: what a fabric fleet has to compute, and in what shape.

A ``repro run-all`` decomposes into two layers of cacheable work:

* **Stream units** — one per distinct predictor-sweep request (benchmark
  x predictor geometry x chunk range).  The gshare sweep carries state
  chunk-to-chunk, so one benchmark's chunk range is a single sequential
  unit (chunk ``k`` cannot start before ``k-1``); the fleet-level
  parallelism is *across* benchmarks and geometries, exactly like the
  in-process pool.  A unit is computed by
  :func:`repro.sim.cache.warm_stream_entries`, the function pool workers
  run too, and is done when every cell entry (or the monolithic entry)
  exists in the shared disk cache — the same ``has_disk_entry`` peek
  that keeps warm in-process runs pool-free.  Cells are shared across
  lengths, so in chunked mode a request whose cells a longer request of
  the same geometry holds is no unit of its own: it is folded into the
  longer one.
* **Report units** — one per registered experiment.  Computing a report
  replays the (now warm) stream tiers and folds statistics; its artifact
  is the report entry serial ``run-all`` writes too
  (:func:`repro.experiments.registry.store_report`, keyed by the
  config's result identity and the experiment id), so a fabric over a
  cache a serial run filled computes no report.

Report units depend on the stream units of the geometry they read, so
the claim scheduler never starts an experiment whose streams another
shard is still sweeping — that is what makes "every cold sweep computed
exactly once fleet-wide" hold even under work stealing.

The plan (unit list, dependency edges, unit order) is a pure function of
``(config, experiment ids)``; :func:`plan_digest` names the fabric
directory after those and the program digest, so two different runs, or
one run before and after a code edit, can never share leases.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any, Dict, List, Sequence, Tuple

from repro.experiments.ablation_trace_length import DEFAULT_LENGTHS
from repro.experiments.config import ExperimentConfig, result_identity
from repro.experiments.extension_pipeline import PIPELINE_TRACE_LENGTH
from repro.experiments.runner import _stream_request
from repro.sim.cache import cells_cover

#: Experiments that read the Section 5.3 small-predictor geometry in
#: addition to / instead of the default one.  Kept as data here (rather
#: than introspecting experiment modules) so the planner stays a pure
#: function; an experiment with a geometry the planner does not know
#: about still runs correctly — its report unit computes the missing
#: streams itself, privately, through the normal cache path.
SMALL_PREDICTOR_EXPERIMENTS = frozenset({"fig10", "extension-cost"})

#: Experiments whose report units read only the small-predictor streams.
SMALL_PREDICTOR_ONLY = frozenset({"fig10"})

#: The warmup ablation reads only the streams of its longest fixed trace
#: length, regardless of ``config.trace_length``: one grid pass over them
#: snapshots every shorter length (see ``ablation_trace_length``).
#: Planning them as stream units matters more than anything else in the
#: registry: the 160k-branch sweeps dominate a cold run-all, and as one
#: opaque report unit they would put the whole cost on a single shard.
TRACE_LENGTH_SWEEP_EXPERIMENT = "ablation-trace-length"
TRACE_LENGTH_SWEEP_LENGTH = max(DEFAULT_LENGTHS)

#: The pipeline experiment reads the default-geometry streams at its own
#: fixed length, planned as stream units; its SMT threads' 4K-gshare
#: sweeps stay private to its report unit.
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

    fixed_names: Dict[str, List[str]] = {}
    for experiment_id, length in (
        (TRACE_LENGTH_SWEEP_EXPERIMENT, TRACE_LENGTH_SWEEP_LENGTH),
        (PIPELINE_EXPERIMENT, PIPELINE_TRACE_LENGTH),
    ):
        if experiment_id not in experiment_ids:
            continue
        scaled = config.scaled(trace_length=length)
        fixed_names[experiment_id] = []
        for benchmark in config.benchmarks:
            request = _stream_request(scaled, benchmark)
            name = _stream_unit(request).name
            fixed_names[experiment_id].append(name)
            if name not in seen:
                seen[name] = True
                requests.append(request)

    deps: Dict[str, List[str]] = {}
    for experiment_id in experiment_ids:
        if experiment_id in fixed_names:
            # Fixed-length experiments never read the configured length.
            deps[experiment_id] = fixed_names[experiment_id]
        elif experiment_id in SMALL_PREDICTOR_ONLY:
            deps[experiment_id] = list(small_names)
        elif experiment_id in SMALL_PREDICTOR_EXPERIMENTS:
            deps[experiment_id] = list(default_names) + list(small_names)
        else:
            deps[experiment_id] = list(default_names)
    if config.chunk_size is not None:
        return _fold_covered_requests(requests, deps)
    return requests, deps


def _length(request: Dict[str, object]) -> int:
    length = request["length"]
    assert isinstance(length, int)
    return length


def _fold_covered_requests(
    requests: List[Dict[str, object]], deps: Dict[str, List[str]]
) -> "Tuple[List[Dict[str, object]], Dict[str, List[str]]]":
    """Drop each chunked request whose cells a longer one of its geometry holds.

    Chunked streams are stored as cells shared across lengths
    (:func:`repro.sim.cache.cells_cover`), so such a request is done the
    moment the longer unit is; as a unit of its own it would only ever
    be warm-skipped.  Its dependents wait on the longer unit instead.
    """

    def geometry(request: Dict[str, object]) -> Dict[str, object]:
        return {key: value for key, value in request.items() if key != "length"}

    kept: List[Dict[str, object]] = []
    covering: Dict[str, str] = {}
    for request in sorted(requests, key=lambda request: -_length(request)):
        cover = next(
            (
                held for held in kept
                if geometry(held) == geometry(request)
                and cells_cover(_length(request), _length(held))
            ),
            request,
        )
        if cover is request:
            kept.append(request)
        covering[_stream_unit(request).name] = _stream_unit(cover).name
    folded = {
        experiment_id: list(dict.fromkeys(covering.get(name, name) for name in names))
        for experiment_id, names in deps.items()
    }
    return [request for request in requests if any(request is held for held in kept)], folded


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

    Built on :func:`~repro.experiments.config.result_identity`.  The
    execution knobs that cannot change any artifact byte (jobs, retry
    budget, timeouts) are excluded, so a 3-worker fleet and a later
    ``--shards 1`` resume land in the same directory; every
    result-relevant field (suite, lengths, seeds, geometry, chunk size)
    and the program digest are included, so nothing can alias, and a
    run after a code edit (a new plan layout included) starts a fresh
    directory.
    """
    payload = result_identity(config)
    payload["experiment_ids"] = list(experiment_ids)
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
    "ablation-trace-length": 2.1,   # one pass over the 160k streams
    "ablation-suite-seed": 2.05,
    "extension-pipeline": 1.4,      # private 4K-gshare 40k sweeps
    "extension-cost": 0.6,
    "extension-metrics": 0.6,
    "fig6": 0.5,
    "fig5": 0.45,
    "fig7": 0.4,
    "ablation-indexing": 0.35,
    "extension-crossval": 0.35,
    "fig11": 0.3,
    "fig10": 0.25,
    "fig8": 0.2,
    "fig2": 0.2,
    "fig9": 0.15,
    "extension-multilevel": 0.15,
    "ablation-counter-width": 0.1,
    "ablation-context-switch": 0.1,
    "table1": 0.1,
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
