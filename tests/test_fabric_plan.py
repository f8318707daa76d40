"""Plan construction: unit identity, dependency wiring, static partition."""

from repro.experiments.config import ExperimentConfig
from repro.experiments.extension_pipeline import PIPELINE_TRACE_LENGTH
from repro.experiments.registry import list_experiments
from repro.fabric.plan import (
    TRACE_LENGTH_SWEEP_LENGTHS,
    build_plan,
    plan_digest,
    static_partition,
    unit_weight,
)

CONFIG = ExperimentConfig(
    benchmarks=("jpeg_play", "gcc"), trace_length=2000, chunk_size=1024
)
IDS = ["table1", "fig5", "fig10"]


def test_streams_precede_reports_in_plan_order():
    plan = build_plan(CONFIG, IDS)
    kinds = [unit.kind for unit in plan.units]
    assert kinds == sorted(kinds, key=lambda k: k != "stream")
    assert [u.experiment_id for u in plan.report_units] == IDS


def test_small_geometry_experiments_depend_on_small_streams():
    from repro.experiments.runner import _stream_request

    plan = build_plan(CONFIG, IDS)
    default_requests = [
        _stream_request(CONFIG, name) for name in CONFIG.benchmarks
    ]
    default_names = {
        u.name for u in plan.stream_units if u.request in default_requests
    }
    by_id = {u.experiment_id: u for u in plan.report_units}
    # fig10 reads *only* the Section 5.3 small predictor.
    assert set(by_id["fig10"].deps).isdisjoint(default_names)
    assert len(by_id["fig10"].deps) == len(CONFIG.benchmarks)
    # Default-geometry experiments never wait on the small streams.
    assert set(by_id["fig5"].deps) == default_names


def test_trace_length_ablation_plans_its_fixed_sweeps():
    ids = ["table1", "ablation-trace-length"]
    plan = build_plan(CONFIG, ids)
    ablation = next(
        u for u in plan.report_units
        if u.experiment_id == "ablation-trace-length"
    )
    # One stream unit per (fixed length x benchmark), and the ablation
    # depends on exactly those — never on the configured trace length.
    sweep_units = [
        u for u in plan.stream_units
        if u.request["length"] in TRACE_LENGTH_SWEEP_LENGTHS
    ]
    expected = len(TRACE_LENGTH_SWEEP_LENGTHS) * len(CONFIG.benchmarks)
    assert len(sweep_units) == expected
    assert set(ablation.deps) == {u.name for u in sweep_units}


def test_pipeline_waits_on_the_fixed_length_streams_it_reads():
    from repro.experiments.runner import _stream_request

    ids = ["ablation-trace-length", "extension-pipeline"]
    plan = build_plan(CONFIG, ids)
    pipeline = CONFIG.scaled(trace_length=PIPELINE_TRACE_LENGTH)
    expected = {
        u.name for u in plan.stream_units
        if u.request in [_stream_request(pipeline, b) for b in CONFIG.benchmarks]
    }
    by_id = {u.experiment_id: u for u in plan.report_units}
    assert len(expected) == len(CONFIG.benchmarks)
    assert set(by_id["extension-pipeline"].deps) == expected
    # Without the warmup ablation those streams are not units: the
    # pipeline's report unit sweeps them itself.
    alone = build_plan(CONFIG, ["extension-pipeline"])
    assert alone.report_units[0].deps == ()


def test_plan_digest_ignores_execution_knobs_only():
    base = plan_digest(CONFIG, IDS)
    assert plan_digest(CONFIG.scaled(jobs=8), IDS) == base
    assert plan_digest(CONFIG.scaled(max_retries=5), IDS) == base
    assert plan_digest(CONFIG.scaled(trace_length=4000), IDS) != base
    assert plan_digest(CONFIG.scaled(chunk_size=None), IDS) != base
    assert plan_digest(CONFIG.scaled(seed=CONFIG.seed + 1), IDS) != base
    assert plan_digest(CONFIG, IDS + ["fig6"]) != base


def test_full_registry_plan_is_buildable():
    ids = [experiment.id for experiment in list_experiments()]
    plan = build_plan(CONFIG, ids)
    assert len(plan.report_units) == len(ids)
    assert len({u.name for u in plan.units}) == len(plan.units)
    for report in plan.report_units:
        known = {u.name for u in plan.stream_units}
        assert set(report.deps) <= known


def test_static_partition_covers_every_unit_deterministically():
    plan = build_plan(CONFIG, [e.id for e in list_experiments()])
    assignment = static_partition(plan, 3)
    assert set(assignment) == {u.name for u in plan.units}
    assert set(assignment.values()) <= {0, 1, 2}
    assert static_partition(plan, 3) == assignment
    # Weighted balance: within each kind no shard should be idle while
    # another carries everything (LPT bound: max <= 2x the mean).
    for units in (plan.stream_units, plan.report_units):
        loads = [0.0, 0.0, 0.0]
        for unit in units:
            loads[assignment[unit.name]] += unit_weight(unit)
        assert max(loads) <= 2.0 * (sum(loads) / 3.0)
