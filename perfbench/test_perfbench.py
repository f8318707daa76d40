"""Smoke tests of the benchmark harness.

    python3 -m pytest perfbench -q

The end-to-end tests run the real CLI on a two-benchmark, 4000-branch
input (about a minute in all on two cores); scratch state goes to a
temporary directory.
"""

from __future__ import annotations

import json
import math
import re
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import breakdown  # noqa: E402
import run  # noqa: E402

SPEC = run.load_spec()


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """The harness pointed at a small input and a private state directory."""
    saved = run.BENCHMARKS, run.LENGTH, run.STATE_DIR
    run.BENCHMARKS, run.LENGTH = ("jpeg_play", "gcc"), 4000
    run.STATE_DIR = tmp_path_factory.mktemp("perfbench-state")
    yield run
    run.BENCHMARKS, run.LENGTH, run.STATE_DIR = saved


def _units(kind):
    return {entry["name"]: entry["unit"] for entry in SPEC[kind]}


def test_spec_names_are_unique_and_bounded():
    names = [entry["name"] for kind in ("end_to_end", "per_layer") for entry in SPEC[kind]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name) for name in names)
    bounds = {entry["name"]: entry["bound"] for entry in SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25
    assert {entry["name"] for entry in SPEC["workloads"]} == set(run.WORKLOADS)


def test_end_to_end_metrics_are_emitted_with_units(smoke):
    result, _ = smoke.measure(smoke.WORKLOADS["runall-cold"], seed=5, seconds=0, traced=False)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    emitted = {name: entry["unit"] for name, entry in result["metrics"].items()}
    assert emitted == _units("end_to_end")
    assert all(entry["value"] > 0 for entry in result["metrics"].values())
    json.dumps(result)  # the result line is plain JSON


def test_traced_layers_plus_unattributed_equal_wall(smoke):
    result, summary = smoke.measure(
        smoke.WORKLOADS["runall-cold"], seed=5, seconds=0, traced=True
    )
    assert result["correct"], summary
    emitted = {name: entry["unit"] for name, entry in result["metrics"].items()}
    assert emitted == _units("per_layer")
    values = {name: entry["value"] for name, entry in result["metrics"].items()}
    layers = sum(values[name] for name in breakdown.SELF_METRICS.values())
    assert math.isclose(
        layers + values["trace.unattributed_s"], values["trace.wall_s"], abs_tol=1e-9
    )
    assert 0 <= values["trace.unattributed_s"] <= 0.05 * values["trace.wall_s"]
    assert values["workloads.synthesize.branches"] > 0
    assert values["sim.sweep.branches"] > 0
    assert values["dispatch.tasks"] == 0


def test_nonzero_exit_counts_as_failed(smoke):
    broken = smoke.Workload("broken", ("--jobs", "0"), warm=False)
    result, summary = smoke.measure(broken, seed=5, seconds=0, traced=False)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] == 1
    assert "exit code 1" in summary


def _report(ids, digit="5"):
    lines = []
    for experiment_id in ids:
        lines.append(f"=== {experiment_id}: something")
    lines += [
        f"suite misprediction rate: 7.{digit}% (paper: 3.85%)",
        "PC         captures  80.7% of mispredictions @ 20% (paper: 72%)",
        "BHR        captures  78.4% of mispredictions @ 20% (paper: 85%)",
        "BHRxorPC   captures  84.0% of mispredictions @ 20% (paper: 89%)",
        "4K gshare suite misprediction rate: 8.43% (paper: 8.6%)",
    ]
    return ("\n".join(lines) + "\n").encode("utf-8")


def test_tampered_report_counts_as_failed(tmp_path):
    state = run.RunState(seed=0, run_dir=tmp_path, experiment_ids=["fig2", "fig5"])
    good = run.Iteration(wall_s=1.0, peak_rss_mb=1.0, ok=True)
    run.check_report(state, _report(["fig2", "fig5"]), good)
    assert good.ok and state.expected_digest is not None
    assert good.paper_gap_pp == pytest.approx((3.65 + 8.7 + 6.6 + 5.0 + 0.17) / 5)

    tampered = run.Iteration(wall_s=1.0, peak_rss_mb=1.0, ok=True)
    run.check_report(state, _report(["fig2", "fig5"], digit="6"), tampered)
    assert not tampered.ok and "digest" in tampered.reason

    truncated = run.Iteration(wall_s=1.0, peak_rss_mb=1.0, ok=True)
    run.check_report(state, _report(["fig2"]), truncated)
    assert not truncated.ok


def test_self_times_subtract_child_spans():
    spans = [
        ["experiments", 0.0, 10.0, -1],
        ["sim.cache.load", 1.0, 5.0, 0],
        ["sim.sweep", 2.0, 4.0, 1],
        ["sim.cache.load", 2.5, 3.0, 2],
        ["analysis", 6.0, 7.0, 0],
    ]
    assert breakdown.self_times(spans) == pytest.approx(
        {"experiments": 5.0, "sim.cache.load": 2.5, "sim.sweep": 1.5, "analysis": 1.0}
    )
