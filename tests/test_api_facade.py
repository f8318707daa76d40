"""Tests for the stable high-level facade (repro.api)."""

import ast
import inspect
from pathlib import Path

import numpy as np
import pytest

import repro
from repro import api
from repro.experiments.config import ExperimentConfig


class TestSurface:
    def test_reexported_from_package_root(self):
        for name in api.__all__:
            assert name in repro.__all__
            assert getattr(repro, name) is getattr(api, name)

    def test_no_private_facade_imports(self):
        # Only the names __all__ declares are stable; an import of any
        # other facade name from src/ or examples/ would freeze an
        # internal helper into the contract.
        root = Path(__file__).resolve().parents[1]
        private = [
            f"{path.relative_to(root)}:{node.lineno}: {alias.name}"
            for tree in ("src", "examples")
            for path in sorted((root / tree).rglob("*.py"))
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.ImportFrom) and node.module == "repro.api"
            for alias in node.names
            if alias.name != "*" and alias.name not in api.__all__
        ]
        assert private == []

    def test_options_are_keyword_only(self):
        for function, positional in (
            (api.run_experiment, ["experiment_id"]),
            (api.predictor_streams, ["benchmark"]),
            (api.confidence_curve, ["benchmark"]),
        ):
            signature = inspect.signature(function)
            for name, parameter in signature.parameters.items():
                if name in positional:
                    continue
                assert parameter.kind == inspect.Parameter.KEYWORD_ONLY, (
                    f"{function.__name__}({name}) must be keyword-only"
                )

    def test_every_entry_point_documented(self):
        for name in api.__all__:
            doc = getattr(api, name).__doc__
            assert doc and len(doc.strip()) > 40, f"{name} needs a docstring"


class TestListExperiments:
    def test_ids_and_descriptions(self):
        experiments = api.list_experiments()
        ids = [experiment_id for experiment_id, _ in experiments]
        assert "fig5" in ids and "table1" in ids
        assert all(description for _, description in experiments)


class TestRunExperiment:
    def test_runs_with_overrides(self):
        result = api.run_experiment(
            "fig5", trace_length=6_000, benchmarks=("jpeg_play",)
        )
        assert "BHRxorPC" in result.format()

    def test_unknown_id_raises(self):
        with pytest.raises(KeyError):
            api.run_experiment("fig99")

    def test_explicit_config_plus_override(self):
        config = ExperimentConfig(
            benchmarks=("jpeg_play", "gcc"), trace_length=6_000
        )
        result = api.run_experiment("fig2", config=config, benchmarks=("gcc",))
        assert "gcc" in result.format() or result is not None

    def test_chunk_size_does_not_change_result(self):
        reference = api.run_experiment(
            "fig5", trace_length=6_000, benchmarks=("jpeg_play",)
        )
        candidate = api.run_experiment(
            "fig5", trace_length=6_000, benchmarks=("jpeg_play",),
            chunk_size=777,
        )
        assert reference.format() == candidate.format()


class TestPredictorStreams:
    def test_streams_shape_and_chunk_invariance(self):
        reference = api.predictor_streams("gcc", length=4_000)
        candidate = api.predictor_streams("gcc", length=4_000, chunk_size=333)
        assert reference.num_branches == 4_000
        assert np.array_equal(reference.correct, candidate.correct)
        assert np.array_equal(reference.bhrs, candidate.bhrs)
        assert np.array_equal(reference.gcirs, candidate.gcirs)


class TestConfidenceCurve:
    def test_basic_curve(self):
        curve = api.confidence_curve("jpeg_play", length=6_000)
        assert 0.0 <= curve.mispredictions_captured_at(20.0) <= 100.0

    def test_chunked_curve_identical(self):
        reference = api.confidence_curve("jpeg_play", length=6_000)
        candidate = api.confidence_curve(
            "jpeg_play", length=6_000, chunk_size=1_000
        )
        for percent in (5.0, 20.0, 50.0, 95.0):
            assert reference.mispredictions_captured_at(
                percent
            ) == candidate.mispredictions_captured_at(percent)
