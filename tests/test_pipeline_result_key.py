"""Key coverage of the cached ``extension-pipeline`` result.

``extension_pipeline.run`` stores its result under
:func:`~repro.experiments.extension_pipeline.pipeline_key`.  An input the
key misses would replay another configuration's result on a warm run,
and a knob the key holds needlessly would fragment the store.  So, by
running the experiment over a cache filled by a base run:

* every :class:`~repro.pipeline.FrontendConfig` field, each module
  constant behind the signals, the trace length and every result-changing
  :class:`ExperimentConfig` field must miss the base entry (a new field
  without a perturbation fails the test);
* every other :class:`ExperimentConfig` field must hit it, and the hit
  must equal a recomputation with the store disabled.
"""

from __future__ import annotations

import dataclasses
import hashlib
from pathlib import Path
from typing import Dict, Tuple

import pytest

from repro import observability
from repro.experiments import extension_pipeline
from repro.experiments.config import ExperimentConfig
from repro.pipeline import FrontendConfig, timing
from repro.sim.cache import clear_stream_cache

BASE = ExperimentConfig(benchmarks=("jpeg_play", "gcc"), trace_length=1_000)
LENGTH = 400

#: One perturbed value per ``FrontendConfig`` field.
FRONTEND_PERTURBATIONS: Dict[str, object] = {
    "fetch_width": 8,
    "resolve_latency": 12,
    "redirect_penalty": 3,
    "min_block": 3,
    "block_spread": 4,
    "alternate_width": 1.0,
    "fork_primary_loss": 0.2,
}

#: One perturbed value per module constant the result depends on.
CONSTANT_PERTURBATIONS: Dict[str, object] = {
    "LOW_COUNTER_VALUES": (0, 1, 2),
    "SMT_LOW_COUNTER_VALUES": (0, 1),
    "SMT_THREADS": 1,
    "COUNTER_MAXIMUM": 8,
}

#: One perturbed value per ``ExperimentConfig`` field, and whether it
#: must reach the key.  ``trace_length`` and ``cir_bits`` do not: the
#: pipeline runs at its own length and reads no CIR.
CONFIG_PERTURBATIONS: Dict[str, Tuple[object, bool]] = {
    "benchmarks": (("jpeg_play", "nroff"), True),
    "seed": (7, True),
    "predictor_entries": (1 << 12, True),
    "predictor_history_bits": (12, True),
    "ct_index_bits": (12, True),
    "trace_length": (1_200, False),
    "cir_bits": (12, False),
    "headline_percent": (30.0, False),
    "jobs": (2, False),
    "chunk_size": (256, False),
    "max_retries": (0, False),
    "task_timeout": (60.0, False),
}

#: The result format and the SHA-256 of the ``repro/pipeline/timing.py``
#: it was pinned with.
TIMING_SOURCE = (1, "d28e17a47a4817e8f672ffd29f5ea3b7430b85439046c850c2bd60b611a631d0")


@pytest.fixture
def base_cache(cache_dir):
    """A cache holding the base run's entry; counters zeroed after it."""
    extension_pipeline.run(BASE, trace_length=LENGTH)
    assert observability.counter_value("pipeline_cache.stores") == 1
    observability.reset_metrics()
    return cache_dir


def assert_miss():
    assert observability.counter_value("pipeline_cache.disk_hits") == 0
    assert observability.counter_value("pipeline_cache.disk_misses") == 1
    assert observability.counter_value("pipeline_cache.stores") == 1


def test_every_field_and_constant_has_a_perturbation():
    for config_type, table in (
        (FrontendConfig, FRONTEND_PERTURBATIONS),
        (ExperimentConfig, CONFIG_PERTURBATIONS),
    ):
        assert {f.name for f in dataclasses.fields(config_type)} == set(table)
    for name, value in CONSTANT_PERTURBATIONS.items():
        assert getattr(extension_pipeline, name) != value


@pytest.mark.parametrize("name", sorted(FRONTEND_PERTURBATIONS))
def test_frontend_field_reaches_the_key(name, base_cache, monkeypatch):
    perturbed = dataclasses.replace(
        FrontendConfig(), **{name: FRONTEND_PERTURBATIONS[name]}
    )
    monkeypatch.setattr(extension_pipeline, "FrontendConfig", lambda: perturbed)
    extension_pipeline.run(BASE, trace_length=LENGTH)
    assert_miss()


@pytest.mark.parametrize("name", sorted(CONSTANT_PERTURBATIONS))
def test_module_constant_reaches_the_key(name, base_cache, monkeypatch):
    monkeypatch.setattr(extension_pipeline, name, CONSTANT_PERTURBATIONS[name])
    extension_pipeline.run(BASE, trace_length=LENGTH)
    assert_miss()


def test_trace_length_reaches_the_key(base_cache):
    extension_pipeline.run(BASE, trace_length=LENGTH + 1)
    assert_miss()


def test_result_format_reaches_the_key(base_cache, monkeypatch):
    monkeypatch.setattr(
        extension_pipeline,
        "PIPELINE_RESULT_FORMAT",
        extension_pipeline.PIPELINE_RESULT_FORMAT + 1,
    )
    extension_pipeline.run(BASE, trace_length=LENGTH)
    assert_miss()


@pytest.mark.parametrize("name", sorted(CONFIG_PERTURBATIONS))
def test_config_field(name, base_cache, monkeypatch):
    value, keyed = CONFIG_PERTURBATIONS[name]
    config = BASE.scaled(**{name: value})
    result = extension_pipeline.run(config, trace_length=LENGTH)
    if keyed:
        assert_miss()
        return
    # A hit on the base entry, equal to a cold run of this config.
    assert observability.counter_value("pipeline_cache.disk_hits") == 1
    assert observability.counter_value("pipeline_cache.stores") == 0
    monkeypatch.setenv("REPRO_CACHE_DISABLE", "1")
    clear_stream_cache()
    assert result == extension_pipeline.run(config, trace_length=LENGTH)
    assert result.headline_percent == config.headline_percent


def test_timing_model_change_bumps_the_result_format():
    """Editing the timing model must come with a new result format.

    Entries stored by the old model would otherwise replay.  After a
    change to ``repro/pipeline/timing.py``, bump
    ``PIPELINE_RESULT_FORMAT`` and re-pin the digest here.
    """
    source = Path(timing.__file__).read_bytes()
    assert (
        extension_pipeline.PIPELINE_RESULT_FORMAT,
        hashlib.sha256(source).hexdigest(),
    ) == TIMING_SOURCE
