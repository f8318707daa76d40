"""Shared fixtures for the test suite.

Small, deterministic traces and streams so unit tests stay fast; the
integration tests build their own medium-sized configurations.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro import observability
from repro.sim.cache import clear_stream_cache
from repro.testing import faults
from repro.traces import Trace
from repro.workloads import load_benchmark


@pytest.fixture(scope="session", autouse=True)
def _isolated_stream_cache(tmp_path_factory):
    """Point the persistent stream cache at a session-scoped tmp directory.

    Keeps test runs hermetic: nothing is read from or written to the
    user's real cache, and every session starts cold.
    """
    if "REPRO_CACHE_DIR" not in os.environ:
        os.environ["REPRO_CACHE_DIR"] = str(tmp_path_factory.mktemp("stream-cache"))
    # An ambient fault spec would make every test nondeterministically
    # exercise the fault paths; fault tests opt in via monkeypatch.
    os.environ.pop("REPRO_FAULT_SPEC", None)
    yield


@pytest.fixture
def cache_dir(tmp_path, monkeypatch):
    """A private cold cache dir, no ambient faults, zeroed counters."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.delenv("REPRO_CACHE_DISABLE", raising=False)
    monkeypatch.delenv(faults.FAULT_SPEC_ENV, raising=False)
    clear_stream_cache()
    faults.reset_fault_state()
    observability.reset_metrics()
    yield tmp_path
    clear_stream_cache()
    faults.reset_fault_state()
    observability.reset_metrics()


#: Re-executes its arguments as a child.  On Linux ``ru_maxrss`` survives
#: exec: a process spawned straight from pytest starts with pytest's peak
#: RSS as its own, which hides any growth below it.  The relay is a small
#: fresh interpreter, so the process it spawns starts near an empty
#: interpreter's footprint.
_RSS_RELAY = (
    "import subprocess, sys; "
    "sys.exit(subprocess.run(sys.argv[1:]).returncode)"
)

_SRC_DIR = str(Path(__file__).resolve().parents[1] / "src")


@pytest.fixture
def run_fresh_python():
    """Run ``python ARGS...`` in a process whose peak RSS starts fresh.

    Returns the completed process (text stdout/stderr captured); a
    nonzero exit raises ``CalledProcessError``.
    """

    def run(*args: str) -> subprocess.CompletedProcess:
        env = dict(os.environ)
        env["PYTHONPATH"] = _SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
        return subprocess.run(
            [sys.executable, "-c", _RSS_RELAY, sys.executable, *args],
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
            check=True,
        )

    return run


@pytest.fixture(scope="session")
def tiny_trace() -> Trace:
    """A hand-written 12-branch trace over three sites."""
    pcs = [0x100, 0x104, 0x108] * 4
    outcomes = [1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 0, 1]
    return Trace(np.asarray(pcs), np.asarray(outcomes), name="tiny")


@pytest.fixture(scope="session")
def small_benchmark_trace() -> Trace:
    """A short synthetic benchmark trace (deterministic)."""
    return load_benchmark("jpeg_play", 4_000, 0)


@pytest.fixture(scope="session")
def random_trace() -> Trace:
    """A medium random trace exercising many table entries."""
    rng = np.random.default_rng(1234)
    pcs = rng.integers(0, 1 << 14, size=6_000).astype(np.uint64) * 4
    outcomes = rng.integers(0, 2, size=6_000).astype(np.uint8)
    return Trace(pcs, outcomes, name="random")
