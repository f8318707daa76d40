"""Start-up paths import neither numpy nor any experiment module.

``repro list`` and a warm ``repro run-all`` (every report replayed from
its store entry) read only the registry, the config and the store, so
they start at interpreter speed.  The package ``__init__``s export their
names lazily (:mod:`repro._exports`), the registry imports an
experiment's module on first use of its ``run``, and a report entry is
read without numpy.  Each probe runs the CLI in a fresh interpreter and
reports what it imported.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from repro.experiments.registry import EXPERIMENTS

REPO_ROOT = Path(__file__).resolve().parents[1]

WARM_RUN_ALL = [
    "run-all", "--benchmarks", "jpeg_play", "gcc", "--length", "2000",
    "--experiments", "fig2", "fig5", "extension-crossval",
]

#: The experiments-package modules a start-up path may load.
START_UP_MODULES = {"repro.experiments", "repro.experiments.config", "repro.experiments.registry"}

_PROBE = (
    "import json, sys\n"
    "from repro.cli import main\n"
    "code = main(sys.argv[1:])\n"
    "sys.stderr.write(json.dumps(sorted(sys.modules)))\n"
    "sys.exit(code)\n"
)


def _env(cache_dir):
    env = dict(os.environ)
    env.pop("REPRO_CACHE_DISABLE", None)
    env["REPRO_CACHE_DIR"] = str(cache_dir)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _probe(args, cache_dir):
    """(stdout, imported module names) of one CLI run in a fresh process."""
    probe = subprocess.run(
        [sys.executable, "-c", _PROBE, *args],
        env=_env(cache_dir), capture_output=True, text=True, timeout=300, check=True,
    )
    return probe.stdout, set(json.loads(probe.stderr))


def _assert_start_up_only(modules):
    assert "numpy" not in modules
    experiments = {name for name in modules if name.startswith("repro.experiments")}
    assert experiments <= START_UP_MODULES, sorted(experiments - START_UP_MODULES)


def test_repro_list_imports_no_numpy_and_no_experiment(tmp_path):
    stdout, modules = _probe(["list"], tmp_path / "cache")
    assert [line.split()[0] for line in stdout.splitlines()] == list(EXPERIMENTS)
    _assert_start_up_only(modules)


def test_warm_run_all_imports_no_numpy_and_no_experiment(tmp_path):
    cache = tmp_path / "cache"
    cold, cold_modules = _probe(WARM_RUN_ALL, cache)
    assert "numpy" in cold_modules
    warm, modules = _probe(WARM_RUN_ALL, cache)
    assert warm == cold
    _assert_start_up_only(modules)


def test_every_registry_entry_resolves_to_a_callable_run():
    for experiment in EXPERIMENTS.values():
        assert callable(experiment.run), experiment.id
