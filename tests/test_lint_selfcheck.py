"""Self-checks: reprolint is clean on src/repro and guards the real tree.

The injection test copies an *actual* source into a temp tree and
re-introduces the bug class R001 exists for, proving the rule bites on
the real code shape, not just on a hand-written fixture.  Invariants
that running code can check are tested at runtime instead: cache-key
completeness by ``tests/test_cache_key_differential.py``, the counter
taxonomy by ``tests/test_taxonomy.py``, and the ``repro.api`` facade by
``tests/test_api_facade.py``.
"""

import os
import subprocess
import sys
import time
from pathlib import Path

from repro.analysis.lint.engine import run_lint
from repro.cli import main as repro_main

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC_REPRO = REPO_ROOT / "src" / "repro"


#: Wall-time budget for one full lint pass over ``src/repro``.  A pass
#: takes about 1.4 s on 2 vCPUs; blowing the budget means a rule has gone
#: super-linear (e.g. re-parsing files per rule).
LINT_WALL_LIMIT_SECONDS = 10.0


def test_linter_imports_without_numpy():
    # The lint package is stdlib-only; the package inits above it must
    # not pull in the numeric stack (CI lints before installing numpy).
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    probe = subprocess.run(
        [sys.executable, "-c",
         "import sys, repro.analysis.lint.cli; print('numpy' in sys.modules)"],
        env=env, capture_output=True, text=True, timeout=60, check=True,
    )
    assert probe.stdout.strip() == "False"


def test_reprolint_clean_on_src_repro():
    started = time.perf_counter()
    result = run_lint([SRC_REPRO])
    wall_seconds = time.perf_counter() - started
    assert result.findings == [], "\n".join(
        finding.render() for finding in result.findings
    )
    assert result.exit_code == 0
    assert result.files_checked > 50
    assert wall_seconds < LINT_WALL_LIMIT_SECONDS, (
        f"full lint took {wall_seconds:.2f}s "
        f"(budget {LINT_WALL_LIMIT_SECONDS:.0f}s)"
    )


def test_repro_cli_lint_subcommand(capsys):
    assert repro_main(["lint", str(SRC_REPRO)]) == 0
    assert "0 error(s)" in capsys.readouterr().out


def test_r001_catches_unseeded_rng_added_to_sim(tmp_path):
    """A nondeterminism regression in a sim/ module is flagged."""
    sim_dir = tmp_path / "sim"
    sim_dir.mkdir()
    fast_source = (SRC_REPRO / "sim" / "fast.py").read_text()
    poisoned = fast_source + (
        "\n\ndef jitter(values):\n"
        "    return values + np.random.default_rng().integers(0, 2)\n"
    )
    (sim_dir / "fast.py").write_text(poisoned)
    result = run_lint([sim_dir])
    assert result.exit_code == 1
    assert {finding.rule for finding in result.findings} == {"R001"}

