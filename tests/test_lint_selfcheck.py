"""Self-checks: reprolint is clean on src/repro and guards the real tree.

The injection tests copy *actual* sources into a temp tree and
re-introduce the bug class each rule exists for, proving the rules bite
on the real code shape, not just on hand-written fixtures.  (Cache-key
completeness is checked at runtime instead, by
``tests/test_cache_key_differential.py``.)
"""

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
    result = run_lint([sim_dir], select=frozenset({"R001"}))
    assert result.exit_code == 1


def test_r006_catches_private_facade_import(tmp_path):
    """Importing a facade-private helper from repro.api is flagged."""
    (tmp_path / "api.py").write_text((SRC_REPRO / "api.py").read_text())
    (tmp_path / "consumer.py").write_text(
        "from repro.api import _configure\n"
    )
    result = run_lint([tmp_path], select=frozenset({"R006"}))
    assert result.exit_code == 1
    assert any("_configure" in finding.message for finding in result.findings)
