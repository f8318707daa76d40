"""Engine-level tests: suppressions, parse errors, registry, CLI exit codes."""

import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis.lint.cli import main as lint_main
from repro.analysis.lint.engine import run_lint
from repro.analysis.lint.model import PARSE_ERROR_RULE
from repro.analysis.lint.rules import RULES

FIXTURES = Path(__file__).parent / "lint_fixtures"

UNSEEDED = "import numpy as np\n\n\ndef draw():\n    return np.random.default_rng()\n"


# ----- suppression comments -------------------------------------------------


def test_line_suppression_silences_one_rule(tmp_path):
    bad = tmp_path / "module.py"
    bad.write_text(UNSEEDED.replace(
        "np.random.default_rng()",
        "np.random.default_rng()  # reprolint: disable=R001",
    ))
    result = run_lint([bad])
    assert result.findings == []
    assert result.suppressed == 1


def test_line_suppression_is_rule_specific(tmp_path):
    bad = tmp_path / "module.py"
    bad.write_text(UNSEEDED.replace(
        "np.random.default_rng()",
        "np.random.default_rng()  # reprolint: disable=R004",
    ))
    result = run_lint([bad])
    assert [finding.rule for finding in result.findings] == ["R001"]
    assert result.suppressed == 0


def test_line_suppression_with_same_line_justification(tmp_path):
    # The documented style puts the justification on the same line; it
    # must not be swallowed into the rule list.
    bad = tmp_path / "module.py"
    bad.write_text(UNSEEDED.replace(
        "np.random.default_rng()",
        "np.random.default_rng()  # reprolint: disable=R001 - timing only",
    ))
    result = run_lint([bad])
    assert result.findings == []
    assert result.suppressed == 1


def test_multi_rule_suppression_with_justification(tmp_path):
    bad = tmp_path / "module.py"
    bad.write_text(UNSEEDED.replace(
        "np.random.default_rng()",
        "np.random.default_rng()  # reprolint: disable=R001, R004 -- see #42",
    ))
    result = run_lint([bad])
    assert result.findings == []
    assert result.suppressed == 1


# ----- parse errors ---------------------------------------------------------


def test_syntax_error_surfaces_as_r000(tmp_path):
    broken = tmp_path / "broken.py"
    broken.write_text("def incomplete(:\n")
    result = run_lint([broken])
    assert [finding.rule for finding in result.findings] == [PARSE_ERROR_RULE]
    assert result.exit_code == 1


def test_r000_is_not_suppressible_from_inside(tmp_path):
    broken = tmp_path / "broken.py"
    broken.write_text("def incomplete(:  # reprolint: disable=R000\n")
    assert run_lint([broken]).exit_code == 1


# ----- registry and CLI ----------------------------------------------------


def test_registry_has_four_distinct_rules():
    assert tuple(rule.RULE_ID for rule in RULES) == ("R001", "R003", "R004", "R007")


def test_cli_exit_codes(tmp_path, capsys):
    assert lint_main([str(FIXTURES / "r001_ok.py")]) == 0
    assert lint_main([str(FIXTURES / "r001_bad.py")]) == 1
    assert lint_main([str(tmp_path / "does-not-exist")]) == 2
    capsys.readouterr()  # drain


@pytest.mark.parametrize(
    "flag",
    [
        "--incremental",
        "--changed",
        "--fix",
        "--select",
        "--ignore",
        "--fail-on",
        "--format",
        "--list-rules",
    ],
)
def test_cli_rejects_removed_result_cache_flags(flag, capsys):
    with pytest.raises(SystemExit) as excinfo:
        lint_main([flag])
    assert excinfo.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


# ----- module entry point ---------------------------------------------------


def test_python_dash_m_entry_point():
    completed = subprocess.run(
        [sys.executable, "-m", "repro.analysis", str(FIXTURES / "r001_bad.py")],
        capture_output=True,
        text=True,
    )
    assert completed.returncode == 1
    assert "R001" in completed.stdout
