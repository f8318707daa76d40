"""Per-rule positive/negative tests of the reprolint rules on fixtures."""

from pathlib import Path

import pytest

from repro.analysis.lint.cli import main as lint_main
from repro.analysis.lint.engine import run_lint

FIXTURES = Path(__file__).parent / "lint_fixtures"


def findings_of(rule: str, *paths: Path):
    """The findings ``rule`` reports when the full registry lints ``paths``."""
    result = run_lint(list(paths))
    return [finding for finding in result.findings if finding.rule == rule]


def lint(target: str, rule: str):
    return findings_of(rule, FIXTURES / target)


def rules_hit(result):
    return {finding.rule for finding in result.findings}


# One (positive fixture, negative fixture) pair per rule.  Each fixture
# is linted by the full registry: a bad fixture trips only its own rule,
# an ok fixture trips none.
CASES = [
    ("R001", "r001_bad.py", "r001_ok.py"),
    ("R001", "sim/r001_time_bad.py", "sim/r001_time_ok.py"),
    ("R003", "r003_bad.py", "r003_ok.py"),
    ("R004", "sim/r004_bad.py", "sim/r004_ok.py"),
    ("R007", "fabric/r007_bad.py", "fabric/r007_ok.py"),
]


@pytest.mark.parametrize("rule,bad,ok", CASES)
def test_rule_fires_on_bad_fixture(rule, bad, ok):
    result = run_lint([FIXTURES / bad])
    assert rules_hit(result) == {rule}
    assert result.exit_code == 1


@pytest.mark.parametrize("rule,bad,ok", CASES)
def test_rule_quiet_on_ok_fixture(rule, bad, ok):
    result = run_lint([FIXTURES / ok])
    assert result.findings == []
    assert result.exit_code == 0


@pytest.mark.parametrize("rule,bad,ok", CASES)
def test_full_registry_fails_bad_fixture(rule, bad, ok, capsys):
    # A plain `repro lint <fixture>` run must exit 1 (not 2, a usage
    # error) and name the rule on every positive fixture.
    assert lint_main([str(FIXTURES / bad)]) == 1
    assert f": {rule} " in capsys.readouterr().out


def test_r001_reports_each_hazard_kind():
    messages = " ".join(finding.message for finding in lint("r001_bad.py", "R001"))
    assert "without a seed" in messages
    assert "global RNG state" in messages
    assert "sorted" in messages


def test_r001_clock_scope_is_path_based(tmp_path):
    # The same wall-clock read outside sim//experiments/ is fine.
    source = (FIXTURES / "sim" / "r001_time_bad.py").read_text()
    unscoped = tmp_path / "tooling.py"
    unscoped.write_text(source)
    assert findings_of("R001", unscoped) == []


def test_r001_flags_explicit_none_seed(tmp_path):
    # default_rng(None) requests OS entropy exactly like the bare call.
    module = tmp_path / "module.py"
    module.write_text(
        "import numpy as np\n"
        "\n"
        "\n"
        "def draw(seed):\n"
        "    a = np.random.default_rng(None)\n"
        "    b = np.random.default_rng(seed=None)\n"
        "    c = np.random.default_rng(seed)\n"
        "    return a, b, c\n"
    )
    findings = findings_of("R001", module)
    assert len(findings) == 2
    assert all("OS entropy" in finding.message for finding in findings)
    assert {finding.line for finding in findings} == {5, 6}


def test_r003_reports_lambda_and_global_mutation():
    messages = " ".join(finding.message for finding in lint("r003_bad.py", "R003"))
    assert "lambda" in messages
    assert "_COUNTER" in messages


def test_r004_reports_mask_and_dtype():
    messages = " ".join(finding.message for finding in lint("sim/r004_bad.py", "R004"))
    assert "4095" in messages
    assert "history_bits" in messages
    assert "dtype" in messages


def test_r004_absorbs_platform_int_and_overflow_hazards():
    # The two dtype hazards the retired flow rule covered that a syntax
    # check can see: a dtype-less arange, and a literal out of range.
    messages = " ".join(finding.message for finding in lint("sim/r004_bad.py", "R004"))
    assert "`numpy.arange` without an explicit dtype" in messages
    assert "`numpy.uint8(511)` is outside its range [0, 255]" in messages


def test_r004_overflow_check_is_unscoped_but_arange_is_not(tmp_path):
    # The same file outside the numeric layers is tooling: a platform
    # int is fine there, an out-of-range literal never is.
    source = (FIXTURES / "sim" / "r004_bad.py").read_text()
    unscoped = tmp_path / "tooling.py"
    unscoped.write_text(source)
    messages = " ".join(finding.message for finding in findings_of("R004", unscoped))
    assert "numpy.arange" not in messages
    assert "numpy.uint8(511)" in messages


def test_r007_reports_each_hazard_kind():
    findings = lint("fabric/r007_bad.py", "R007")
    messages = " ".join(finding.message for finding in findings)
    assert len(findings) == 7
    assert "check-then-act" in messages
    assert "O_EXCL" in messages
    assert "exist_ok=False" in messages
    assert "mode 'x'" in messages
