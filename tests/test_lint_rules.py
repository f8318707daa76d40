"""Per-rule positive/negative tests of the reprolint rules on fixtures."""

from pathlib import Path

import pytest

from repro.analysis.lint.engine import run_lint

FIXTURES = Path(__file__).parent / "lint_fixtures"


def lint(target: str, rule: str):
    return run_lint([FIXTURES / target], select=frozenset({rule}))


def rules_hit(result):
    return {finding.rule for finding in result.findings}


# One (positive fixture, negative fixture) pair per rule; the positive
# side of each pair is also the CI acceptance fixture for "exits nonzero
# on each of >= 6 fixture files".
CASES = [
    ("R001", "r001_bad.py", "r001_ok.py"),
    ("R001", "sim/r001_time_bad.py", "sim/r001_time_ok.py"),
    ("R003", "r003_bad.py", "r003_ok.py"),
    ("R004", "sim/r004_bad.py", "sim/r004_ok.py"),
    ("R005", "r005_bad.py", "r005_ok.py"),
    ("R006", "r006_bad", "r006_ok"),
    ("R007", "fabric/r007_bad.py", "fabric/r007_ok.py"),
]


@pytest.mark.parametrize("rule,bad,ok", CASES)
def test_rule_fires_on_bad_fixture(rule, bad, ok):
    result = lint(bad, rule)
    assert rules_hit(result) == {rule}
    assert result.exit_code == 1


@pytest.mark.parametrize("rule,bad,ok", CASES)
def test_rule_quiet_on_ok_fixture(rule, bad, ok):
    result = lint(ok, rule)
    assert result.findings == []
    assert result.exit_code == 0


@pytest.mark.parametrize("rule,bad,ok", CASES)
def test_full_registry_fails_bad_fixture(rule, bad, ok):
    # The acceptance-criteria form: a plain `repro lint <fixture>` run
    # (all rules) must exit nonzero on every positive fixture.
    result = run_lint([FIXTURES / bad])
    assert result.exit_code == 1
    assert rule in rules_hit(result)


def test_r001_reports_each_hazard_kind():
    result = lint("r001_bad.py", "R001")
    messages = " ".join(finding.message for finding in result.findings)
    assert "without a seed" in messages
    assert "global RNG state" in messages
    assert "sorted" in messages


def test_r001_clock_scope_is_path_based(tmp_path):
    # The same wall-clock read outside sim//experiments/ is fine.
    source = (FIXTURES / "sim" / "r001_time_bad.py").read_text()
    unscoped = tmp_path / "tooling.py"
    unscoped.write_text(source)
    assert run_lint([unscoped], select=frozenset({"R001"})).findings == []


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
    result = run_lint([module], select=frozenset({"R001"}))
    assert len(result.findings) == 2
    assert all("OS entropy" in finding.message for finding in result.findings)
    assert {finding.line for finding in result.findings} == {5, 6}


def test_r003_reports_lambda_and_global_mutation():
    result = lint("r003_bad.py", "R003")
    messages = " ".join(finding.message for finding in result.findings)
    assert "lambda" in messages
    assert "_COUNTER" in messages


def test_r004_reports_mask_and_dtype():
    result = lint("sim/r004_bad.py", "R004")
    messages = " ".join(finding.message for finding in result.findings)
    assert "4095" in messages
    assert "history_bits" in messages
    assert "dtype" in messages
    assert all(finding.severity == "warning" for finding in result.findings)


def test_r004_absorbs_platform_int_and_overflow_hazards():
    # The two dtype hazards the retired flow rule covered that a syntax
    # check can see: a dtype-less arange, and a literal out of range.
    result = lint("sim/r004_bad.py", "R004")
    messages = " ".join(finding.message for finding in result.findings)
    assert "`numpy.arange` without an explicit dtype" in messages
    assert "`numpy.uint8(511)` is outside its range [0, 255]" in messages


def test_r004_overflow_check_is_unscoped_but_arange_is_not(tmp_path):
    # The same file outside the numeric layers is tooling: a platform
    # int is fine there, an out-of-range literal never is.
    source = (FIXTURES / "sim" / "r004_bad.py").read_text()
    unscoped = tmp_path / "tooling.py"
    unscoped.write_text(source)
    result = run_lint([unscoped], select=frozenset({"R004"}))
    messages = " ".join(finding.message for finding in result.findings)
    assert "numpy.arange" not in messages
    assert "numpy.uint8(511)" in messages


def test_r005_names_the_dead_counter():
    result = lint("r005_bad.py", "R005")
    assert len(result.findings) == 1
    assert "ghost.counter" in result.findings[0].message


def test_r007_reports_each_hazard_kind():
    result = lint("fabric/r007_bad.py", "R007")
    messages = " ".join(finding.message for finding in result.findings)
    assert len(result.findings) == 7
    assert "check-then-act" in messages
    assert "O_EXCL" in messages
    assert "exist_ok=False" in messages
    assert "mode 'x'" in messages
    assert all(finding.severity == "error" for finding in result.findings)


def test_r006_reports_both_directions():
    result = lint("r006_bad", "R006")
    messages = " ".join(finding.message for finding in result.findings)
    assert "missing_export" in messages  # declared but undefined
    assert "_internal" in messages  # imported but private
