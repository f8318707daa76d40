"""Engine-level tests: suppressions, JSON schema, CLI exit codes, autofix."""

import ast
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis.lint.autofix import apply_fixes
from repro.analysis.lint.cli import main as lint_main
from repro.analysis.lint.engine import REPORT_SCHEMA, run_lint
from repro.analysis.lint.model import PARSE_ERROR_RULE
from repro.analysis.lint.rules import all_rules, select_rules

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


def test_disable_all_on_line(tmp_path):
    bad = tmp_path / "module.py"
    bad.write_text(UNSEEDED.replace(
        "np.random.default_rng()",
        "np.random.default_rng()  # reprolint: disable=all",
    ))
    assert run_lint([bad]).findings == []


def test_file_suppression_covers_every_line(tmp_path):
    bad = tmp_path / "module.py"
    bad.write_text("# reprolint: disable-file=R001\n" + UNSEEDED)
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
    broken.write_text("# reprolint: disable-file=all\ndef incomplete(:\n")
    assert run_lint([broken]).exit_code == 1


# ----- selection and severity ----------------------------------------------


def test_unknown_rule_id_raises():
    with pytest.raises(ValueError, match="unknown rule id"):
        select_rules(select=frozenset({"R999"}))


def test_fail_on_error_ignores_warnings():
    result = run_lint([FIXTURES / "r005_bad.py"], fail_on="error")
    assert result.findings  # the warning is still reported
    assert result.exit_code == 0


def test_fail_on_warning_fails_warnings():
    result = run_lint([FIXTURES / "r005_bad.py"], fail_on="warning")
    assert result.exit_code == 1


def test_registry_has_six_distinct_rules():
    assert tuple(rule.id for rule in all_rules()) == (
        "R001", "R003", "R004", "R005", "R006", "R007",
    )


# ----- JSON schema ----------------------------------------------------------


def test_json_report_schema(capsys):
    code = lint_main(["--format", "json", str(FIXTURES / "r001_bad.py")])
    payload = json.loads(capsys.readouterr().out)
    assert code == 1
    assert payload["schema"] == REPORT_SCHEMA
    assert payload["files_checked"] == 1
    assert set(payload["summary"]) == {"info", "warning", "error", "suppressed"}
    for finding in payload["findings"]:
        assert set(finding) == {"path", "line", "col", "rule", "severity", "message"}
        assert finding["rule"] == "R001"


def test_cli_exit_codes(tmp_path, capsys):
    assert lint_main([str(FIXTURES / "r001_ok.py")]) == 0
    assert lint_main([str(FIXTURES / "r001_bad.py")]) == 1
    assert lint_main([str(tmp_path / "does-not-exist")]) == 2
    assert lint_main(["--select", "R999", str(FIXTURES / "r001_ok.py")]) == 2
    capsys.readouterr()  # drain


@pytest.mark.parametrize("flag", ["--incremental", "--changed"])
def test_cli_rejects_removed_result_cache_flags(flag, capsys):
    with pytest.raises(SystemExit) as excinfo:
        lint_main([flag])
    assert excinfo.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_cli_list_rules(capsys):
    assert lint_main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule in all_rules():
        assert rule.id in out


# ----- autofix --------------------------------------------------------------


def test_fix_wraps_set_iteration_and_is_idempotent(tmp_path):
    target = tmp_path / "r001_bad.py"
    shutil.copy(FIXTURES / "r001_bad.py", target)
    edits = apply_fixes([target])
    assert any("sorted" in edit.description for edit in edits)
    text = target.read_text()
    assert "for value in sorted({3, 1, 2}):" in text
    assert "for value in sorted(set(values)):" in text
    # No set-iteration findings remain (the RNG findings are not mechanical).
    result = run_lint([target], select=frozenset({"R001"}))
    assert all("sorted" not in finding.message for finding in result.findings)
    assert apply_fixes([target]) == []  # second pass: nothing left to do


def test_fix_nested_set_iteration_stays_valid_and_converges(tmp_path):
    # An inner edit would shift the enclosing span's offsets; only the
    # outermost span may be fixed per run, and every intermediate state
    # must still parse.
    target = tmp_path / "nested.py"
    target.write_text(
        "def fold():\n"
        "    return [x for x in {y for y in {3, 1, 2}}]\n"
    )
    passes = 0
    while apply_fixes([target]):
        ast.parse(target.read_text())  # each pass writes valid syntax
        passes += 1
        assert passes <= 5, "autofix failed to converge"
    assert passes == 2
    text = target.read_text()
    assert "sorted({y for y in sorted({3, 1, 2})})" in text
    assert run_lint([target], select=frozenset({"R001"})).findings == []


def test_fix_adds_missing_all_entries_and_is_idempotent(tmp_path):
    for name in ("api.py", "client.py"):
        shutil.copy(FIXTURES / "r006_fixable" / name, tmp_path / name)
    assert run_lint([tmp_path], select=frozenset({"R006"})).exit_code == 1
    edits = apply_fixes([tmp_path])
    assert [edit.description for edit in edits] == ['added "helper" to __all__']
    assert '__all__ = ["run", "helper"]' in (tmp_path / "api.py").read_text()
    assert run_lint([tmp_path], select=frozenset({"R006"})).exit_code == 0
    assert apply_fixes([tmp_path]) == []


def test_fix_handles_api_file_with_both_fix_kinds_in_one_run(tmp_path):
    # When api.py itself receives a set-iteration fix, the __all__ fix
    # must still land in the same run (offsets recomputed from the
    # edited text), not be silently deferred to a second invocation.
    (tmp_path / "api.py").write_text(
        '__all__ = ["run"]\n'
        "\n"
        "\n"
        "def run():\n"
        "    return [x for x in {3, 1, 2}]\n"
        "\n"
        "\n"
        "def helper():\n"
        "    return 0\n"
    )
    (tmp_path / "client.py").write_text("from api import run, helper\n")
    edits = apply_fixes([tmp_path])
    descriptions = sorted(edit.description for edit in edits)
    assert descriptions == [
        'added "helper" to __all__',
        "wrapped set iteration in sorted(...)",
    ]
    text = (tmp_path / "api.py").read_text()
    ast.parse(text)
    assert '__all__ = ["run", "helper"]' in text
    assert "sorted({3, 1, 2})" in text
    assert run_lint([tmp_path], select=frozenset({"R001", "R006"})).findings == []
    assert apply_fixes([tmp_path]) == []


def test_fix_never_exports_private_names(tmp_path):
    for name in ("api.py", "client.py"):
        shutil.copy(FIXTURES / "r006_bad" / name, tmp_path / name)
    apply_fixes([tmp_path])
    assert "_internal" not in str(
        [n for n in (tmp_path / "api.py").read_text().splitlines() if "__all__" in n]
    )


def test_fix_dry_run_leaves_files_untouched(tmp_path):
    target = tmp_path / "r001_bad.py"
    shutil.copy(FIXTURES / "r001_bad.py", target)
    before = target.read_text()
    edits = apply_fixes([target], write=False)
    assert edits
    assert target.read_text() == before


# ----- module entry point ---------------------------------------------------


def test_python_dash_m_entry_point():
    completed = subprocess.run(
        [sys.executable, "-m", "repro.analysis", str(FIXTURES / "r001_bad.py")],
        capture_output=True,
        text=True,
    )
    assert completed.returncode == 1
    assert "R001" in completed.stdout
