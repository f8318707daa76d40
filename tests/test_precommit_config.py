"""The pre-commit hooks must stay in sync with the CI lint job.

The hooks in ``.pre-commit-config.yaml`` exist so a commit is checked
locally by the same tools CI runs; a hook whose command drifts from the
workflow silently checks something else.  These tests pin the textual
contract between the two files with plain regexes — no YAML parser is
needed (or available) in the test environment, and the properties being
asserted are line-level anyway.
"""

from __future__ import annotations

import re
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
PRECOMMIT = REPO_ROOT / ".pre-commit-config.yaml"
CI_WORKFLOW = REPO_ROOT / ".github" / "workflows" / "ci.yml"


def _precommit_text() -> str:
    return PRECOMMIT.read_text(encoding="utf-8")


def _ci_text() -> str:
    return CI_WORKFLOW.read_text(encoding="utf-8")


def test_config_files_exist():
    assert PRECOMMIT.is_file()
    assert CI_WORKFLOW.is_file()


def test_hooks_are_system_language_only():
    """No hook may download a toolchain at install time."""
    languages = re.findall(r"^\s*language:\s*(\S+)", _precommit_text(), re.M)
    assert languages, "expected at least one hook"
    assert set(languages) == {"system"}


def test_reprolint_hook_matches_ci_entrypoint():
    """Both sides must invoke the same lint module."""
    precommit = _precommit_text()
    ci = _ci_text()
    entrypoint = "python -m repro.analysis"
    assert entrypoint in precommit
    assert entrypoint in ci


def test_reprolint_hook_runs_the_ci_command():
    """The hook lints the full tree with exactly the CI command."""
    hook = re.search(r"^\s*entry:\s*env (.*repro\.analysis.*)$", _precommit_text(), re.M)
    ci = re.search(r"^\s*run:\s*(.*python -m repro\.analysis.*)$", _ci_text(), re.M)
    assert hook is not None, "pre-commit has no reprolint hook"
    assert ci is not None, "CI has no reprolint step"
    assert hook.group(1).strip() == ci.group(1).strip()


def test_ruff_command_matches_ci():
    """The ruff hook checks exactly the trees the CI ruff step checks."""
    precommit_match = re.search(r"^\s*entry:\s*(ruff check .*)$", _precommit_text(), re.M)
    ci_match = re.search(r"^\s*run:\s*(ruff check .*)$", _ci_text(), re.M)
    assert precommit_match is not None, "pre-commit has no ruff hook"
    assert ci_match is not None, "CI has no ruff step"
    assert precommit_match.group(1).strip() == ci_match.group(1).strip()


def test_hooks_do_not_take_filenames():
    """Both hooks lint whole trees, like CI; pre-commit's staged-file
    list must not be appended."""
    text = _precommit_text()
    assert len(re.findall(r"^\s*pass_filenames:\s*false", text, re.M)) == 2
