"""Lint-run orchestration: parse, run rules, apply suppressions, report.

:func:`run_lint` is the single entry point used by the CLI and the
tests; it returns a :class:`LintResult` that renders itself as
human-readable lines.  Every finding fails the run.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import List, Sequence

from repro.analysis.lint.model import Finding, Project
from repro.analysis.lint.rules import RULES


@dataclass
class LintResult:
    """Outcome of one lint run."""

    findings: List[Finding]
    suppressed: int
    files_checked: int

    @property
    def exit_code(self) -> int:
        return 1 if self.findings else 0

    def render_lines(self) -> List[str]:
        """Human-readable report, one finding per line plus a summary."""
        lines = [finding.render() for finding in self.findings]
        lines.append(
            f"reprolint: {self.files_checked} file(s), "
            f"{len(self.findings)} error(s), {self.suppressed} suppressed"
        )
        return lines


def run_lint(paths: Sequence[Path]) -> LintResult:
    """Lint ``paths`` with every rule and return the result.

    Parse errors surface as ``R000`` findings (never suppressible from
    inside the broken file); rule findings are dropped when a matching
    ``# reprolint: disable=`` comment sits on their line.
    """
    project = Project.load(paths)
    parsed_by_display = {parsed.display: parsed for parsed in project.files}
    kept: List[Finding] = list(project.errors)
    suppressed = 0
    for rule in RULES:
        for finding in rule.check(project):
            parsed = parsed_by_display.get(finding.path)
            if parsed is not None and parsed.is_suppressed(finding.rule, finding.line):
                suppressed += 1
            else:
                kept.append(finding)
    kept.sort()
    return LintResult(
        findings=kept, suppressed=suppressed, files_checked=len(project.files)
    )
