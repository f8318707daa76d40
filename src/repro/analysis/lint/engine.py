"""Lint-run orchestration: parse, run rules, apply suppressions, report.

:func:`run_lint` is the single entry point used by the CLI, the tests,
and the CI gate; it returns a :class:`LintResult` that knows how to
render itself as human-readable lines or as the stable
``reprolint/1`` JSON schema.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.analysis.lint.model import Finding, Project, severity_rank
from repro.analysis.lint.rules import Rule, select_rules

#: Schema tag of the JSON report.
REPORT_SCHEMA = "reprolint/1"

#: Default severity threshold: warnings and errors fail the run.
DEFAULT_FAIL_ON = "warning"


@dataclass
class LintResult:
    """Outcome of one lint run."""

    findings: List[Finding]
    suppressed: int
    files_checked: int
    rules_run: Tuple[str, ...]
    fail_on: str = DEFAULT_FAIL_ON

    @property
    def counts(self) -> Dict[str, int]:
        """Finding counts per severity tier (every tier present)."""
        counts = {"info": 0, "warning": 0, "error": 0}
        for finding in self.findings:
            counts[finding.severity] = counts.get(finding.severity, 0) + 1
        return counts

    @property
    def failed(self) -> bool:
        threshold = severity_rank(self.fail_on)
        return any(
            severity_rank(finding.severity) >= threshold
            for finding in self.findings
        )

    @property
    def exit_code(self) -> int:
        return 1 if self.failed else 0

    def to_dict(self) -> Dict[str, object]:
        """The ``reprolint/1`` JSON report."""
        return {
            "schema": REPORT_SCHEMA,
            "files_checked": self.files_checked,
            "rules_run": list(self.rules_run),
            "fail_on": self.fail_on,
            "findings": [finding.to_dict() for finding in self.findings],
            "summary": dict(self.counts, suppressed=self.suppressed),
        }

    def render_lines(self) -> List[str]:
        """Human-readable report, one finding per line plus a summary."""
        lines = [finding.render() for finding in self.findings]
        counts = self.counts
        summary = (
            f"reprolint: {self.files_checked} file(s), "
            f"{counts['error']} error(s), {counts['warning']} warning(s), "
            f"{counts['info']} info, {self.suppressed} suppressed"
        )
        lines.append(summary)
        return lines


def _check_project(
    project: Project, rules: Tuple[Rule, ...]
) -> Tuple[List[Finding], int]:
    """Run ``rules`` on a parsed project and apply suppressions.

    Returns the sorted kept findings (parse errors included) and the
    number of findings a ``disable`` comment on their line suppressed.
    """
    parsed_by_display = {parsed.display: parsed for parsed in project.files}

    raw: List[Finding] = []
    for rule in rules:
        raw.extend(rule.check(project))

    kept: List[Finding] = list(project.errors)
    suppressed = 0
    for finding in raw:
        parsed = parsed_by_display.get(finding.path)
        if parsed is not None and parsed.is_suppressed(finding.rule, finding.line):
            suppressed += 1
            continue
        kept.append(finding)
    kept.sort()
    return kept, suppressed


def run_lint(
    paths: Sequence[Path],
    *,
    select: Optional[FrozenSet[str]] = None,
    ignore: Optional[FrozenSet[str]] = None,
    fail_on: str = DEFAULT_FAIL_ON,
) -> LintResult:
    """Lint ``paths`` with the selected rules and return the result.

    Parse errors surface as ``R000`` error findings (never suppressible
    from inside the broken file); rule findings are dropped when a
    matching ``# reprolint: disable[-file]=`` comment covers them.
    """
    severity_rank(fail_on)  # validate early
    rules: Tuple[Rule, ...] = select_rules(select, ignore)
    project = Project.load(paths)
    kept, suppressed = _check_project(project, rules)
    return LintResult(
        findings=kept,
        suppressed=suppressed,
        files_checked=len(project.files),
        rules_run=tuple(rule.id for rule in rules),
        fail_on=fail_on,
    )
