"""Core data model of the ``reprolint`` static-analysis engine.

The engine is deliberately dependency-free (stdlib ``ast`` only): it must
run in the leanest CI job, lint fixture trees that are not importable,
and never execute the code it checks.  This module defines the three
shared value types:

* :class:`Finding` — one diagnostic, anchored to a file position;
* :class:`ParsedFile` — a source file plus its AST and the suppression
  comments parsed out of it;
* :class:`Project` — the set of parsed files one lint run operates on
  (rules that check cross-file invariants, like the public-API surface,
  see the whole project at once).

Suppression syntax (checked by :func:`ParsedFile.is_suppressed`):

* ``# reprolint: disable=R001`` — suppress the named rule(s) on this line;
* ``# reprolint: disable=R001,R004`` — several rules;
* ``# reprolint: disable=all`` — every rule on this line;
* ``# reprolint: disable-file=R001`` — suppress for the whole file.

A suppression comment should always carry a human justification on the
same line or the line above; the linter does not enforce that, review
does.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Set, Tuple

#: Severity tiers, least severe first (index = rank).
SEVERITIES: Tuple[str, ...] = ("info", "warning", "error")

#: Pseudo-rule id used for files the engine cannot parse.
PARSE_ERROR_RULE = "R000"

#: The rule list stops at the first non-rule token so a same-line
#: justification (``# reprolint: disable=R001 - timing only``) is not
#: swallowed into the rule names.
_SUPPRESS_RE = re.compile(
    r"#\s*reprolint:\s*(disable|disable-file)\s*=\s*"
    r"([A-Za-z0-9_*]+(?:\s*,\s*[A-Za-z0-9_*]+)*)"
)


def severity_rank(severity: str) -> int:
    """Numeric rank of a severity name (higher = more severe)."""
    try:
        return SEVERITIES.index(severity)
    except ValueError:
        raise ValueError(
            f"unknown severity {severity!r}; expected one of {SEVERITIES}"
        ) from None


@dataclass(frozen=True, order=True)
class Finding:
    """One diagnostic produced by a rule.

    Order is (path, line, col, rule), which is also the report order.
    ``line`` is 1-based and ``col`` 0-based, matching ``ast`` node
    positions; renderers add 1 to the column for editor conventions.
    """

    path: str
    line: int
    col: int
    rule: str
    severity: str
    message: str

    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable record of this finding."""
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule,
            "severity": self.severity,
            "message": self.message,
        }

    def render(self) -> str:
        """One-line human rendering (1-based column)."""
        return (
            f"{self.path}:{self.line}:{self.col + 1}: "
            f"{self.rule} [{self.severity}] {self.message}"
        )


def _parse_rule_list(raw: str) -> FrozenSet[str]:
    names = [part.strip() for part in raw.replace(";", ",").split(",")]
    return frozenset(name for name in names if name)


@dataclass
class ParsedFile:
    """One successfully parsed source file."""

    path: Path
    display: str
    source: str
    tree: ast.Module
    line_suppressions: Dict[int, FrozenSet[str]] = field(default_factory=dict)
    file_suppressions: FrozenSet[str] = frozenset()

    @property
    def parts(self) -> Tuple[str, ...]:
        """Path components, used by rules that scope to subtrees."""
        return self.path.parts

    def in_subtree(self, *names: str) -> bool:
        """True when any of ``names`` appears as a path component."""
        return any(name in self.parts for name in names)

    def is_suppressed(self, rule: str, line: int) -> bool:
        """True when ``rule`` is disabled on ``line`` or for the file."""
        if "all" in self.file_suppressions or rule in self.file_suppressions:
            return True
        on_line = self.line_suppressions.get(line)
        if on_line is None:
            return False
        return "all" in on_line or rule in on_line

    def finding(
        self, rule: str, severity: str, node: ast.AST, message: str
    ) -> Finding:
        """Build a finding anchored at ``node``'s position."""
        return Finding(
            path=self.display,
            line=int(getattr(node, "lineno", 1)),
            col=int(getattr(node, "col_offset", 0)),
            rule=rule,
            severity=severity,
            message=message,
        )


def _collect_suppressions(
    source: str,
) -> Tuple[Dict[int, FrozenSet[str]], FrozenSet[str]]:
    per_line: Dict[int, FrozenSet[str]] = {}
    whole_file: FrozenSet[str] = frozenset()
    for number, text in enumerate(source.splitlines(), start=1):
        if "reprolint" not in text:
            continue
        match = _SUPPRESS_RE.search(text)
        if match is None:
            continue
        rules = _parse_rule_list(match.group(2))
        if match.group(1) == "disable-file":
            whole_file = whole_file | rules
        else:
            per_line[number] = per_line.get(number, frozenset()) | rules
    return per_line, whole_file


def parse_file(path: Path, display: str) -> Tuple[Optional[ParsedFile], Optional[Finding]]:
    """Parse one file; returns (parsed, None) or (None, parse-error finding)."""
    try:
        source = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as error:
        return None, Finding(
            path=display,
            line=1,
            col=0,
            rule=PARSE_ERROR_RULE,
            severity="error",
            message=f"cannot read file: {error}",
        )
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as error:
        return None, Finding(
            path=display,
            line=int(error.lineno or 1),
            col=int(error.offset or 1) - 1,
            rule=PARSE_ERROR_RULE,
            severity="error",
            message=f"syntax error: {error.msg}",
        )
    per_line, whole_file = _collect_suppressions(source)
    return (
        ParsedFile(
            path=path,
            display=display,
            source=source,
            tree=tree,
            line_suppressions=per_line,
            file_suppressions=whole_file,
        ),
        None,
    )


_SKIP_DIRS = frozenset({"__pycache__", ".git", ".hypothesis", ".pytest_cache"})


def display_for(path: Path) -> str:
    """The cwd-relative display string a path gets in reports."""
    try:
        return path.resolve().relative_to(Path.cwd()).as_posix()
    except ValueError:
        return path.as_posix()


def discover_sources(paths: Iterable[Path]) -> List[Path]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    collected: List[Path] = []
    for path in paths:
        if path.is_dir():
            for candidate in sorted(path.rglob("*.py")):
                if not any(part in _SKIP_DIRS for part in candidate.parts):
                    collected.append(candidate)
        elif path.suffix == ".py":
            collected.append(path)
    unique: List[Path] = []
    seen_paths: Set[Path] = set()
    for path in collected:
        resolved = path.resolve()
        if resolved not in seen_paths:
            seen_paths.add(resolved)
            unique.append(path)
    return unique


@dataclass
class Project:
    """The unit a lint run operates on: parsed files + parse errors."""

    files: List[ParsedFile]
    errors: List[Finding]

    @classmethod
    def load(cls, paths: Iterable[Path]) -> "Project":
        """Parse every ``.py`` file under ``paths`` into a project."""
        files: List[ParsedFile] = []
        errors: List[Finding] = []
        for source_path in discover_sources(paths):
            parsed, error = parse_file(source_path, display_for(source_path))
            if parsed is not None:
                files.append(parsed)
            if error is not None:
                errors.append(error)
        return cls(files=files, errors=errors)

    def iter_files(self) -> Iterator[ParsedFile]:
        return iter(self.files)
