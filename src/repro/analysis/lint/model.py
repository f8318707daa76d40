"""Core data model of the ``reprolint`` static-analysis engine.

The engine is deliberately dependency-free (stdlib ``ast`` only): it must
run in the leanest CI job, lint fixture trees that are not importable,
and never execute the code it checks.  This module defines the three
shared value types:

* :class:`Finding` — one diagnostic, anchored to a file position;
* :class:`ParsedFile` — a source file plus its AST and the suppression
  comments parsed out of it;
* :class:`Project` — the set of parsed files one lint run operates on.

Suppression syntax (checked by :func:`ParsedFile.is_suppressed`):

* ``# reprolint: disable=R001 - justification`` — suppress the named
  rule on this line;
* ``# reprolint: disable=R001,R004 - justification`` — several rules.

The justification goes on the same line or the line above; the linter
does not enforce it, review does.  There is no file-wide or all-rules
form: every exception names its rules on one line.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Set, Tuple

#: Pseudo-rule id used for files the engine cannot parse.
PARSE_ERROR_RULE = "R000"

#: The rule list stops at the first non-rule token so a same-line
#: justification (``# reprolint: disable=R001 - timing only``) is not
#: swallowed into the rule names.
_SUPPRESS_RE = re.compile(
    r"#\s*reprolint:\s*disable\s*=\s*([A-Za-z0-9_]+(?:\s*,\s*[A-Za-z0-9_]+)*)"
)


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
    message: str

    def render(self) -> str:
        """One-line human rendering (1-based column)."""
        return f"{self.path}:{self.line}:{self.col + 1}: {self.rule} {self.message}"


@dataclass
class ParsedFile:
    """One successfully parsed source file."""

    path: Path
    display: str
    tree: ast.Module
    line_suppressions: Dict[int, FrozenSet[str]] = field(default_factory=dict)

    @property
    def parts(self) -> Tuple[str, ...]:
        """Path components, used by rules that scope to subtrees."""
        return self.path.parts

    def in_subtree(self, *names: str) -> bool:
        """True when any of ``names`` appears as a path component."""
        return any(name in self.parts for name in names)

    def is_suppressed(self, rule: str, line: int) -> bool:
        """True when ``rule`` is disabled on ``line``."""
        return rule in self.line_suppressions.get(line, frozenset())

    def finding(self, rule: str, node: ast.AST, message: str) -> Finding:
        """Build a finding anchored at ``node``'s position."""
        return Finding(
            path=self.display,
            line=int(getattr(node, "lineno", 1)),
            col=int(getattr(node, "col_offset", 0)),
            rule=rule,
            message=message,
        )


def _collect_suppressions(source: str) -> Dict[int, FrozenSet[str]]:
    per_line: Dict[int, FrozenSet[str]] = {}
    for number, text in enumerate(source.splitlines(), start=1):
        if "reprolint" not in text:
            continue
        match = _SUPPRESS_RE.search(text)
        if match is not None:
            per_line[number] = frozenset(
                name.strip() for name in match.group(1).split(",")
            )
    return per_line


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
            message=f"syntax error: {error.msg}",
        )
    return (
        ParsedFile(
            path=path,
            display=display,
            tree=tree,
            line_suppressions=_collect_suppressions(source),
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
