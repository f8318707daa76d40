"""Command-line front end of ``reprolint``.

Reached three ways, all sharing :func:`main`:

* ``repro lint [paths...]`` — subcommand of the main CLI;
* ``python -m repro.analysis [paths...]`` — no CLI install needed;
* direct import from tests and the CI benchmark gate.

Exit status: 0 when clean at the ``--fail-on`` threshold, 1 when
findings meet it, 2 on usage errors (unknown rule ids, bad paths).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import FrozenSet, List, Optional, Sequence, Set

from repro.analysis.lint.autofix import apply_fixes
from repro.analysis.lint.engine import DEFAULT_FAIL_ON, run_lint
from repro.analysis.lint.model import SEVERITIES
from repro.analysis.lint.rules import all_rules


def default_target() -> Path:
    """The tree to lint when no paths are given: ``src/repro`` if present."""
    for candidate in (Path("src") / "repro", Path("src")):
        if candidate.is_dir():
            return candidate
    return Path(".")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description="AST-based invariant checker for the reproduction "
        "(determinism, worker purity, numeric-width safety, ...)",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        type=Path,
        help="files or directories to lint (default: src/repro)",
    )
    parser.add_argument(
        "--select",
        action="append",
        default=None,
        metavar="RULES",
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--ignore",
        action="append",
        default=None,
        metavar="RULES",
        help="comma-separated rule ids to skip",
    )
    parser.add_argument(
        "--fail-on",
        choices=list(SEVERITIES),
        default=DEFAULT_FAIL_ON,
        help=f"lowest severity that fails the run (default: {DEFAULT_FAIL_ON})",
    )
    parser.add_argument(
        "--format",
        choices=("human", "json"),
        default="human",
        help="report format (default: human)",
    )
    parser.add_argument(
        "--fix",
        action="store_true",
        help="apply mechanical autofixes (sorted set iteration, "
        "missing __all__ entries) before linting",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule registry and exit",
    )
    return parser


def _parse_rule_set(values: Optional[List[str]]) -> Optional[FrozenSet[str]]:
    if not values:
        return None
    names: Set[str] = set()
    for value in values:
        names.update(part.strip() for part in value.split(",") if part.strip())
    return frozenset(names)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    options = parser.parse_args(list(argv) if argv is not None else None)

    if options.list_rules:
        for rule in all_rules():
            print(f"{rule.id} [{rule.severity}] {rule.summary}")
        return 0

    paths: List[Path] = list(options.paths) or [default_target()]
    for path in paths:
        if not path.exists():
            print(f"reprolint: path does not exist: {path}", file=sys.stderr)
            return 2

    if options.fix:
        for edit in apply_fixes(paths):
            print(f"fixed {edit.path}:{edit.line}: {edit.description}")

    try:
        result = run_lint(
            paths,
            select=_parse_rule_set(options.select),
            ignore=_parse_rule_set(options.ignore),
            fail_on=options.fail_on,
        )
    except ValueError as error:
        print(f"reprolint: {error}", file=sys.stderr)
        return 2

    if options.format == "json":
        print(json.dumps(result.to_dict(), indent=2, sort_keys=True))
    else:
        for line in result.render_lines():
            print(line)
    return result.exit_code


if __name__ == "__main__":  # pragma: no cover - exercised via -m
    sys.exit(main())
