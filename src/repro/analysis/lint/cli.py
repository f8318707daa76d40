"""Command-line front end of ``reprolint``: paths in, findings out.

Reached two ways, both sharing :func:`main`:

* ``repro lint [paths...]`` — subcommand of the main CLI;
* ``python -m repro.analysis [paths...]`` — no CLI install needed.

Exit status: 0 when clean, 1 on any finding, 2 on a usage error (an
unknown option or a missing path).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from repro.analysis.lint.engine import run_lint


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
        "(determinism, worker purity, numeric-width safety, atomic claims)",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        type=Path,
        help="files or directories to lint (default: src/repro)",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    options = build_parser().parse_args(list(argv) if argv is not None else None)
    paths: List[Path] = list(options.paths) or [default_target()]
    for path in paths:
        if not path.exists():
            print(f"reprolint: path does not exist: {path}", file=sys.stderr)
            return 2
    result = run_lint(paths)
    for line in result.render_lines():
        print(line)
    return result.exit_code


if __name__ == "__main__":  # pragma: no cover - exercised via -m
    sys.exit(main())
