"""R007 — atomic claim discipline for lease/claim files.

The fabric's mutual exclusion rests on one filesystem guarantee:
``open(O_CREAT | O_EXCL)`` (spelled ``"x"`` mode at the ``open()``
level) admits exactly one winner.  Any other way of bringing a lease
file into existence — a truncating ``"w"`` open, ``write_text``, a bare
``touch()`` — lets two workers both believe they claimed the unit, and
an ``exists()`` probe before creating is the classic check-then-act
race: the file can appear between the check and the act.

The rule therefore flags, on any expression whose names mention a lease
or claim file:

* ``open``/``Path.open`` with a creating mode (``w``/``a``) lacking
  ``x``, and ``os.open`` whose flags never mention ``O_EXCL``;
* ``write_text``/``write_bytes`` (truncate-or-create, never exclusive);
* ``touch()`` without ``exist_ok=False`` (with it, ``touch`` raises
  ``FileExistsError`` atomically and is a legitimate claim);
* ``.exists()`` / ``os.path.exists`` probes (liveness must be judged
  from ``os.stat`` catching ``FileNotFoundError``, not a boolean that
  is stale the moment it returns).

Reads (``"r"`` modes, ``read_text``, ``os.stat``) are fine: inspecting
a lease is not racing to create one.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional

from repro.analysis.lint.model import Finding, ParsedFile, Project
from repro.analysis.lint.rules._common import (
    call_keywords,
    dotted_name,
    import_aliases,
    string_constant,
)

RULE_ID = "R007"

#: Substrings (of identifiers, attributes, or string literals inside the
#: path expression) that mark a file as a mutual-exclusion artifact.
_LEASE_TOKENS = ("lease", "claim")

#: ``open``-family callables with builtin-open semantics (path, mode).
_OPEN_BUILTINS = frozenset({"open", "io.open", "builtins.open"})


def _lease_like(text: str) -> bool:
    lowered = text.lower()
    return any(token in lowered for token in _LEASE_TOKENS)


def _mentions_lease(node: Optional[ast.AST]) -> bool:
    """True when any name/attribute/string inside ``node`` is lease-like."""
    if node is None:
        return False
    for child in ast.walk(node):
        if isinstance(child, ast.Name) and _lease_like(child.id):
            return True
        if isinstance(child, ast.Attribute) and _lease_like(child.attr):
            return True
        text = string_constant(child)
        if text is not None and _lease_like(text):
            return True
    return False


def _mentions_o_excl(node: Optional[ast.AST]) -> bool:
    if node is None:
        return False
    for child in ast.walk(node):
        if isinstance(child, ast.Attribute) and child.attr == "O_EXCL":
            return True
        if isinstance(child, ast.Name) and child.id == "O_EXCL":
            return True
    return False


def _argument(
    call: ast.Call, position: int, keyword: str
) -> Optional[ast.expr]:
    if len(call.args) > position:
        return call.args[position]
    return call_keywords(call).get(keyword)


def _creating_mode(mode: Optional[ast.expr]) -> bool:
    """True for a constant mode string that creates non-exclusively.

    A missing mode is ``"r"`` (read, safe); a non-constant mode cannot
    be judged statically and is left alone.
    """
    if mode is None:
        return False
    text = string_constant(mode)
    if text is None:
        return False
    return ("w" in text or "a" in text) and "x" not in text


def _check_call(
    parsed: ParsedFile, call: ast.Call, aliases: Dict[str, str]
) -> Optional[Finding]:
    dotted = dotted_name(call.func, aliases)
    attr = call.func.attr if isinstance(call.func, ast.Attribute) else None
    receiver = call.func.value if isinstance(call.func, ast.Attribute) else None

    if dotted == "os.open":
        path = _argument(call, 0, "path")
        flags = _argument(call, 1, "flags")
        if _mentions_lease(path) and not _mentions_o_excl(flags):
            return parsed.finding(
                RULE_ID,
                call,
                "os.open on a lease/claim path without O_EXCL: two workers "
                "can both create the file and both believe they own the "
                "unit; claim with O_CREAT | O_EXCL and treat "
                "FileExistsError as 'lost the race'",
            )
        return None

    if dotted in _OPEN_BUILTINS:
        path = _argument(call, 0, "file")
        mode = _argument(call, 1, "mode")
        if _mentions_lease(path) and _creating_mode(mode):
            return parsed.finding(
                RULE_ID,
                call,
                "open() on a lease/claim path with a non-exclusive creating "
                "mode: 'w'/'a' silently succeed for every racer; use mode "
                "'x' so exactly one claimer wins",
            )
        return None

    if attr == "open" and _mentions_lease(receiver):
        if _creating_mode(_argument(call, 0, "mode")):
            return parsed.finding(
                RULE_ID,
                call,
                ".open() on a lease/claim path with a non-exclusive "
                "creating mode: use mode 'x' so exactly one claimer wins",
            )
        return None

    if attr in ("write_text", "write_bytes") and _mentions_lease(receiver):
        return parsed.finding(
            RULE_ID,
            call,
            f".{attr}() on a lease/claim path truncates-or-creates and "
            "never fails on an existing file; claim through an O_EXCL "
            "create instead",
        )

    if attr == "touch" and _mentions_lease(receiver):
        exist_ok = call_keywords(call).get("exist_ok")
        if not (
            isinstance(exist_ok, ast.Constant) and exist_ok.value is False
        ):
            return parsed.finding(
                RULE_ID,
                call,
                ".touch() on a lease/claim path succeeds whether or not "
                "the file existed; pass exist_ok=False so the claim "
                "raises FileExistsError for every racer but one",
            )
        return None

    if dotted == "os.path.exists" and _mentions_lease(_argument(call, 0, "path")):
        return parsed.finding(
            RULE_ID,
            call,
            "os.path.exists on a lease/claim path is check-then-act: the "
            "answer is stale the moment it returns; attempt the O_EXCL "
            "create (or os.stat and catch FileNotFoundError) instead",
        )

    if attr == "exists" and not call.args and _mentions_lease(receiver):
        return parsed.finding(
            RULE_ID,
            call,
            ".exists() on a lease/claim path is check-then-act: the "
            "answer is stale the moment it returns; attempt the O_EXCL "
            "create (or os.stat and catch FileNotFoundError) instead",
        )

    return None


def check(project: Project) -> List[Finding]:
    findings: List[Finding] = []
    for parsed in project.iter_files():
        aliases = import_aliases(parsed.tree)
        for node in ast.walk(parsed.tree):
            if not isinstance(node, ast.Call):
                continue
            finding = _check_call(parsed, node, aliases)
            if finding is not None:
                findings.append(finding)
    return findings
