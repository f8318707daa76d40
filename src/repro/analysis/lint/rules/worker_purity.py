"""R003 — worker-payload purity.

``resilient_map`` re-runs tasks after crashes and may finish a payload
on the in-parent serial path, so a task function must be (a) picklable
— i.e. module-level, not a lambda, bound method, or closure — and
(b) free of mutable module-global mutation: a retried task that already
half-mutated a global produces different results on the retry, and the
parent/worker split means the mutation may or may not be visible at all.

Checked call sites: ``resilient_map(task, ...)`` and
``<pool>.submit(fn, ...)`` / ``<pool>.map(fn, ...)`` on
``ProcessPoolExecutor``-like objects.
"""

from __future__ import annotations

import ast
from typing import List, Optional, Set

from repro.analysis.lint.model import Finding, ParsedFile, Project
from repro.analysis.lint.rules._common import call_keywords, top_level_functions

RULE_ID = "R003"

_POOL_METHODS = frozenset({"submit", "map"})


def _call_name(call: ast.Call) -> Optional[str]:
    if isinstance(call.func, ast.Name):
        return call.func.id
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    return None


def _worker_expressions(call: ast.Call) -> List[ast.expr]:
    """The function-valued arguments of one dispatch call."""
    name = _call_name(call)
    workers: List[ast.expr] = []
    if name == "resilient_map":
        if call.args:
            workers.append(call.args[0])
        keywords = call_keywords(call)
        if "task" in keywords:
            workers.append(keywords["task"])
    elif (
        name in _POOL_METHODS
        and isinstance(call.func, ast.Attribute)
        and call.args
    ):
        # Only pool-ish receivers: a bare ``map(fn, xs)`` builtin call has
        # a Name func and is skipped above; ``<obj>.map`` is checked only
        # when the receiver name suggests an executor/pool.
        receiver = call.func.value
        if isinstance(receiver, ast.Name) and (
            "pool" in receiver.id.lower() or "executor" in receiver.id.lower()
        ):
            workers.append(call.args[0])
    return workers


def _mutated_globals(function: ast.AST) -> Set[str]:
    """Names a function declares ``global`` and then writes."""
    declared: Set[str] = set()
    for node in ast.walk(function):
        if isinstance(node, ast.Global):
            declared.update(node.names)
    if not declared:
        return set()
    written: Set[str] = set()
    for node in ast.walk(function):
        targets: List[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = list(node.targets)
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        for target in targets:
            if isinstance(target, ast.Name) and target.id in declared:
                written.add(target.id)
    return written


def _check_worker(
    parsed: ParsedFile, expression: ast.expr, dispatch: str
) -> List[Finding]:
    if isinstance(expression, ast.Lambda):
        return [
            parsed.finding(
                RULE_ID,
                expression,
                f"lambda passed to {dispatch} is not picklable and cannot "
                "cross a process boundary; define a module-level function",
            )
        ]
    if isinstance(expression, ast.Attribute):
        return [
            parsed.finding(
                RULE_ID,
                expression,
                f"bound attribute `{ast.unparse(expression)}` passed to "
                f"{dispatch}; workers must be plain module-level functions",
            )
        ]
    if not isinstance(expression, ast.Name):
        return [
            parsed.finding(
                RULE_ID,
                expression,
                f"non-name worker expression passed to {dispatch}; "
                "pass a module-level function by name",
            )
        ]
    top = top_level_functions(parsed.tree)
    definition = top.get(expression.id)
    if definition is None:
        # Locally defined but not module-level => closure; imported names
        # are assumed module-level in their home module.
        for node in ast.walk(parsed.tree):
            if (
                isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and node.name == expression.id
            ):
                return [
                    parsed.finding(
                        RULE_ID,
                        expression,
                        f"`{expression.id}` is a nested function; workers "
                        f"passed to {dispatch} must be module-level to be "
                        "picklable",
                    )
                ]
        return []
    mutated = _mutated_globals(definition)
    if mutated:
        names = ", ".join(sorted(mutated))
        return [
            parsed.finding(
                RULE_ID,
                expression,
                f"worker `{expression.id}` mutates module global(s) {names}; "
                "retried/replayed tasks would observe divergent state",
            )
        ]
    return []


def check(project: Project) -> List[Finding]:
    findings: List[Finding] = []
    for parsed in project.iter_files():
        for node in ast.walk(parsed.tree):
            if not isinstance(node, ast.Call):
                continue
            dispatch = _call_name(node) or "pool dispatch"
            for expression in _worker_expressions(node):
                findings.extend(_check_worker(parsed, expression, dispatch))
    return findings
