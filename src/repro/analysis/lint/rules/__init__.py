"""Rule registry of the ``reprolint`` engine.

Each rule module exposes ``RULE_ID``, ``SEVERITY``, ``SUMMARY``, and a
``check(project) -> List[Finding]`` function; this package assembles
them into the ordered registry the engine iterates.  Adding a rule is:
write the module, add it to ``_RULE_MODULES``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, List, Optional, Tuple

from repro.analysis.lint.model import Finding, Project, severity_rank
from repro.analysis.lint.rules import (
    api_stability,
    atomic_claim,
    determinism,
    numeric_width,
    observability,
    worker_purity,
)

__all__ = ["Rule", "all_rules", "select_rules"]


@dataclass(frozen=True)
class Rule:
    """One registered lint rule."""

    id: str
    severity: str
    summary: str
    check: Callable[[Project], List[Finding]]


_RULE_MODULES = (
    determinism,
    worker_purity,
    numeric_width,
    observability,
    api_stability,
    atomic_claim,
)


def _build_registry() -> Tuple[Rule, ...]:
    rules: List[Rule] = []
    seen: Dict[str, str] = {}
    for module in _RULE_MODULES:
        rule = Rule(
            id=module.RULE_ID,
            severity=module.SEVERITY,
            summary=module.SUMMARY,
            check=module.check,
        )
        severity_rank(rule.severity)  # validate at registration time
        if rule.id in seen:
            raise ValueError(f"duplicate rule id {rule.id}")
        seen[rule.id] = rule.severity
        rules.append(rule)
    return tuple(rules)


_REGISTRY = _build_registry()


def all_rules() -> Tuple[Rule, ...]:
    """Every registered rule, in registration (= report) order."""
    return _REGISTRY


def select_rules(
    select: Optional[FrozenSet[str]] = None,
    ignore: Optional[FrozenSet[str]] = None,
) -> Tuple[Rule, ...]:
    """The registry filtered to ``select`` (if given) minus ``ignore``.

    Unknown ids in either set raise, so a typo in ``--select R0001``
    fails loudly instead of silently checking nothing.
    """
    known = {rule.id for rule in _REGISTRY}
    for requested in sorted((select or frozenset()) | (ignore or frozenset())):
        if requested not in known:
            raise ValueError(
                f"unknown rule id {requested!r}; known: {', '.join(sorted(known))}"
            )
    chosen: List[Rule] = []
    for rule in _REGISTRY:
        if select is not None and rule.id not in select:
            continue
        if ignore is not None and rule.id in ignore:
            continue
        chosen.append(rule)
    return tuple(chosen)
