"""Rule registry of the ``reprolint`` engine.

Each rule module exposes ``RULE_ID`` and a ``check(project) ->
List[Finding]`` function; :data:`RULES` is the ordered tuple of those
modules the engine iterates.  Adding a rule is: write the module, add it
to :data:`RULES`.
"""

from __future__ import annotations

from repro.analysis.lint.rules import (
    atomic_claim,
    determinism,
    numeric_width,
    worker_purity,
)

__all__ = ["RULES"]

#: Every rule module, in registration (= report) order.
RULES = (determinism, worker_purity, numeric_width, atomic_claim)
