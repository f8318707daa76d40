"""R001 — determinism.

Every figure in the reproduction is pinned by golden numbers, and the
chunked/monolithic equality suite assumes a run is a pure function of
``(config, seed)``.  Three things quietly break that:

* **unseeded RNG** — ``random.*`` module calls or ``np.random.*`` legacy
  calls draw from global state; only an explicitly seeded
  ``np.random.default_rng(seed)`` / ``random.Random(seed)`` is allowed;
* **wall-clock reads in the simulation layers** — ``time``/``datetime``
  values leaking into ``sim/`` or ``experiments/`` results make reruns
  diverge (timing *instrumentation* is fine, but must be explicitly
  suppressed so the exception is visible in review);
* **set-order iteration** — iterating a ``set``/``frozenset`` feeds
  hash-order into whatever accumulates the elements; wrap the iterable
  in ``sorted(...)``.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Tuple

from repro.analysis.lint.model import Finding, ParsedFile, Project
from repro.analysis.lint.rules._common import dotted_name, import_aliases

RULE_ID = "R001"

#: Constructors that are fine *when given an explicit seed argument*
#: (a literal ``None`` seed requests OS entropy and does not count).
_SEEDABLE = frozenset(
    {
        "numpy.random.default_rng",
        "numpy.random.Generator",
        "numpy.random.PCG64",
        "numpy.random.Philox",
        "numpy.random.SeedSequence",
        "random.Random",
    }
)

#: Subtrees where wall-clock reads poison cached/recorded results.
_CLOCK_SCOPES = ("sim", "experiments")


def _seed_argument_is_none(call: ast.Call) -> bool:
    """True when the call's only argument is a literal ``None`` seed."""
    if len(call.args) == 1 and not call.keywords:
        argument = call.args[0]
        return isinstance(argument, ast.Constant) and argument.value is None
    if not call.args and len(call.keywords) == 1:
        keyword = call.keywords[0]
        return (
            keyword.arg == "seed"
            and isinstance(keyword.value, ast.Constant)
            and keyword.value.value is None
        )
    return False


def _check_rng_call(
    parsed: ParsedFile, call: ast.Call, aliases: Dict[str, str]
) -> List[Finding]:
    name = dotted_name(call.func, aliases)
    if name is None:
        return []
    if name in _SEEDABLE:
        has_arguments = bool(call.args or call.keywords)
        if has_arguments and not _seed_argument_is_none(call):
            return []
        spelled = (
            f"`{name}(None)` seeded with None still"
            if has_arguments
            else f"`{name}()` without a seed"
        )
        return [
            parsed.finding(
                RULE_ID,
                call,
                f"{spelled} draws OS entropy; "
                "pass an explicit seed (see repro.utils.rng.derive_seed)",
            )
        ]
    if name.startswith("random.") or name.startswith("numpy.random."):
        return [
            parsed.finding(
                RULE_ID,
                call,
                f"`{name}` uses global RNG state; use an explicitly "
                "seeded np.random.default_rng(...) generator instead",
            )
        ]
    return []


def _check_clock_call(
    parsed: ParsedFile, call: ast.Call, aliases: Dict[str, str]
) -> List[Finding]:
    if not parsed.in_subtree(*_CLOCK_SCOPES):
        return []
    name = dotted_name(call.func, aliases)
    if name is None:
        return []
    if name.startswith("time.") or name.startswith("datetime."):
        return [
            parsed.finding(
                RULE_ID,
                call,
                f"`{name}` reads the wall clock inside {'/'.join(_CLOCK_SCOPES)}; "
                "results must be a pure function of (config, seed) — if this is "
                "timing instrumentation only, suppress with a justification",
            )
        ]
    return []


def _is_set_expression(node: ast.expr) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in {"set", "frozenset"}
    return False


def _iteration_sites(tree: ast.Module) -> List[Tuple[ast.AST, ast.expr]]:
    sites: List[Tuple[ast.AST, ast.expr]] = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.For, ast.AsyncFor)):
            sites.append((node, node.iter))
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)):
            for generator in node.generators:
                sites.append((node, generator.iter))
    return sites


def check(project: Project) -> List[Finding]:
    findings: List[Finding] = []
    for parsed in project.iter_files():
        aliases = import_aliases(parsed.tree)
        for node in ast.walk(parsed.tree):
            if isinstance(node, ast.Call):
                findings.extend(_check_rng_call(parsed, node, aliases))
                findings.extend(_check_clock_call(parsed, node, aliases))
        for _, iterable in _iteration_sites(parsed.tree):
            if _is_set_expression(iterable):
                findings.append(
                    parsed.finding(
                        RULE_ID,
                        iterable,
                        "iteration over a set feeds hash order into the loop; "
                        "wrap the iterable in sorted(...)",
                    )
                )
    return findings
