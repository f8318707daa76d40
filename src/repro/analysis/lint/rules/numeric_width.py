"""R004 — numeric-width safety.

BHR/GCIR/CIR arithmetic is all masked fixed-width integer state; the
paper's tables only reproduce when every mask agrees with the configured
width.  Two hazards are statically visible:

* **hard-coded all-ones mask literals** (``& 4095``, ``% 0xFFFF``) inside
  a function that *receives* a width parameter (``history_bits``,
  ``cir_bits``, ...): the literal silently stops matching when the width
  is reconfigured (Fig. 10 runs the 12-bit predictor through the same
  kernels as the 16-bit one).  Derive the mask from the parameter, e.g.
  ``bit_mask(history_bits)``.
* **dtype-less numpy allocations** (``np.zeros(n)``) in numeric layers:
  the float64 default silently widens integer pipelines and doubles the
  working set of hot kernels; state the dtype explicitly.  A dtype-less
  ``np.arange`` is flagged too: it yields the platform-default integer
  (``np.int_``), whose width differs across hosts.
* **out-of-range fixed-width constructors** (``np.uint8(511)``), flagged
  everywhere: the literal does not fit the width, so numpy wraps it or
  raises depending on its version.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional

from repro.analysis.lint.model import Finding, ParsedFile, Project
from repro.analysis.lint.rules._common import (
    call_keywords,
    dotted_name,
    import_aliases,
    int_constant,
    is_all_ones_mask,
)

RULE_ID = "R004"
SEVERITY = "warning"
SUMMARY = (
    "numeric-width safety: hard-coded mask literals, dtype-less numpy "
    "allocations, out-of-range fixed-width literals"
)

#: Subtrees where mask literals must derive from width parameters.
_MASK_SCOPES = ("sim", "core")

#: Subtrees where allocations must state a dtype.
_DTYPE_SCOPES = ("sim", "core", "analysis", "experiments", "apps")

#: numpy allocators whose dtype defaults to float64.
_ALLOCATORS = frozenset({"numpy.zeros", "numpy.ones", "numpy.empty"})

#: Inclusive value range of each fixed-width numpy integer constructor.
_INT_RANGES = {
    f"numpy.{kind}{bits}": (
        (-(1 << (bits - 1)), (1 << (bits - 1)) - 1)
        if kind == "int"
        else (0, (1 << bits) - 1)
    )
    for kind in ("int", "uint")
    for bits in (8, 16, 32, 64)
}


def _width_parameters(function: ast.AST) -> List[str]:
    names: List[str] = []
    args = getattr(function, "args", None)
    if args is None:
        return names
    for arg in list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs):
        if arg.arg.endswith("_bits") or arg.arg in {"bits", "width"}:
            names.append(arg.arg)
    return names


def _mask_findings(parsed: ParsedFile) -> List[Finding]:
    findings: List[Finding] = []
    if not parsed.in_subtree(*_MASK_SCOPES):
        return findings
    for node in ast.walk(parsed.tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        widths = _width_parameters(node)
        if not widths:
            continue
        for inner in ast.walk(node):
            if not (
                isinstance(inner, ast.BinOp)
                and isinstance(inner.op, (ast.BitAnd, ast.Mod))
            ):
                continue
            for operand in (inner.left, inner.right):
                value = int_constant(operand)
                if value is not None and is_all_ones_mask(value):
                    findings.append(
                        parsed.finding(
                            RULE_ID,
                            SEVERITY,
                            operand,
                            f"hard-coded mask literal {value} (= {value.bit_length()} "
                            f"all-ones bits) in `{node.name}`, which takes width "
                            f"parameter(s) {', '.join(widths)}; derive the mask from "
                            "the parameter (e.g. bit_mask(...)) so reconfigured "
                            "widths stay consistent",
                        )
                    )
    return findings


def _signed_int(node: ast.AST) -> Optional[int]:
    """An int literal, including a negated one (``-1``)."""
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        value = int_constant(node.operand)
        return None if value is None else -value
    return int_constant(node)


def _dtype_findings(parsed: ParsedFile, aliases: Dict[str, str]) -> List[Finding]:
    findings: List[Finding] = []
    in_scope = parsed.in_subtree(*_DTYPE_SCOPES)
    for node in ast.walk(parsed.tree):
        if not isinstance(node, ast.Call):
            continue
        name = dotted_name(node.func, aliases)
        if name in _INT_RANGES and len(node.args) == 1:
            low, high = _INT_RANGES[name]
            value = _signed_int(node.args[0])
            if value is not None and not low <= value <= high:
                findings.append(
                    parsed.finding(
                        RULE_ID,
                        SEVERITY,
                        node,
                        f"`{name}({value})` is outside its range "
                        f"[{low}, {high}]; numpy wraps or rejects it",
                    )
                )
            continue
        if not in_scope or "dtype" in call_keywords(node):
            continue
        if name in _ALLOCATORS and len(node.args) < 2:
            message = (
                f"`{name}` without an explicit dtype allocates float64 by "
                "default; state the dtype so integer pipelines do not "
                "silently widen"
            )
        elif name == "numpy.arange" and len(node.args) < 4:
            message = (
                "`numpy.arange` without an explicit dtype yields the "
                "platform-default integer (np.int_), whose width differs "
                "across hosts; pass e.g. dtype=np.int64"
            )
        else:
            continue
        findings.append(parsed.finding(RULE_ID, SEVERITY, node, message))
    return findings


def check(project: Project) -> List[Finding]:
    findings: List[Finding] = []
    for parsed in project.iter_files():
        aliases = import_aliases(parsed.tree)
        findings.extend(_mask_findings(parsed))
        findings.extend(_dtype_findings(parsed, aliases))
    return findings
