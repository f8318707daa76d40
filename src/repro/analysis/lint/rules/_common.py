"""AST helpers shared by the lint rules.

Rules work on names *as written*: the engine never imports the code it
checks, so "is this ``np.random``?" is answered by resolving the call's
attribute chain through the file's import aliases, not by inspecting a
live module object.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional


def import_aliases(tree: ast.Module) -> Dict[str, str]:
    """Map local names to the dotted module/object paths they import.

    ``import numpy as np`` yields ``{"np": "numpy"}``;
    ``from numpy import random`` yields ``{"random": "numpy.random"}``.
    Star imports are ignored (nothing to resolve through).
    """
    aliases: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for name in node.names:
                local = name.asname or name.name.split(".", 1)[0]
                aliases[local] = name.name if name.asname else local
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for name in node.names:
                if name.name == "*":
                    continue
                aliases[name.asname or name.name] = f"{node.module}.{name.name}"
    return aliases


def dotted_name(node: ast.AST, aliases: Dict[str, str]) -> Optional[str]:
    """The dotted path a Name/Attribute chain refers to, alias-resolved.

    ``np.random.randint`` with ``np -> numpy`` resolves to
    ``numpy.random.randint``; returns None for anything that is not a
    plain attribute chain rooted at a name (calls, subscripts, ...).
    """
    parts: List[str] = []
    current = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if not isinstance(current, ast.Name):
        return None
    root = aliases.get(current.id, current.id)
    parts.append(root)
    return ".".join(reversed(parts))


def call_keywords(call: ast.Call) -> Dict[str, ast.expr]:
    """Explicit keyword arguments of a call (``**kwargs`` entries skipped)."""
    return {kw.arg: kw.value for kw in call.keywords if kw.arg is not None}


def top_level_functions(tree: ast.Module) -> Dict[str, ast.AST]:
    """Module-level (picklable) function definitions by name."""
    functions: Dict[str, ast.AST] = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            functions[node.name] = node
    return functions


def string_constant(node: ast.AST) -> Optional[str]:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def int_constant(node: ast.AST) -> Optional[int]:
    if (
        isinstance(node, ast.Constant)
        and isinstance(node.value, int)
        and not isinstance(node.value, bool)
    ):
        return node.value
    return None


def is_all_ones_mask(value: int) -> bool:
    """True for 0b111...1 literals of at least 3 bits (7, 15, 31, ...)."""
    return value >= 7 and (value & (value + 1)) == 0
