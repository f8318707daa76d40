"""Lazy package exports (PEP 562).

A package ``__init__`` lists where each public name lives and imports
nothing itself::

    _EXPORTS = {"Trace": "repro.traces.trace", ...}
    __getattr__ = lazy_exports(__name__, _EXPORTS)

The first access of a name imports its home module and binds the value
on the package, so later accesses are plain attribute reads.  Importing
a package (or a submodule through it) therefore costs only its own
``__init__``: ``repro list`` and a warm ``repro run-all`` start without
numpy.
"""

from __future__ import annotations

import sys
from importlib import import_module
from typing import Any, Callable, Dict


def lazy_exports(package: str, exports: Dict[str, str]) -> Callable[[str], Any]:
    """The module ``__getattr__`` of ``package``.

    ``exports`` maps each public name to the module that defines it.
    An unknown name raises ``AttributeError``, so ``from package import
    submodule`` still falls back to importing the submodule.
    """

    def __getattr__(name: str) -> Any:
        module = exports.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(import_module(module), name)
        setattr(sys.modules[package], name, value)
        return value

    return __getattr__
