"""Lazy package re-exports (PEP 562).

A package lists its re-exports as ``{name: defining module}`` and gets a
module ``__getattr__`` that imports the defining module on first use.
``import repro`` and ``from repro import X`` keep working for every
name, but a process that needs one adapter — the subprocess worker —
no longer imports the whole package to get it.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable


def exports(package: str, table: dict[str, str]
            ) -> tuple[Callable[[str], Any], Callable[[], list[str]]]:
    """Return ``(__getattr__, __dir__)`` for *package* resolving *table*.

    A resolved name is stored on the package, so later lookups are plain
    attribute reads.  A name that is also a submodule of the package
    must be bound eagerly instead: importing the submodule sets the
    package attribute to the module, and ``__getattr__`` is then never
    asked.
    """
    def __getattr__(name: str) -> Any:
        module = table.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list[str]:
        return sorted(set(vars(sys.modules[package])) | set(table))

    return __getattr__, __dir__
