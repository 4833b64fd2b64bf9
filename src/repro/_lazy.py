"""Lazy package re-exports (PEP 562).

A package ``__init__`` that re-exports names from its submodules would
otherwise import every submodule, and everything those import, whenever
any part of the package is used.  :func:`lazy_exports` instead returns a
module ``__getattr__``/``__dir__`` pair that imports a name's defining
submodule on first access, so a process loads only the layers it uses:
a worker agent that decodes and simulates never loads the trace
generators (and numpy) or the campaign tier.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Mapping


def lazy_exports(
    package: str, table: Mapping[str, tuple[str, ...]]
) -> tuple[Callable[[str], object], Callable[[], list[str]]]:
    """The ``(__getattr__, __dir__)`` hooks for ``package``.

    ``table`` maps each defining submodule to the names it exports.  A
    resolved name is cached in the package namespace, so the hook runs
    once per name.
    """
    owner = {name: module for module, names in table.items() for name in names}

    def __getattr__(name: str) -> object:
        module = owner.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list[str]:
        return sorted(set(vars(sys.modules[package])) | set(owner))

    return __getattr__, __dir__
