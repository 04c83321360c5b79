"""Lazy re-exports for the package ``__init__`` modules (PEP 562).

A package that re-exports its submodules' public names would import every
submodule — and every module those import — the moment anything under it
is imported.  :func:`lazy_exports` instead gives the package a module-level
``__getattr__`` that imports a name's submodule on first access, so
``import repro.runner.db`` (or a ``repro`` CLI process) loads only the
modules it uses, while ``from repro import TestPlanner`` and
``from repro.runner import *`` keep working unchanged.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable, Mapping, Sequence


def lazy_exports(
    package: str, exports: Mapping[str, Sequence[str]]
) -> tuple[Callable[[str], Any], Callable[[], list[str]], list[str]]:
    """The ``__getattr__``, ``__dir__`` and ``__all__`` of a lazy package.

    ``exports`` maps each submodule (absolute name) to the names the
    package re-exports from it.  A name is imported on first access and
    then stored on the package, so later reads are plain attribute
    lookups.  An unknown name raises :class:`AttributeError`, as on any
    module.
    """
    origin = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str) -> Any:
        try:
            module = origin[name]
        except KeyError:
            raise AttributeError(f"module {package!r} has no attribute {name!r}") from None
        value = getattr(importlib.import_module(module), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list[str]:
        return sorted(set(vars(sys.modules[package])) | set(origin))

    return __getattr__, __dir__, list(origin)
