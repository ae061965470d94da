"""Lazy re-exports for packages whose ``__init__`` only re-exports.

A package names each re-exported value's submodule in one table and
binds the pair :func:`lazy_exports` returns as its module-level
``__getattr__`` and ``__dir__`` (PEP 562).  The first use of a name
imports its submodule and caches the value in the package namespace,
so importing the package loads none of its submodules, while
``from repro.obs import RunRegistry`` and ``repro.obs.RunRegistry``
work as they would with an eager import.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Dict, List, Tuple


def lazy_exports(package: str,
                 exports: Dict[str, str]) -> Tuple[Callable, Callable]:
    """``(__getattr__, __dir__)`` for ``package`` over ``name -> module``."""
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str):
        if name not in exports:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            )
        value = getattr(importlib.import_module(exports[name]), name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(exports))

    return __getattr__, __dir__
