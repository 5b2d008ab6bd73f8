"""Lazy package exports (PEP 562): a name's submodule loads when it is read.

A package lists what it re-exports as ``{submodule: names}`` and binds
the three values :func:`lazy_exports` returns::

    __all__, __getattr__, __dir__ = lazy_exports(__name__, {
        "engine": ["InferenceEngine"],
        ...
    })

``from package import InferenceEngine`` then imports ``package.engine``
and nothing else, and ``from package import *`` still binds every name
in ``__all__``.  A serve process starts a fresh interpreter and, with
no bytecode cache, compiles every line it imports, so it should import
only the code it runs.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable, Dict, List, Sequence, Tuple

__all__ = ["lazy_exports"]


def lazy_exports(package: str, exports: Dict[str, Sequence[str]]
                 ) -> Tuple[List[str], Callable[[str], Any],
                            Callable[[], List[str]]]:
    """``__all__``, ``__getattr__`` and ``__dir__`` for ``package``.

    ``exports`` maps a submodule to the names it provides; a name equal
    to its submodule's exports the submodule itself.  A resolved name is
    stored in the package, so its submodule is looked up once.
    """
    where = {name: module for module, names in exports.items()
             for name in names}
    namespace = vars(sys.modules[package])

    def __getattr__(name: str) -> Any:
        if name not in where:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        module = importlib.import_module(f"{package}.{where[name]}")
        value = module if name == where[name] else getattr(module, name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(where))

    return list(where), __getattr__, __dir__
