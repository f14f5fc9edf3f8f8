"""Lazy package exports (PEP 562).

A package ``__init__`` that imported every public name eagerly made any
``import repro.<anything>`` load the whole library first: the simulator,
the replay engine, every analysis view.  Packages now declare *where*
each public name lives and import it on first attribute access::

    __getattr__, __dir__, __all__ = lazy_exports(__name__, {
        "repro.core.analyzer": ("AnalysisResult", "analyze"),
    })

``from repro.core import analyze`` and ``repro.core.analyze`` work as
before; the defining module is imported then, and the name is cached
in the package namespace so later lookups are plain dict hits.  The
map is the package's ``__all__``; each package also repeats its exports
under ``if TYPE_CHECKING:`` so static tools see them.
"""

from __future__ import annotations

import importlib
import sys
import types
from collections.abc import Callable, Iterable, Mapping

__all__ = ["lazy_exports"]


class _LazyPackage(types.ModuleType):
    """Keeps an exported name bound when a same-named submodule loads.

    ``repro.core`` exports the function ``forecast`` from the submodule
    ``repro.core.forecast``.  Importing that submodule makes the import
    system bind the *module* as the package attribute ``forecast``; the
    eager ``__init__`` rebound it to the function right away, and this
    keeps that result.
    """

    def __setattr__(self, name: str, value) -> None:
        targets = self.__dict__.get("_lazy_targets", {})
        if (
            isinstance(value, types.ModuleType)
            and targets.get(name) == value.__name__ == f"{self.__name__}.{name}"
        ):
            value = getattr(value, name)
        super().__setattr__(name, value)


def lazy_exports(
    package: str, exports: Mapping[str, Iterable[str]]
) -> tuple[Callable[[str], object], Callable[[], list[str]], list[str]]:
    """Module ``__getattr__``, ``__dir__`` and ``__all__`` for ``package``.

    ``exports`` maps a defining module to the names it provides.
    """
    targets = {name: module for module, names in exports.items() for name in names}
    pkg = sys.modules[package]
    pkg.__dict__["_lazy_targets"] = targets
    pkg.__class__ = _LazyPackage
    namespace = pkg.__dict__

    def __getattr__(name: str) -> object:
        module = targets.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module), name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(set(namespace) | set(targets))

    return __getattr__, __dir__, list(targets)
