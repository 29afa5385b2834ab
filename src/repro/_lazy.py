"""Lazy package facades (PEP 562).

Every package ``__init__`` keeps its public names in one table,
``_EXPORTS = {name: defining submodule}``, derives ``__all__`` from it
and installs the two hooks :func:`facade` returns.  Importing a package
then imports none of its submodules.  The first read of a name imports
the one submodule that defines it and binds the object into the
package, so later reads are plain attribute lookups.  A name mapped to
itself is a submodule: ``repro.experiments`` exports its modules.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable


def facade(
    package: str, exports: dict[str, str]
) -> tuple[Callable[[str], Any], Callable[[], list[str]]]:
    """The module-level ``__getattr__`` and ``__dir__`` of ``package``."""

    def __getattr__(name: str) -> Any:
        try:
            submodule = exports[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        module = importlib.import_module(f"{package}.{submodule}")
        value = module if submodule == name else getattr(module, name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list[str]:
        return sorted({*vars(sys.modules[package]), *exports})

    return __getattr__, __dir__
