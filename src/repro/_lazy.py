"""PEP 562 lazy re-exports for the ``repro`` packages.

A package's ``__init__`` lists which module defines each public name
instead of importing it; the first attribute access imports the
defining module and caches the object in the package namespace.
``import repro`` therefore costs almost nothing, and a command loads
only the subsystems it actually touches.
"""

from __future__ import annotations

import sys
from importlib import import_module
from typing import Any, Callable


def lazy_exports(
    package: str, modules: dict[str, tuple[str, ...]]
) -> tuple[Callable[[str], Any], Callable[[], list[str]]]:
    """The ``(__getattr__, __dir__)`` pair re-exporting ``modules`` lazily.

    ``modules`` maps a defining module to the names ``package`` takes
    from it.  A name equal to the module's last dotted component
    exports the module itself, e.g. ``{"repro.obs": ("obs",)}``.
    """
    table = {  # name -> (module, attr); attr None = the module itself
        name: (module, None if module.rpartition(".")[2] == name else name)
        for module, names in modules.items()
        for name in names
    }

    def __getattr__(name: str) -> Any:
        try:
            module, attr = table[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        value = import_module(module)
        if attr is not None:
            value = getattr(value, attr)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list[str]:
        return sorted(set(vars(sys.modules[package])) | set(table))

    return __getattr__, __dir__
