"""Package exports that load on first use (PEP 562).

A package ``__init__`` states one table, ``{source: names}``, each
source written as in a ``from <source> import <names>`` line (``"."``
exports submodules by name), and takes its ``__getattr__``,
``__dir__`` and ``__all__`` from :func:`lazy_exports`.  Importing the
package then loads none of its submodules: each loads when one of its
names is first looked up, and the value is kept on the package.
"""

from __future__ import annotations

import sys
from importlib import import_module
from typing import Dict, Tuple


def lazy_exports(package: str, table: Dict[str, Tuple[str, ...]]):
    """``(__getattr__, __dir__, __all__)`` for ``package`` over ``table``."""
    home = {name: source for source, names in table.items()
            for name in names}

    def __getattr__(name: str):
        source = home.get(name)
        if source is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        if source == ".":
            value = import_module(f"{package}.{name}")
        else:
            value = getattr(import_module(source, package), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__():
        return sorted(vars(sys.modules[package]).keys() | home.keys())

    return __getattr__, __dir__, list(home)
