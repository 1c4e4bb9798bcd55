"""Concurrent-Smalltalk-style distributed objects over the macro simulator."""

from .._lazy import lazy_exports

_EXPORTS = {
    ".objects": ("CstObject", "CstRuntime", "Future", "method"),
}
__getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)
