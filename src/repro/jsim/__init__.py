"""Event-driven macro simulator: handler-level execution with cycle costs."""

from .._lazy import lazy_exports

_EXPORTS = {
    ".calibrate": ("CalibrationResult",),
    ".netmodel": ("LatencyModel",),
    ".profile": ("CATEGORIES", "Profile"),
    ".sim": ("Context", "HandlerStats", "MacroConfig", "MacroSimulator",
             "SimNode"),
}
__getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)
