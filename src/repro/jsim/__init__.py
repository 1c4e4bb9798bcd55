"""Event-driven macro simulator: handler-level execution with cycle costs."""

from .calibrate import CalibrationResult, calibrate
from .netmodel import LatencyModel
from .profile import CATEGORIES, Profile
from .sim import Context, HandlerStats, MacroConfig, MacroSimulator, SimNode

__all__ = [
    "CalibrationResult",
    "calibrate",
    "LatencyModel",
    "CATEGORIES",
    "Profile",
    "Context",
    "HandlerStats",
    "MacroConfig",
    "MacroSimulator",
    "SimNode",
]
