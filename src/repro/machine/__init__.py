"""Whole-machine simulation: nodes, configuration, and the global loop."""

from .._lazy import lazy_exports

_EXPORTS = {
    ".config": ("MachineConfig",),
    ".jmachine": ("JMachine",),
    ".node": ("Node", "NodeNetworkInterface"),
    ".stop": ("StopFlags",),
}
__getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)
