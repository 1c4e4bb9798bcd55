"""The 3-D mesh wormhole network: topology, e-cube routing, flit fabric."""

from .._lazy import lazy_exports

_EXPORTS = {
    ".fabric": ("BUFFER_PHITS", "Fabric", "Worm"),
    ".observatory": ("FABRIC_METRICS", "FabricProbe", "FabricReport"),
    ".routing": ("ChannelKey", "EJECT", "INJECT"),
    ".stats": ("LatencySummary", "NetworkStats"),
    ".topology": ("Mesh3D",),
    ".traffic": ("DEFAULT_LOOP_OVERHEAD", "RandomTrafficExperiment",
                 "RandomTrafficResult", "TerminalBandwidthExperiment",
                 "TerminalBandwidthResult"),
}
__getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)
