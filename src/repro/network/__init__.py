"""The 3-D mesh wormhole network: topology, e-cube routing, flit fabric."""

from .fabric import BUFFER_PHITS, Fabric, Worm
from .observatory import FABRIC_METRICS, FabricProbe, FabricReport
from .routing import ChannelKey, EJECT, INJECT, ecube_route, route_hops
from .stats import LatencySummary, NetworkStats
from .topology import Mesh3D
from .traffic import (
    DEFAULT_LOOP_OVERHEAD,
    RandomTrafficExperiment,
    RandomTrafficResult,
    TerminalBandwidthExperiment,
    TerminalBandwidthResult,
)

__all__ = [
    "BUFFER_PHITS",
    "Fabric",
    "Worm",
    "FABRIC_METRICS",
    "FabricProbe",
    "FabricReport",
    "ChannelKey",
    "EJECT",
    "INJECT",
    "ecube_route",
    "route_hops",
    "LatencySummary",
    "NetworkStats",
    "Mesh3D",
    "DEFAULT_LOOP_OVERHEAD",
    "RandomTrafficExperiment",
    "RandomTrafficResult",
    "TerminalBandwidthExperiment",
    "TerminalBandwidthResult",
]
