"""Machine configuration: one place to describe a J-Machine instance."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

from ..core.costs import CostModel, DEFAULT_COSTS
from ..core.errors import ConfigurationError
from ..network.fabric import DEFAULT_EJECT_LATENCY, DEFAULT_INJECT_LATENCY
from ..network.topology import Mesh3D

__all__ = ["MachineConfig"]


@dataclass
class MachineConfig:
    """Parameters of a simulated J-Machine.

    The defaults describe the 512-node prototype the paper evaluates:
    8x8x8 mesh, 12.5 MHz clock (in :class:`CostModel`), Tuned-J queue
    configuration of 128 minimum-length messages per priority.
    """

    dims: Tuple[int, int, int] = (8, 8, 8)
    costs: CostModel = field(default_factory=lambda: DEFAULT_COSTS)
    #: Per-priority hardware queue capacity in words (None = default).
    queue_words: Optional[int] = None
    #: Words of send-buffer space in the network interface.
    send_buffer_words: int = 32
    #: Calibrated network interface pipeline latencies (cycles).
    inject_latency: int = DEFAULT_INJECT_LATENCY
    eject_latency: int = DEFAULT_EJECT_LATENCY
    #: Thread save/restart policy costs (Table 2's Save/Restore column).
    suspend_save_cycles: int = 30
    restart_cycles: int = 20
    #: Enable the paper's proposed node TLB: VNODE-tagged destinations
    #: are translated automatically in the network interface.
    auto_node_translation: bool = False
    #: Queue-overflow policy: backpressure the network (hardware default)
    #: or spill to memory via the software fault handler.
    queue_overflow_spills: bool = False
    #: Router arbitration: the MDP's unfair "fixed" priority, or a fair
    #: "round_robin" alternative (ablation of the radix-sort glitch).
    arbitration: str = "fixed"
    #: Network flow control: "block" (wormhole backpressure, the real
    #: machine) or "return_to_sender" (the critique's proposal).
    flow_control: str = "block"
    #: Use the pre-decoded block executor (cycle-exact, several times
    #: faster).  Disable to run the per-instruction reference
    #: interpreter instead; results are identical either way.
    fast_path: bool = True
    #: Attach a fabric observatory probe at construction (per-link
    #: phit/utilization counters, stall-cause split, queue-occupancy
    #: histograms — see :mod:`repro.network.observatory`).  Off by
    #: default: un-probed runs skip every accumulation site.
    fabric_probe: bool = False

    def __post_init__(self) -> None:
        if any(d <= 0 for d in self.dims):
            raise ConfigurationError(f"bad mesh dimensions {self.dims}")
        if self.send_buffer_words < 2:
            raise ConfigurationError("send buffer must hold at least 2 words")

    @staticmethod
    def for_nodes(n: int, **overrides) -> "MachineConfig":
        """Config for a standard machine size (1..1024 nodes)."""
        mesh = Mesh3D.for_nodes(n)
        return MachineConfig(dims=mesh.dims, **overrides)

    def mesh(self) -> Mesh3D:
        return Mesh3D(*self.dims)

    @property
    def n_nodes(self) -> int:
        x, y, z = self.dims
        return x * y * z
