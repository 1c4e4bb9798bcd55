"""Grain-size crossover: what efficient mechanisms buy (Section 3.1).

The paper's throughput discussion: "A remote operation incurs overhead
due to message setup, channel acquisition, and message invocation.  This
overhead is traditionally amortized by ensuring that remote accesses
transfer relatively large amounts of data.  Requiring coarse-grain
communication complicates programming ... The efficient communication
mechanisms of the J-Machine enable us to approach the effective terminal
bandwidth of the network using small messages."

This study quantifies that claim end to end.  The same radix sort runs
in the paper's fine-grained style (a 3-word message per key) and in the
block-transfer style other machines force, while the per-message
overhead (Table 1's alpha) is swept from the J-Machine's ~11 cycles up
through Active-Messages and vendor-library territory.  On J-Machine
costs the message-per-word program is competitive; at nCUBE-class
overheads it is several times slower — which is why those machines
cannot run fine-grained programs at all.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

from ..apps.radix_sort import RadixParams, run_parallel
from ..core.costs import DEFAULT_COSTS
from ..jsim.sim import MacroConfig
from .harness import format_table, is_paper_scale

__all__ = ["CrossoverResult", "run", "format_result", "OVERHEAD_SWEEP"]

#: Per-message overhead points: J-Machine (its real constants), CM-5
#: Active Messages, nCUBE/2 Active Messages, vendor-library class.
OVERHEAD_SWEEP: Tuple[Tuple[str, int, int], ...] = (
    ("J-Machine (4+4)", 4, 4),
    ("alpha ~ 50", 40, 10),
    ("CM-5 AM class (~109)", 80, 29),
    ("nCUBE/2 AM class (~460)", 360, 100),
    ("vendor class (~2900)", 2400, 500),
)


@dataclass
class CrossoverResult:
    n_nodes: int
    n_keys: int
    #: label -> {"fine": cycles, "coarse": cycles}
    points: Dict[str, Dict[str, int]] = field(default_factory=dict)

    def penalty(self, label: str) -> float:
        """How much slower fine-grained is than coarse at this overhead."""
        point = self.points[label]
        return point["fine"] / point["coarse"]


def run(n_nodes: int = 16, n_keys: int = 0) -> CrossoverResult:
    if not n_keys:
        n_keys = 16384 if is_paper_scale() else 4096
    params = RadixParams(n_keys=n_keys)
    result = CrossoverResult(n_nodes=n_nodes, n_keys=n_keys)
    for label, send_overhead, dispatch in OVERHEAD_SWEEP:
        config = MacroConfig(
            send_overhead_cycles=send_overhead,
            costs=DEFAULT_COSTS.with_overrides(dispatch=dispatch))
        point = {}
        for style in ("fine", "coarse"):
            point[style] = run_parallel(
                n_nodes, params, config=config, style=style
            ).cycles
        result.points[label] = point
    return result


def format_result(result: CrossoverResult) -> str:
    headers = ["overhead class", "fine (k cyc)", "coarse (k cyc)",
               "fine/coarse"]
    rows = []
    for label, _, _ in OVERHEAD_SWEEP:
        if label not in result.points:
            continue
        point = result.points[label]
        rows.append([label, point["fine"] / 1000, point["coarse"] / 1000,
                     result.penalty(label)])
    return format_table(
        headers, rows,
        title=f"Grain crossover: radix sort reorder, fine vs coarse "
              f"({result.n_keys} keys, {result.n_nodes} nodes)",
    )
