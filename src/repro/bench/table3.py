"""Table 3: software barrier synchronization times across machine sizes.

Runs the scan-style butterfly barrier (``repro.runtime.barrier``) on
machines from 2 nodes up, and tabulates microseconds per barrier next to
the published numbers for the J-Machine and its contemporaries (EM4,
KSR-1, iPSC/860, Delta).  The claim being checked is the one-to-two
orders of magnitude gap to the microprocessor-based machines; our
measured column should track the paper's J column (it runs ~1.3x high
because our suspend/restart fast path is costed conservatively —
EXPERIMENTS.md discusses the delta).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from ..core.costs import DEFAULT_COSTS
from ..machine.config import MachineConfig
from ..machine.jmachine import JMachine
from ..network.topology import Mesh3D
from ..runtime.barrier import run_barrier_experiment
from .harness import format_table, is_paper_scale
from .reference import TABLE3_BARRIER_US

__all__ = ["Table3Result", "run", "format_result"]

#: The paper's hand-tuned assembly barrier suspends with minimal state;
#: these save/restart costs model that fast path (vs the general 30/20).
TUNED_COSTS = DEFAULT_COSTS.with_overrides(suspend_save=8, restart=8)


@dataclass
class Table3Result:
    measured_us: Dict[int, float] = field(default_factory=dict)


def run(barriers: int = 8, max_nodes: int = 0) -> Table3Result:
    if not max_nodes:
        max_nodes = 512 if is_paper_scale() else 64
    sizes = [n for n in (2, 4, 8, 16, 32, 64, 128, 256, 512) if n <= max_nodes]
    result = Table3Result()
    for n in sizes:
        machine = JMachine(MachineConfig(dims=Mesh3D.for_nodes(n).dims,
                                         costs=TUNED_COSTS))
        measurement = run_barrier_experiment(machine, barriers=barriers)
        result.measured_us[n] = measurement.microseconds_per_barrier()
    return result


def format_result(result: Table3Result) -> str:
    machines = ["EM4", "J-Machine", "KSR", "IPSC/860", "Delta"]
    headers = ["Nodes", "measured"] + machines
    rows: List[List[object]] = []
    for n in sorted(result.measured_us):
        row: List[object] = [n, result.measured_us[n]]
        for machine in machines:
            row.append(TABLE3_BARRIER_US.get(machine, {}).get(n))
        rows.append(row)
    return format_table(
        headers, rows,
        title="Table 3: software barrier synchronization (microseconds); "
              "'measured' = this reproduction, others published",
    )
