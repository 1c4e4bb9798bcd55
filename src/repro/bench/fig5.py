"""Figure 5: application speedup versus machine size.

All four applications, problem size held constant, machines from 1 node
up to 512 (paper scale).  Base cases follow the paper exactly: a good
sequential implementation for LCS, Radix Sort, and N-Queens, and the
one-node *parallel* code for TSP ("for TSP it is the parallel code").
Expected shapes: TSP super-linear at small sizes then flattening; LCS
bending over as handler entry/exit overhead dominates shrinking chunks;
radix sort showing a glitch near bisection saturation between 64 and 128
nodes; N-Queens tracking close to ideal until task-count imbalance bites.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from .appscale import APPS, base_cycles, run_app
from .harness import format_table, node_counts

__all__ = ["Fig5Result", "run", "format_result"]


@dataclass
class Fig5Result:
    node_counts: List[int]
    base_cycles: Dict[str, int] = field(default_factory=dict)
    run_cycles: Dict[str, Dict[int, int]] = field(default_factory=dict)

    def speedup(self, app: str, n: int) -> float:
        return self.base_cycles[app] / self.run_cycles[app][n]


def run(max_nodes: int = 0, apps: tuple = tuple(APPS)) -> Fig5Result:
    counts = node_counts(max_nodes or None)
    result = Fig5Result(node_counts=counts)
    for app in apps:
        result.run_cycles[app] = {n: run_app(app, n).cycles for n in counts}
        result.base_cycles[app] = base_cycles(app)
    return result


def format_result(result: Fig5Result) -> str:
    apps = sorted(result.run_cycles)
    headers = ["Nodes"] + [f"{a} speedup" for a in apps]
    rows = [[n] + [result.speedup(app, n) for app in apps]
            for n in result.node_counts]
    return format_table(headers, rows,
                        title="Figure 5: speedup (problem size constant)")


def format_chart(result: Fig5Result) -> str:
    """Figure 5 as an ASCII scatter: speedup vs machine size."""
    from .plots import ascii_chart

    series = {"ideal": [(n, n) for n in result.node_counts]}
    for app in sorted(result.run_cycles):
        series[app] = [(n, result.speedup(app, n))
                       for n in result.node_counts]
    return ascii_chart(
        series,
        title="Figure 5: speedup vs machine size",
        x_label="nodes",
        y_label="speedup",
    )
