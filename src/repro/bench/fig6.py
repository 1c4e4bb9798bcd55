"""Figure 6: per-node time breakdown on a 64-node machine.

For each application, the fraction of machine time spent in computation,
xlate, synchronization, communication overhead, NNR calculation, and
idle.  The paper's qualitative findings: LCS and radix sort are
computation-dominated with visible comm slices; N-Queens idles ~15% from
static load imbalance; TSP idles only ~3.8% (dynamic balancing) but pays
~16% synchronization (the periodic null-call yields) and a visible xlate
slice (CST's global object names).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from .appscale import APPS, run_app
from .harness import format_table

__all__ = ["Fig6Result", "run", "format_result", "BREAKDOWN_COLUMNS"]

BREAKDOWN_COLUMNS = ("idle", "nnr", "comm", "sync", "xlate", "compute")


@dataclass
class Fig6Result:
    n_nodes: int
    breakdowns: Dict[str, Dict[str, float]]


def run(n_nodes: int = 64) -> Fig6Result:
    return Fig6Result(n_nodes, {app: run_app(app, n_nodes).breakdown
                                for app in APPS})


def format_result(result: Fig6Result) -> str:
    headers = ["App"] + [f"{c} %" for c in BREAKDOWN_COLUMNS]
    rows = [[app] + [100 * breakdown.get(c, 0.0) for c in BREAKDOWN_COLUMNS]
            for app, breakdown in result.breakdowns.items()]
    return format_table(
        headers, rows,
        title=f"Figure 6: function breakdown on {result.n_nodes} nodes "
              "(paper: NQueens idle ~15%, TSP idle ~3.8%, TSP sync ~16%)",
    )
