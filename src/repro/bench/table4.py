"""Table 4: application statistics for a 64-node J-Machine.

Per application: 64-node run time, and for the two major thread classes,
the invocation count, total instructions, instructions per thread, and
message length.  Paper values are tabulated alongside for comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..apps.base import AppResult
from .appscale import run_app
from .harness import format_table
from .reference import PAPER_TABLE4

__all__ = ["Table4Result", "run", "format_result"]

#: Thread classes reported per application: (our handler, paper name).
THREAD_CLASSES = {
    "lcs": (("NxtChar", "NxtChar"), ("StartUp", "StartUp")),
    "nqueens": (("NQueens", "NQueens"), ("NQDone", "NQDone")),
    "radix_sort": (("Sort", "Sort"), ("WriteData", "Write")),
}


@dataclass
class Table4Result:
    results: Dict[str, AppResult]


def run(n_nodes: int = 64) -> Table4Result:
    return Table4Result({app: run_app(app, n_nodes)
                         for app in THREAD_CLASSES})


def format_result(result: Table4Result) -> str:
    headers = ["App", "Thread", "# Threads", "K Instr", "Instr/Thread",
               "Msg Len", "paper I/T"]
    rows: List[List[object]] = []
    for app, app_result in result.results.items():
        rows.append([app, f"run time {app_result.milliseconds:.0f} ms "
                          f"(paper {PAPER_TABLE4[app]['runtime_ms']})",
                     "", "", "", "", ""])
        paper = PAPER_TABLE4[app]
        for handler, paper_name in THREAD_CLASSES[app]:
            stats = app_result.handler_stats.get(handler)
            if stats is None:
                continue
            invocations = stats.invocations
            instructions = stats.instructions
            if app == "radix_sort" and handler == "Sort":
                # The paper counts one Sort *thread per node* covering
                # all phases of all digits; aggregate our phase handlers
                # the same way.
                instructions = sum(
                    s.instructions for name, s in
                    app_result.handler_stats.items() if name != "WriteData"
                )
                invocations = app_result.n_nodes
            per_thread = instructions / invocations if invocations else 0
            paper_ipt: Optional[int] = paper["instr_per_thread"].get(paper_name)
            rows.append([
                "", handler, invocations,
                round(instructions / 1000),
                round(per_thread),
                stats.mean_message_words,
                paper_ipt,
            ])
    return format_table(headers, rows,
                        title="Table 4: application statistics, 64 nodes")
