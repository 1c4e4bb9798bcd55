"""Table 5: major components of cost for TSP.

Run time, user/OS thread counts and instruction totals, xlate counts and
fault counts, mean thread lengths, and average message lengths for the
CST traveling-salesperson program, next to the published 14-city 64-node
values.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..apps.base import AppResult
from .appscale import run_app
from .harness import format_table
from .reference import PAPER_TABLE5

__all__ = ["Table5Result", "run", "format_result"]


@dataclass
class Table5Result:
    result: AppResult


def run(n_nodes: int = 64) -> Table5Result:
    return Table5Result(result=run_app("tsp", n_nodes))


def format_result(table: Table5Result) -> str:
    r = table.result
    extra = r.extra
    user_threads = extra["user_threads"]
    os_threads = extra["os_threads"]
    user_instr = extra["user_instructions"]
    os_instr = extra["os_instructions"]
    user_stats = r.handler_stats["TSPWork"]
    os_words = sum(
        s.message_words for name, s in r.handler_stats.items()
        if name != "TSPWork"
    )
    rows = [
        ["Run Time (ms)", round(r.milliseconds), PAPER_TABLE5["runtime_ms"]],
        ["# User Threads", user_threads, PAPER_TABLE5["user_threads"]],
        ["# OS Threads", os_threads, PAPER_TABLE5["os_threads"]],
        ["# User Instructions", user_instr, PAPER_TABLE5["user_instructions"]],
        ["# OS Instructions", os_instr, PAPER_TABLE5["os_instructions"]],
        ["# xlates", extra["xlates"], PAPER_TABLE5["xlates"]],
        ["# xlate Faults", extra["xlate_faults"], PAPER_TABLE5["xlate_faults"]],
        ["Instr/Thread (user)",
         round(user_instr / user_threads) if user_threads else 0,
         PAPER_TABLE5["user_instr_per_thread"]],
        ["Instr/Thread (OS)",
         round(os_instr / os_threads) if os_threads else 0,
         PAPER_TABLE5["os_instr_per_thread"]],
        ["Avg Msg Length (user)", user_stats.mean_message_words,
         PAPER_TABLE5["avg_msg_length_user"]],
        ["Avg Msg Length (OS)",
         os_words / os_threads if os_threads else 0,
         PAPER_TABLE5["avg_msg_length_os"]],
    ]
    return format_table(
        ["Metric", "measured", "paper (14 cities, 64 nodes)"], rows,
        title=f"Table 5: TSP cost components "
              f"({extra['n_cities']} cities, {r.n_nodes} nodes)",
    )
