"""Table 2: producer-consumer synchronization, tags vs software flags."""

from __future__ import annotations

from dataclasses import dataclass

from ..runtime.sync import SyncCosts, measure_sync_costs
from . import fidelity
from .harness import format_table

__all__ = ["Table2Result", "run", "format_result"]


@dataclass
class Table2Result:
    measured: SyncCosts


def run() -> Table2Result:
    return Table2Result(measured=measure_sync_costs())


def format_result(result: Table2Result) -> str:
    m = result.measured
    headers = ["Event", "Tags", "No Tags", "Save/Restore"]
    rows = [
        ["Success", m.tags_success, m.flag_success, ""],
        ["Failure", m.tags_failure, m.flag_failure,
         f"{m.save_min} - {m.save_max}"],
        ["Write", m.tags_write, m.flag_write, ""],
        ["Restart", 0, 0, f"{m.restart_min} - {m.restart_max}"],
    ]
    exact = all(row.accepts(value)
                for row, value in fidelity.score("table2", result))
    status = "exact match" if exact else "MISMATCH"
    return format_table(
        headers, rows,
        title=f"Table 2: synchronization cycles ({status} vs paper)",
    )
