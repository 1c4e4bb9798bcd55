"""Benchmark harness utilities: scaling knobs and table rendering.

Every benchmark supports two scales:

* ``paper`` — the problem sizes and machine sizes the paper used.  Some
  sweeps take minutes of wall-clock time in CPython.
* ``small`` — proportionally reduced sizes that preserve every trend and
  run in seconds.  This is the default for ``python -m repro.bench`` so
  the report stays iterable; set ``JM_SCALE=paper`` to run full size.

EXPERIMENTS.md records which scale produced each reported number.
"""

from __future__ import annotations

import os
from typing import Iterable, List, Optional, Sequence

__all__ = ["scale", "is_paper_scale", "node_counts", "format_table"]


def scale() -> str:
    """The active benchmark scale: ``small`` (default) or ``paper``."""
    value = os.environ.get("JM_SCALE", "small").lower()
    return "paper" if value == "paper" else "small"


def is_paper_scale() -> bool:
    return scale() == "paper"


def node_counts(max_nodes: Optional[int] = None) -> List[int]:
    """The machine-size sweep for speedup curves.

    Paper scale covers 1..512 like Figure 5; small scale stops at 64.
    """
    counts = [1, 2, 4, 8, 16, 32, 64, 128, 256, 512]
    limit = max_nodes if max_nodes is not None else (512 if is_paper_scale() else 64)
    return [n for n in counts if n <= limit]


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    title: str = "",
) -> str:
    """Render an ASCII table (benchmarks print these like the paper's)."""
    str_rows = [[_fmt(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.rjust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in str_rows:
        lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def _fmt(cell: object) -> str:
    if cell is None:
        return "-"
    if isinstance(cell, float):
        if cell == 0:
            return "0"
        if abs(cell) >= 1000:
            return f"{cell:,.0f}"
        if abs(cell) >= 10:
            return f"{cell:.1f}"
        return f"{cell:.2f}"
    if isinstance(cell, int) and abs(cell) >= 10000:
        return f"{cell:,d}"
    return str(cell)
