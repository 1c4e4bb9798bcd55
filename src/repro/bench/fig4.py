"""Figure 4: terminal network bandwidth vs message size.

Maximum sustained data rate between two adjacent nodes, as a function of
message length, for the three destination behaviours: discard, copy to
internal memory (3 cycles/word), copy to external memory (6 cycles/word).
The paper's headline claims: 8-word messages achieve ~90% of the peak
rate, and even 2-word messages achieve more than half of it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

from ..core.costs import CLOCK_HZ, DATA_BITS, DEFAULT_COSTS
from ..network.traffic import TerminalBandwidthExperiment, TerminalBandwidthResult
from .harness import format_table

__all__ = ["Fig4Result", "run", "format_result", "MESSAGE_SIZES", "SINK_MODES"]

MESSAGE_SIZES = (1, 2, 3, 4, 6, 8, 12, 16)
SINK_MODES = ("discard", "imem", "emem")

#: Channel-limited peak: a word of 32 data bits per ``phits_per_word``
#: cycles at 12.5 MHz.
PEAK_BITS_PER_S = DATA_BITS * CLOCK_HZ / DEFAULT_COSTS.phits_per_word


@dataclass
class Fig4Result:
    curves: Dict[str, Dict[int, TerminalBandwidthResult]] = field(
        default_factory=dict
    )

    def fraction_of_peak(self, mode: str, size: int) -> float:
        return self.curves[mode][size].bits_per_s / PEAK_BITS_PER_S


def run(sizes: Tuple[int, ...] = MESSAGE_SIZES) -> Fig4Result:
    result = Fig4Result()
    for mode in SINK_MODES:
        curve = {}
        for size in sizes:
            curve[size] = TerminalBandwidthExperiment(size, mode).run()
        result.curves[mode] = curve
    return result


def format_result(result: Fig4Result) -> str:
    sizes = sorted(next(iter(result.curves.values())).keys())
    headers = ["words"] + [f"{m} (Mb/s)" for m in SINK_MODES] + ["discard %peak"]
    rows = []
    for size in sizes:
        row = [size]
        for mode in SINK_MODES:
            row.append(result.curves[mode][size].bits_per_s / 1e6)
        row.append(100 * result.fraction_of_peak("discard", size))
        rows.append(row)
    return format_table(
        headers, rows,
        title=f"Figure 4: terminal bandwidth (peak {PEAK_BITS_PER_S / 1e6:.0f} "
              "Mb/s; paper: ~90% at 8 words, >50% at 2 words)",
    )


def format_chart(result: Fig4Result) -> str:
    """Figure 4 as an ASCII scatter: bandwidth vs message size."""
    from .plots import ascii_chart

    series = {
        mode: [(size, r.bits_per_s / 1e6)
               for size, r in sorted(result.curves[mode].items())]
        for mode in SINK_MODES
    }
    return ascii_chart(
        series,
        title="Figure 4: terminal bandwidth (Mb/s) vs message size (words)",
        x_label="message size (words)",
        y_label="Mb/s",
    )
