"""Cross-validation: LCS on the cycle-level and the macro simulator.

Not a paper table but the evidence for DESIGN.md's central substitution
claim, at a size small enough for cycle simulation.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..apps.base import AppResult
from ..apps.lcs import LcsParams, run_parallel
from ..apps.lcs_cycle import CycleLcsResult, run_cycle_lcs
from .harness import format_table

__all__ = ["XlevelResult", "run", "format_result"]

PARAMS = LcsParams(a_len=32, b_len=64)
N_NODES = 4


@dataclass
class XlevelResult:
    cycle: CycleLcsResult
    macro: AppResult


def run() -> XlevelResult:
    return XlevelResult(cycle=run_cycle_lcs(N_NODES, PARAMS),
                        macro=run_parallel(N_NODES, PARAMS))


def format_result(result: XlevelResult) -> str:
    cycle, macro = result.cycle, result.macro
    return format_table(
        ["quantity", "cycle level", "macro level"],
        [
            ["LCS length", cycle.lcs_length, macro.output],
            ["run time (cycles)", cycle.cycles, macro.cycles],
            ["instructions", cycle.instructions, macro.total_instructions()],
            ["threads", cycle.threads, macro.total_threads()],
        ],
        title=f"Cross-validation: LCS in MDP assembly vs macro handlers "
              f"({PARAMS.a_len}x{PARAMS.b_len}, {N_NODES} nodes)",
    )
