"""Per-node activity profiling for the macro simulator (Figure 6).

The paper's Figure 6 breaks each application's per-node time into the
functions performed: computation, communication overhead, synchroniz-
ation, name translation (``xlate``), node-number-to-router-address
calculation ("NNR Calc"), and idle time.  :class:`Profile` accumulates
busy cycles in those categories; idle is derived at reporting time as
wall-clock minus busy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

__all__ = ["CATEGORIES", "Profile"]

#: The Figure 6 categories, in the paper's plotting order.
CATEGORIES = ("compute", "xlate", "sync", "comm", "nnr")

_CATEGORY_SET = frozenset(CATEGORIES)


@dataclass
class Profile:
    """Busy-cycle accumulator for one node."""

    compute: int = 0
    xlate: int = 0
    sync: int = 0
    comm: int = 0
    nnr: int = 0
    instructions: int = 0
    xlate_count: int = 0
    xlate_faults: int = 0

    @property
    def busy(self) -> int:
        return self.compute + self.xlate + self.sync + self.comm + self.nnr

    def breakdown(self, wall_cycles: int) -> Dict[str, float]:
        """Fractions of wall time per category, plus derived idle."""
        if wall_cycles <= 0:
            return {name: 0.0 for name in CATEGORIES} | {"idle": 0.0}
        out = {
            name: getattr(self, name) / wall_cycles for name in CATEGORIES
        }
        out["idle"] = max(0.0, 1.0 - self.busy / wall_cycles)
        return out

    def merge(self, other: "Profile") -> None:
        for name in CATEGORIES:
            setattr(self, name, getattr(self, name) + getattr(other, name))
        self.instructions += other.instructions
        self.xlate_count += other.xlate_count
        self.xlate_faults += other.xlate_faults
