"""The MDP node memory system.

Each J-Machine node couples the MDP's 4K-word on-chip SRAM with 1 MByte of
external ECC DRAM (three 1M x 4 chips).  Both memories hold 36-bit tagged
words.  The two memories form a single flat word-address space:

* words ``[0, imem_words)``           — internal SRAM (1-cycle access)
* words ``[imem_words, total_words)`` — external DRAM (6-cycle access)

A fixed region at the bottom of the SRAM holds the hardware structures:
fault vectors, the two message queues, and the send buffer.  The rest is
available to code and data, referenced through segment descriptors
(``ADDR`` words): the processor bounds-checks every indexed access
against its descriptor, which is what lets objects be relocated for heap
compaction.

Access-cost accounting is *pull* style: reads and writes return/record the
cycle cost via the optional ``meter``; the processor adds those cycles to
its clock.  This keeps the memory model usable standalone in tests.
"""

from __future__ import annotations

from typing import Dict, List

from .costs import CostModel, DEFAULT_COSTS
from .errors import MemoryError_, SegmentationFault
from .word import NIL, Word

__all__ = ["AccessMeter", "NodeMemory", "IMEM_WORDS", "EMEM_WORDS",
           "TOTAL_WORDS", "MSG_WINDOW_WORDS", "MSG_WINDOW_P0", "MSG_WINDOW_P1",
           "USER_BASE"]

#: 4K words of on-chip SRAM (Section 1).
IMEM_WORDS = 4096

#: 1 MByte of DRAM = 256K * 32-bit data words (Section 1).
EMEM_WORDS = 256 * 1024

#: Total flat address space per node, in words.
TOTAL_WORDS = IMEM_WORDS + EMEM_WORDS

#: Maximum message length the dispatch window accommodates, in words.
MSG_WINDOW_WORDS = 32

#: Fault vectors occupy the bottom of the SRAM (reserved, unused here).
_VECTORS_WORDS = 16

#: Fixed SRAM windows exposing the current message at each priority.
MSG_WINDOW_P0 = _VECTORS_WORDS
MSG_WINDOW_P1 = MSG_WINDOW_P0 + MSG_WINDOW_WORDS

#: First SRAM address available to loaded programs and data.
USER_BASE = MSG_WINDOW_P1 + MSG_WINDOW_WORDS


class AccessMeter:
    """Accumulates memory-access cycle charges and traffic counts."""

    __slots__ = ("cycles", "imem_reads", "imem_writes", "emem_reads", "emem_writes")

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.cycles = 0
        self.imem_reads = 0
        self.imem_writes = 0
        self.emem_reads = 0
        self.emem_writes = 0

    def take_cycles(self) -> int:
        """Return and clear the accumulated cycle charge."""
        cycles = self.cycles
        self.cycles = 0
        return cycles


class NodeMemory:
    """Flat tagged-word memory of one node: SRAM low, DRAM high."""

    def __init__(
        self,
        imem_words: int = IMEM_WORDS,
        emem_words: int = EMEM_WORDS,
        costs: CostModel = DEFAULT_COSTS,
    ) -> None:
        if imem_words <= 0 or emem_words < 0:
            raise MemoryError_("memory sizes must be positive")
        self.imem_words = imem_words
        self.total_words = imem_words + emem_words
        self.costs = costs
        self.meter = AccessMeter()
        # One sparse map for the whole address space: a node holds the
        # cells it has written, not its geometry (most programs touch a
        # few dozen of the 4K SRAM words).  An absent cell reads NIL;
        # the address alone picks the region's cost.
        self._cells: Dict[int, Word] = {}

    # -- classification ------------------------------------------------------

    def is_internal(self, address: int) -> bool:
        """True if ``address`` falls in the on-chip SRAM."""
        return 0 <= address < self.imem_words

    def _check(self, address: int) -> None:
        if not 0 <= address < self.total_words:
            raise SegmentationFault(f"address {address} outside node memory")

    # -- raw access ---------------------------------------------------------

    def read(self, address: int) -> Word:
        """Read one word, charging the access cost to the meter.

        Presence-tag faulting is *not* done here: the MDP faults when the
        processor moves a ``cfut`` into a register, and the processor model
        owns that check.  Raw reads let the runtime inspect tags.
        """
        meter = self.meter
        if 0 <= address < self.imem_words:  # also the bounds check
            meter.imem_reads += 1
            meter.cycles += self.costs.imem_access
        else:
            self._check(address)
            meter.emem_reads += 1
            meter.cycles += self.costs.emem_access
        return self._cells.get(address, NIL)

    def write(self, address: int, word: Word) -> None:
        """Write one word, charging the access cost to the meter."""
        internal = 0 <= address < self.imem_words
        if not internal:
            self._check(address)
        if not isinstance(word, Word):
            raise MemoryError_(f"can only store Word, got {type(word).__name__}")
        meter = self.meter
        if internal:
            meter.imem_writes += 1
            meter.cycles += self.costs.imem_access
        else:
            meter.emem_writes += 1
            meter.cycles += self.costs.emem_access
        self._cells[address] = word

    def peek(self, address: int) -> Word:
        """Read without metering (debugger/test access)."""
        self._check(address)
        return self._cells.get(address, NIL)

    def poke(self, address: int, word: Word) -> None:
        """Write without metering (loader/debugger access)."""
        self._check(address)
        self._cells[address] = word

    def dump_block(self, base: int, count: int) -> List[Word]:
        """Debugger helper: peek a contiguous block (no cycle charges)."""
        if base < 0 or base + count > self.total_words:
            raise MemoryError_(f"block [{base}, {base + count}) outside node memory")
        return [self.peek(base + offset) for offset in range(count)]
