"""The MDP cycle-cost model.

Every cost a simulator charges is stated here, once, so that the cycle
simulator (``repro.core.processor``), the event-driven macro simulator
(``repro.jsim``), and the benchmark harness all draw on the same numbers.
Citations point at the paper section that states each value.

Key constants (Section 2.1 unless noted):

* The processor clock is 12.5 MHz (Section 2.2), i.e. 80 ns/cycle.
* Most instructions take 1 cycle with both operands in registers and
  2 cycles with one operand in internal memory.
* External memory has a 6-cycle access latency (Section 5, "External
  memory latency (6 cycles)").
* A series of send instructions injects up to 2 words/cycle.
* Network channels carry 0.5 words/cycle; head latency is 1 cycle/hop.
* Message dispatch takes 4 processor cycles.
* A successful ``xlate`` takes 3 cycles.
* A suspended thread costs 30-50 cycles to save and 20-50 to restart
  (Table 2); the model charges the low ends.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

__all__ = ["CostModel", "DEFAULT_COSTS", "CLOCK_HZ", "CYCLE_NS", "WORD_BITS",
           "DATA_BITS", "PHITS_PER_WORD"]

#: Prototype clock rate: 12.5 MHz (Section 2.2).
CLOCK_HZ = 12_500_000

#: One processor cycle, in nanoseconds.
CYCLE_NS = 1e9 / CLOCK_HZ  # 80 ns

#: Full word width including tag.
WORD_BITS = 36

#: Data bits per word (what "bandwidth" counts — tags ride along free).
DATA_BITS = 32

#: A word crosses a channel as two physical transfer units (phits), which
#: is what "channel bandwidth is 0.5 words/cycle" means.
PHITS_PER_WORD = 2


@dataclass(frozen=True)
class CostModel:
    """Cycle costs of MDP operations: every cost a simulator charges.

    The defaults encode the published machine; benchmarks construct
    variants via :meth:`with_overrides` for ablation studies (e.g. a
    software-dispatch machine, or slower external memory).  Each field
    is read by the cycle level, the macro level, or both
    (docs/COSTMODEL.md lists which); figures the simulation must
    *reproduce* rather than charge live in :mod:`repro.bench.reference`.
    """

    # --- instruction execution -------------------------------------------
    #: Base cost of an instruction with register/immediate operands.
    reg_op: int = 1
    #: Penalty for a taken branch (prefetch refill).
    branch_taken_extra: int = 2
    #: Cycles to fetch one instruction word (two instructions) from EMEM
    #: when executing out of external memory.
    emem_fetch_per_word: int = 6

    # --- memory ------------------------------------------------------------
    #: Internal SRAM read/write latency (cycles) for explicit accesses.
    imem_access: int = 1
    #: External DRAM access latency (cycles).
    emem_access: int = 6
    #: Cycles to relocate one arriving message word into internal memory
    #: ("it takes at least 3 cycles to relocate the value into internal
    #: memory and 6 into external memory", Section 4.3.2).
    queue_copy_imem_per_word: int = 3
    queue_copy_emem_per_word: int = 6

    # --- messaging -----------------------------------------------------------
    #: Words injected per cycle by back-to-back SEND2 instructions.
    inject_words_per_cycle: int = 2
    #: Cycles from message-at-queue-head to first handler instruction.
    dispatch: int = 4

    # --- network ---------------------------------------------------------------
    #: Head-flit latency per hop, cycles.
    hop: int = 1
    #: Phits per 36-bit word.
    phits_per_word: int = PHITS_PER_WORD

    # --- naming -----------------------------------------------------------------
    #: Cycles for a successful xlate (hit in the associative match table).
    xlate_hit: int = 3
    #: Cycles for the xlate-miss fault path (vector + software probe).
    xlate_miss: int = 40
    #: Cycles for an enter instruction.
    enter: int = 4

    # --- synchronization (Table 2's Save/Restore column) ----------------------
    #: Thread save charged when a presence fault suspends a thread (the
    #: low end of the paper's 30-50).
    suspend_save: int = 30
    #: Restart charged when a suspended thread becomes runnable (the low
    #: end of the paper's 20-50).
    restart: int = 20

    # --- faults -----------------------------------------------------------------------
    #: Cycles to vector to a fault handler (flush + vector fetch).
    fault_vector: int = 6
    #: Software cost of the queue-overflow handler, per message spilled.
    queue_overflow_per_msg: int = 100

    def with_overrides(self, **kwargs: int) -> "CostModel":
        """Return a copy with the given fields replaced.

        An unknown name is a ``TypeError``: a misspelt cost must not
        leave the machine silently on the published one.
        """
        return replace(self, **kwargs)


#: The published machine.
DEFAULT_COSTS = CostModel()
