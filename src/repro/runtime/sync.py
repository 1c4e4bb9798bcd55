"""Producer-consumer synchronization cost measurement (Table 2).

The paper compares the cost of local producer-consumer synchronization
with hardware presence tags against a software protocol that keeps a
separate flag word.  Four events are measured, all on data in on-chip
memory:

========  ==============================================================
Success   consumer reads a slot whose value is present
Failure   consumer attempts to read before the value is produced
Write     producer stores the value (without needing to restart anyone)
Restart   waking the suspended consumer once the value lands
========  ==============================================================

We measure each as an actual instruction sequence on the cycle-accurate
processor, which is the honest analogue of the paper's hand-counted
figures:

* **Tags**: reading the slot is one ``MOVE`` (it faults by itself when
  the slot is ``cfut``); the producer's write is a ``CHECK`` of the old
  tag plus the ``MOVE`` that both stores and, in hardware, triggers the
  restart of any watcher (restart cost itself is the policy constant).
* **No tags**: a flag word guards the slot, so the consumer pays a flag
  load and branch before the data read, and the producer pays a data
  store plus flag store.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..asm.assembler import assemble
from ..core.errors import CfutFault
from ..core.faults import AbortFaultPolicy
from ..core.processor import Mdp
from ..core.registers import Priority
from ..core.word import Word

__all__ = ["SyncCosts", "measure_sync_costs"]

_SEQUENCES = {
    # Tags: the read *is* the synchronization.
    "tags_success": """
        MOVE [A0+0], R0
        HALT
    """,
    # Tags: same read against a cfut slot; cost is fault detection.
    "tags_failure": """
        MOVE [A0+1], R0
        HALT
    """,
    # Tags: producer verifies the slot was empty, then stores.
    "tags_write": """
        CHECK [A0+1], %CFUT, R1
        MOVE R0, [A0+1]
        HALT
    """,
    # No tags: test the flag, then read the data word.
    "flag_success": """
        MOVE [A0+2], R1
        BF   R1, flag_fail
        MOVE [A0+3], R0
        HALT
    flag_fail:
        HALT
    """,
    # No tags: the failed flag test, the taken branch to the miss path,
    # and registering intent to wait (the runtime's waiter mark).
    "flag_failure": """
        MOVE [A0+4], R1
        BF   R1, flag_wait
        HALT
    flag_wait:
        MOVE #1, [A0+5]
        HALT
    """,
    # No tags: the producer must check whether a consumer is already
    # waiting (tags get this check for free), store the data, then set
    # the flag.
    "flag_write": """
        MOVE [A0+2], R1
        MOVE R0, [A0+3]
        MOVE #1, [A0+2]
        HALT
    """,
}


@dataclass
class SyncCosts:
    """Measured cycles for Table 2's Tags and No Tags columns."""

    tags_success: int
    tags_failure: int
    tags_write: int
    flag_success: int
    flag_failure: int
    flag_write: int


def _measure(name: str, source: str) -> int:
    """Run one sequence to HALT on a bare processor; return the cycles.

    The trailing HALT's cost is excluded.  A sequence that takes a cfut
    fault reports the cycles up to and including fault detection, which
    is what Table 2's Failure row counts (suspend/restart policy costs
    are quoted separately).
    """
    proc = Mdp(node_id=0, fault_policy=AbortFaultPolicy())
    program = assemble(source)
    program.load(proc)
    base = program.end + 8
    # Slot layout: [0] present value, [1] cfut slot, [2] flag=1,
    # [3] data, [4] flag=0 (for the failure case).
    proc.memory.poke(base + 0, Word.from_int(7))
    proc.memory.poke(base + 1, Word.cfut())
    proc.memory.poke(base + 2, Word.from_int(1))
    proc.memory.poke(base + 3, Word.from_int(9))
    proc.memory.poke(base + 4, Word.from_int(0))
    regs = proc.registers[Priority.BACKGROUND]
    regs.write("A0", Word.segment(base, 8))
    proc.set_background(program.base)

    now = 0
    halt_cost = 0
    while not proc.halted:
        before_halt = proc.registers[Priority.BACKGROUND].ip
        try:
            nxt = proc.tick(now)
        except CfutFault:
            return now + proc.costs.fault_vector
        if nxt is None:
            break
        if proc.halted:
            halt_cost = nxt - now
        now = nxt
    return now - halt_cost


def measure_sync_costs() -> SyncCosts:
    """Measure every Table 2 sequence on the cycle-accurate MDP."""
    return SyncCosts(**{name: _measure(name, src)
                        for name, src in _SEQUENCES.items()})
