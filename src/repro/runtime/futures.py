"""First-class futures on the cycle-accurate machine (Section 2.1).

The paper distinguishes two presence tags: ``cfut`` ("inexpensive
synchronization on a single slot, much like a full-empty bit") and
``fut``, which "may be copied without faulting and thus supports the more
flexible, but more expensive, future datatype.  Futures are first-class
data objects and references to them may be returned from functions and
stored in arrays."

This module demonstrates — and its driver measures — exactly that
difference on the cycle simulator:

* a producer will eventually fill slot 0 of a shared segment;
* meanwhile a *mover* thread copies the slot's current content into an
  array slot (for a ``fut`` this succeeds; for a ``cfut`` it faults and
  suspends — the measured difference);
* finally a consumer uses the array slot's value arithmetically, which
  for an unresolved ``fut`` faults and suspends until the runtime's
  resolution step writes the real value through.

The runtime resolution here is the simple software scheme the tag
supports: when the producer fills the original slot it also notifies
waiters of the future token; our driver models that with a resolver
handler that writes the value into every registered copy.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..asm.assembler import assemble
from ..core.registers import Priority
from ..core.word import Word
from ..machine.jmachine import JMachine

__all__ = ["FutureExperimentResult", "run_future_experiment",
           "FUTURES_SOURCE"]

FUTURES_SOURCE = """
; the mover: copy [A1+0] (which may hold a future) into the array [A2+k]
; message: [IP:mover, k]
mover:
    MOVE  [A3+1], R0
    MOVE  [A1+0], R1          ; copying a fut is legal; a cfut faults
    MOVE  R1, [A2+R0]
    MOVE  #1, [A0+1]          ; moved flag
    SUSPEND

; the consumer: USE the array value (faults+suspends while unresolved)
; message: [IP:consumer, k]
consumer:
    MOVE  [A3+1], R0
    ADD   [A2+R0], #100, R1   ; arithmetic use: traps on fut
    MOVE  R1, [A0+2]          ; result
    MOVE  #1, [A0+3]          ; done flag
    SUSPEND

; the producer/resolver: write the real value into slot and the copy
; message: [IP:producer, value, k]
producer:
    MOVE  [A3+1], R1
    MOVE  R1, [A1+0]          ; resolve the original slot
    MOVE  [A3+2], R0
    MOVE  R1, [A2+R0]         ; resolve the registered copy (wakes user)
    SUSPEND
"""


@dataclass
class FutureExperimentResult:
    """What happened: copies allowed, use suspended, value correct."""

    moved_before_production: bool
    consumer_suspended: bool
    final_value: int
    suspends: int
    restarts: int


def run_future_experiment(value: int = 42,
                          machine: JMachine = None) -> FutureExperimentResult:
    """Run the fut lifecycle on one node; returns the observed behaviour."""
    if machine is None:
        machine = JMachine.build(2)
    program = assemble(FUTURES_SOURCE)
    machine.load(program)
    proc = machine.node(0).proc

    base = program.end + 8
    slot_base = base + 8
    array_base = base + 16
    regs = proc.registers[Priority.P0]
    regs.write("A0", Word.segment(base, 8))
    regs.write("A1", Word.segment(slot_base, 2))
    regs.write("A2", Word.segment(array_base, 8))
    # The unresolved future lives in the producer's slot.
    proc.memory.poke(slot_base, Word.fut(token=7))

    # 1. Move the future into the array (must NOT fault).
    machine.inject(0, program.entry("mover"), [Word.from_int(3)])
    machine.run(max_cycles=10_000)
    moved = proc.memory.peek(base + 1).value == 1
    copied_word = proc.memory.peek(array_base + 3)

    # 2. Consume the copy: uses it, so it faults and suspends.
    machine.inject(0, program.entry("consumer"), [Word.from_int(3)])
    machine.run(max_cycles=10_000)
    suspended = proc.counters.suspends >= 1 and \
        proc.memory.peek(base + 3).value == 0

    # 3. Produce the value; the write resolves the copy and wakes the
    #    consumer.
    machine.inject(0, program.entry("producer"),
                   [Word.from_int(value), Word.from_int(3)])
    machine.run(max_cycles=20_000)

    return FutureExperimentResult(
        moved_before_production=moved and copied_word.is_future(),
        consumer_suspended=suspended,
        final_value=proc.memory.peek(base + 2).value,
        suspends=proc.counters.suspends,
        restarts=proc.counters.restarts,
    )
