"""Scan-style butterfly barrier synchronization (Table 3).

The paper's barrier library routine is "implemented in a scan style.  For
an N processor machine, N log2 N messages are sent, N per wave.  The
pattern formed by the messages is that of a butterfly network ... Incoming
messages invoke a different handler for each wave; this matching is done
quickly through the use of the fast hardware dispatch mechanism."

Our implementation is the same algorithm in MDP assembly, and it leans on
exactly the mechanisms the paper credits:

* each wave's arrival notification is a two-word message dispatched in
  hardware (the "different handler per wave" collapses to one handler
  parameterized by its slot argument, which costs the same dispatch);
* the waiting thread reads a ``cfut``-tagged slot for its wave; if the
  partner's message has not arrived yet the read faults and the thread
  suspends, to be restarted by the write — presence-tag synchronization
  doing its job;
* slots are double-buffered by barrier parity so back-to-back barriers
  cannot race (a partner can run at most one barrier ahead).

Node-local state (segment in ``A0``):
  [0] my node id           [3] done flag
  [1] number of waves      [4] current parity offset (0 or waves)
  [2] barriers remaining
Slot bank (segment in ``A2``): 2 * waves one-word slots, cfut-initialised.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..asm.assembler import assemble
from ..core.errors import ConfigurationError
from ..core.registers import Priority
from ..core.word import Word
from ..machine.jmachine import JMachine
from ..machine.stop import StopFlags

__all__ = ["BarrierResult", "run_barrier_experiment", "BARRIER_SOURCE"]

BARRIER_SOURCE = """
; barrier kickoff / loop: message [IP:barrier_run]
barrier_run:
    MOVE  #0, R0              ; wave counter
wave_loop:
    MOVE  #1, R1
    ASH   R1, R0, R1          ; 1 << wave
    XOR   [A0+0], R1, R1      ; partner node id
    ADD   [A0+4], R0, R3      ; slot = parity + wave
    SEND  R1
    SEND2E #IP:barrier_recv, R3
    MOVE  [A2+R3], R2         ; faults+suspends until partner's write
    WTAG  #0, %CFUT, [A2+R3]  ; re-arm the slot for two barriers on
    ADD   R0, #1, R0
    LT    R0, [A0+1], R1
    BT    R1, wave_loop
    ; barrier complete: flip parity, count down, maybe go again
    MOVE  [A0+1], R1
    SUB   R1, [A0+4], R1      ; parity' = waves - parity
    MOVE  R1, [A0+4]
    SUB   [A0+2], #1, R1
    MOVE  R1, [A0+2]
    BT    R1, barrier_again
    MOVE  #1, [A0+3]          ; all done
    SUSPEND
barrier_again:
    BR    barrier_run

; wave notification: [IP:barrier_recv, slot]
barrier_recv:
    MOVE  [A3+1], R0
    MOVE  #1, [A2+R0]         ; the write restarts the waiting thread
    SUSPEND
"""


@dataclass
class BarrierResult:
    """Timing of a batch of barriers across the whole machine."""

    n_nodes: int
    waves: int
    barriers: int
    total_cycles: int

    @property
    def cycles_per_barrier(self) -> float:
        return self.total_cycles / self.barriers

    def microseconds_per_barrier(self, cycle_ns: float = 80.0) -> float:
        return self.cycles_per_barrier * cycle_ns / 1e3


def run_barrier_experiment(
    machine: JMachine,
    barriers: int = 10,
    max_cycles: int = 10_000_000,
) -> BarrierResult:
    """Run ``barriers`` consecutive full-machine barriers; time them.

    Requires a power-of-two machine so the butterfly pairing is total.
    """
    n = machine.mesh.n_nodes
    if n < 2 or n & (n - 1):
        raise ConfigurationError("butterfly barrier needs a power-of-two machine")
    waves = n.bit_length() - 1

    program = assemble(BARRIER_SOURCE)
    machine.load(program)
    globals_base = program.end + 4
    slots_base = globals_base + 8
    for node_id in range(n):
        proc = machine.node(node_id).proc
        memory = proc.memory
        memory.poke(globals_base + 0, Word.from_int(node_id))
        memory.poke(globals_base + 1, Word.from_int(waves))
        memory.poke(globals_base + 2, Word.from_int(barriers))
        memory.poke(globals_base + 3, Word.from_int(0))
        memory.poke(globals_base + 4, Word.from_int(0))
        for slot in range(2 * waves):
            memory.poke(slots_base + slot, Word.cfut())
        regs = proc.registers[Priority.P0]
        regs.write("A0", Word.segment(globals_base, 8))
        regs.write("A2", Word.segment(slots_base, 2 * waves))

    start = machine.now
    for node_id in range(n):
        machine.inject(node_id, program.entry("barrier_run"))
    done = StopFlags([(node_id, globals_base + 3, 1) for node_id in range(n)])
    machine.run(max_cycles=max_cycles, until=done)
    if not done.holds(machine):
        raise ConfigurationError("barrier experiment did not complete")
    return BarrierResult(
        n_nodes=n,
        waves=waves,
        barriers=barriers,
        total_cycles=machine.now - start,
    )
