"""Combining-tree reduction in MDP assembly (the radix-sort mechanism).

Radix sort's count phase ends with "the counts computed by each node
are combined and the initial offsets are generated using a binary
combining/distributing tree" (Section 4.2).  This module is that tree's
combining half at cycle level: every node contributes an integer, the
sums flow up a binomial tree to node 0, and (optionally) the total is
distributed back down — all in assembly, synchronised with presence
tags like the barrier.

Node-local layout (A0 globals):
  [0] my node id      [3] total (valid at the end)
  [1] my value        [4] done flag
  [2] children left   [5] partial accumulator
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..asm.assembler import assemble
from ..core.errors import ConfigurationError
from ..core.registers import Priority
from ..core.word import Word
from ..machine.jmachine import JMachine
from ..machine.stop import StopFlags
from ..network.topology import binomial_children

__all__ = ["ReduceResult", "run_reduction", "REDUCE_SOURCE"]

REDUCE_SOURCE = """
; contribute: [IP:contribute, value] — a child's subtree sum arrives
contribute:
    MOVE  [A3+1], R0
    ADD   [A0+5], R0, R0
    MOVE  R0, [A0+5]          ; accumulate
    SUB   [A0+2], #1, R1
    MOVE  R1, [A0+2]          ; one fewer child outstanding
    BT    R1, c_wait
    ; all children in: fold in my own value and send to my parent
    ADD   R0, [A0+1], R0
    MOVE  [A0+0], R1          ; my id
    BF    R1, at_root
    ; parent = id - lowest set bit of id
    NEG   R1, R2
    AND   R1, R2, R2          ; lowest set bit
    SUB   R1, R2, R1          ; parent id
    SEND  R1
    SEND  #IP:contribute
    SENDE R0
    SUSPEND
at_root:
    MOVE  R0, [A0+3]
    MOVE  #1, [A0+4]
    ; distribute: send the total down the same tree
    SEND  #0                  ; self-send starts the broadcast
    SEND  #IP:distribute
    SENDE R0
c_wait:
    SUSPEND

; distribute: [IP:distribute, total] — record, forward to children
distribute:
    MOVE  [A3+1], R3
    MOVE  R3, [A0+3]
    MOVE  #1, [A0+4]
    ; children: id + 1, id + 2, id + 4 ... while child-bit < my low bit
    ; (precomputed list is simpler in assembly: the host stores the
    ; children at [A2+0..], count at [A0+6])
    MOVE  [A0+6], R1          ; children remaining
d_loop:
    BF    R1, d_done
    SUB   R1, #1, R1
    SEND  [A2+R1]
    SEND  #IP:distribute
    SENDE R3
    BR    d_loop
d_done:
    SUSPEND

; leaf kick: [IP:kick] — leaves start the upward wave
kick:
    MOVE  [A0+2], R1
    BT    R1, k_done          ; internal nodes wait for children
    MOVE  [A0+0], R1
    BF    R1, k_root          ; a 1-node machine: root is its own leaf
    MOVE  [A0+1], R0
    NEG   R1, R2
    AND   R1, R2, R2
    SUB   R1, R2, R1
    SEND  R1
    SEND  #IP:contribute
    SENDE R0
    SUSPEND
k_root:
    MOVE  [A0+1], R0
    MOVE  R0, [A0+3]
    MOVE  #1, [A0+4]
k_done:
    SUSPEND
"""


@dataclass
class ReduceResult:
    n_nodes: int
    total: int
    cycles: int
    broadcast_complete: bool


#: Cycles a reduction may run before it counts as failed.
MAX_CYCLES = 2_000_000


def run_reduction(machine: JMachine, values: List[int]) -> ReduceResult:
    """Sum one integer per node through the combining tree; verify."""
    n = machine.mesh.n_nodes
    if len(values) != n:
        raise ConfigurationError("need exactly one value per node")
    program = assemble(REDUCE_SOURCE)
    machine.load(program)
    base = program.end + 8
    children_base = base + 12

    for node_id in range(n):
        proc = machine.node(node_id).proc
        children = binomial_children(node_id, n)
        proc.memory.poke(base + 0, Word.from_int(node_id))
        proc.memory.poke(base + 1, Word.from_int(values[node_id]))
        proc.memory.poke(base + 2, Word.from_int(len(children)))
        proc.memory.poke(base + 6, Word.from_int(len(children)))
        for i, child in enumerate(children):
            proc.memory.poke(children_base + i, Word.from_int(child))
        regs = proc.registers[Priority.P0]
        regs.write("A0", Word.segment(base, 12))
        regs.write("A2", Word.segment(children_base, max(1, len(children))))

    start = machine.now
    for node_id in range(n):
        machine.inject(node_id, program.entry("kick"))
    done = StopFlags([(node_id, base + 4, 1) for node_id in range(n)])
    machine.run(max_cycles=MAX_CYCLES, until=done)
    complete = done.holds(machine)
    total = machine.node(0).proc.memory.peek(base + 3).value
    if total != sum(values):
        raise ConfigurationError(
            f"reduction produced {total}, expected {sum(values)}"
        )
    return ReduceResult(n_nodes=n, total=total,
                        cycles=machine.now - start,
                        broadcast_complete=complete)
