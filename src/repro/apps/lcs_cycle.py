"""Systolic LCS in real MDP assembly on the cycle-accurate machine.

The paper's LCS "was written directly in assembly language"; so is this
one.  It is the same algorithm as :mod:`repro.apps.lcs` — each node
holds a chunk of string A and one DP column; ``NxtChar`` messages stream
string B through the machine — but here the handler is genuine MDP code
executing instruction by instruction on the cycle simulator, with the
message formatting, dispatch, branch penalties, and memory costs all
charged by the hardware model rather than by ``ctx.charge``.

This exists for cross-validation: at sizes small enough for cycle-level
simulation, its run time should agree with the macro-level version's —
that agreement (tested in ``tests/apps/test_lcs_cycle.py``) is the
evidence that the macro level's cost constants are the right ones.

Node-local layout (all internal memory):

====  =======================================================
A0    globals segment: [0] chunk_len, [1] successor (-1=last),
      [2] b_len, [3] seen, [4] done, [5] result,
      [6] prev_boundary, [7] ch temp, [8] b descriptor (node 0),
      [9] chunk descriptor copy (node 0)
A1    this node's chunk of string A
A2    the DP column (chunk_len words)
A3    the arrived message, as always
====  =======================================================
"""

from __future__ import annotations

from dataclasses import dataclass

from ..asm.assembler import assemble
from ..core.errors import ConfigurationError
from ..core.registers import Priority
from ..core.word import Word
from ..machine.config import MachineConfig
from ..machine.jmachine import JMachine
from ..machine.stop import StopFlags
from ..network.topology import Mesh3D
from .lcs import LcsParams, generate_strings, lcs_reference

__all__ = ["CycleLcsResult", "run_cycle_lcs", "LCS_ASM_SOURCE"]

LCS_ASM_SOURCE = """
; NxtChar: [IP:nxtchar, ch, boundary]
nxtchar:
    MOVE  [A3+1], R2
    MOVE  R2, [A0+7]        ; ch -> temp (frees R2 for the loop)
    MOVE  [A3+2], R3        ; left_above = boundary
    MOVE  [A0+6], R1        ; diag = prev_boundary
    MOVE  #0, R0            ; i = 0
loop:
    MOVE  [A1+R0], R2       ; a[i]
    EQ    R2, [A0+7], R2
    BT    R2, match
    ; no match: new = max(col[i], left_above)
    MOVE  [A2+R0], R2       ; prev
    GE    R2, R3, R1        ; (diag is dead on this path: reuse R1)
    BT    R1, keep_prev
    MOVE  R3, [A2+R0]       ; col[i] = left_above (the larger)
    MOVE  R2, R1            ; diag = prev
    BR    next
keep_prev:
    MOVE  R2, R3            ; left_above = prev (the larger)
    MOVE  R2, R1            ; diag = prev
    BR    next
match:
    MOVE  [A2+R0], R2       ; prev
    ADD   R1, #1, R1        ; new = diag + 1
    MOVE  R1, [A2+R0]
    MOVE  R1, R3            ; left_above = new
    MOVE  R2, R1            ; diag = prev
next:
    ADD   R0, #1, R0
    LT    R0, [A0+0], R2
    BT    R2, loop
    ; epilogue: remember the boundary, count, forward or finish
    MOVE  [A3+2], R2
    MOVE  R2, [A0+6]        ; prev_boundary = boundary
    ADD   [A0+3], #1, R2
    MOVE  R2, [A0+3]        ; seen += 1
    MOVE  [A0+1], R2        ; successor
    LT    R2, #0, R0
    BT    R0, last_node
    SEND  R2                ; forward (ch, my tail value)
    SEND  #IP:nxtchar
    SEND2E [A3+1], R3
    SUSPEND
last_node:
    MOVE  [A0+3], R2
    EQ    R2, [A0+2], R2
    BF    R2, fin
    MOVE  R3, [A0+5]        ; the LCS length
    MOVE  #1, [A0+4]        ; done
fin:
    SUSPEND

; StartUp (node 0): [IP:startup, j] — emit NxtChar(b[j]) to self, chain
startup:
    MOVE  [A3+1], R0        ; j
    MOVE  [A0+8], A1        ; borrow A1 for the B string
    MOVEID R1
    SEND  R1
    SEND  #IP:nxtchar
    SEND  [A1+R0]
    SENDE #0
    MOVE  [A0+9], A1        ; restore the chunk descriptor
    ADD   R0, #1, R0
    LT    R0, [A0+2], R2
    BF    R2, su_done
    SEND  R1
    SEND  #IP:startup
    SENDE R0
su_done:
    SUSPEND
"""


@dataclass
class CycleLcsResult:
    """Outcome of a cycle-accurate LCS run."""

    n_nodes: int
    lcs_length: int
    cycles: int
    instructions: int
    threads: int


#: Cycles a run may take before it counts as failed.
MAX_CYCLES = 20_000_000


def run_cycle_lcs(
    n_nodes: int,
    params: LcsParams = LcsParams(a_len=32, b_len=64),
) -> CycleLcsResult:
    """Run assembly LCS on a cycle-accurate machine and verify it."""
    if params.a_len % n_nodes:
        raise ConfigurationError("a_len must divide evenly across nodes")
    chunk = params.a_len // n_nodes
    a, b = generate_strings(params)

    machine = JMachine(MachineConfig(dims=Mesh3D.for_nodes(n_nodes).dims,
                                     queue_words=4096))
    program = assemble(LCS_ASM_SOURCE)
    machine.load(program)

    globals_base = program.end + 8
    chunk_base = globals_base + 16
    col_base = chunk_base + chunk
    b_base = col_base + chunk

    for node_id in range(n_nodes):
        proc = machine.node(node_id).proc
        memory = proc.memory
        successor = node_id + 1 if node_id + 1 < n_nodes else -1
        memory.poke(globals_base + 0, Word.from_int(chunk))
        memory.poke(globals_base + 1, Word.from_int(successor))
        memory.poke(globals_base + 2, Word.from_int(params.b_len))
        for i, ch in enumerate(a[node_id * chunk:(node_id + 1) * chunk]):
            memory.poke(chunk_base + i, Word.from_int(ch))
        regs = proc.registers[Priority.P0]
        regs.write("A0", Word.segment(globals_base, 16))
        regs.write("A1", Word.segment(chunk_base, chunk))
        regs.write("A2", Word.segment(col_base, chunk))
        if node_id == 0:
            for j, ch in enumerate(b):
                memory.poke(b_base + j, Word.from_int(ch))
            memory.poke(globals_base + 8,
                        Word.segment(b_base, params.b_len))
            memory.poke(globals_base + 9,
                        Word.segment(chunk_base, chunk))

    last = machine.node(n_nodes - 1).proc
    done = StopFlags([(n_nodes - 1, globals_base + 4, 1)])
    machine.inject(0, program.entry("startup"), [Word.from_int(0)])
    machine.run(max_cycles=MAX_CYCLES, until=done)
    if not done.holds(machine):
        raise ConfigurationError("cycle-level LCS did not complete")

    length = last.memory.peek(globals_base + 5).value
    expected = lcs_reference(a, b)
    if length != expected:
        raise ConfigurationError(
            f"cycle-level LCS={length}, reference={expected}"
        )
    return CycleLcsResult(
        n_nodes=n_nodes,
        lcs_length=length,
        cycles=machine.now,
        instructions=machine.total_instructions(),
        threads=sum(node.proc.counters.threads_completed
                    for node in machine.nodes),
    )
