"""Radix sort in MDP assembly on the cycle-accurate machine.

A scaled-down companion to :mod:`repro.apps.radix_sort` that runs the
whole three-phase algorithm as real MDP code: the count loop, the offset
computation, the fine-grained message-per-key reorder (each remote key a
``wrt`` message, the paper's WriteData), and the phase barrier — every
dispatch, send fault, and DRAM access charged by the hardware model.

Deviation from the paper, documented: the offset combination runs as a
star through node 0 rather than a binomial tree (the tree variant lives
in ``repro.runtime.reduce``); at the sizes cycle simulation covers, the
difference is a few hundred cycles.  Radix is fixed at 4 (2-bit digits)
so the count/offset vectors fit in unrolled four-word messages.

All sizes are assembly-time constants: the source is generated for the
given (keys/node, node count, digit count).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..asm.assembler import assemble
from ..core.errors import ConfigurationError
from ..core.registers import Priority
from ..core.word import Word
from ..machine.config import MachineConfig
from ..machine.jmachine import JMachine
from ..machine.stop import StopFlags
from ..network.topology import Mesh3D

__all__ = ["CycleRadixResult", "run_cycle_radix", "radix_cycle_source"]


def radix_cycle_source(kpn: int, n_nodes: int, n_digits: int) -> str:
    """Generate the assembly for a (kpn, n_nodes, n_digits) instance."""
    cnt = 2 * kpn               # counts base within the data segment
    off = cnt + 4               # offsets base
    matsz = 4 * n_nodes         # node 0's counts matrix size
    scr = matsz                 # totals t[0..3] within the matrix segment
    run = matsz + 4             # running offsets r[0..3]

    return f"""
.equ KPN, {kpn}
.equ NN, {n_nodes}

; ---- phase 1: count this digit, ship counts to node 0 ---------------
sortkick:
    MOVE  #0, R1
    MOVE  R1, [A1+{cnt}]
    MOVE  R1, [A1+{cnt + 1}]
    MOVE  R1, [A1+{cnt + 2}]
    MOVE  R1, [A1+{cnt + 3}]
    MOVE  #0, R0
kc_loop:
    MOVE  [A1+R0], R1
    ASH   R1, [A0+4], R1
    AND   R1, #3, R1
    ADD   R1, #{cnt}, R1
    MOVE  [A1+R1], R2
    ADD   R2, #1, R2
    MOVE  R2, [A1+R1]
    ADD   R0, #1, R0
    LT    R0, #KPN, R2
    BT    R2, kc_loop
    SEND  #0
    SEND  #IP:cnts
    SEND  [A0+0]
    SEND  [A1+{cnt}]
    SEND  [A1+{cnt + 1}]
    SEND  [A1+{cnt + 2}]
    SENDE [A1+{cnt + 3}]
    SUSPEND

; ---- node 0: gather counts, compute per-node offsets, distribute ----
cnts:
    MOVE  [A3+1], R0
    ASH   R0, #2, R0
{chr(10).join(f'''    MOVE  [A3+{2 + b}], R1
    MOVE  R1, [A2+R0]
    ADD   R0, #1, R0''' for b in range(4))}
    ADD   [A0+10], #1, R1
    MOVE  R1, [A0+10]
    EQ    R1, #NN, R1
    BF    R1, cnts_end
    MOVE  #0, [A0+10]
    MOVE  #0, R1
{chr(10).join(f"    MOVE  R1, [A2+{scr + b}]" for b in range(4))}
    MOVE  #0, R0
t_loop:
{chr(10).join(f'''    MOVE  [A2+R0], R1
    ADD   [A2+{scr + b}], R1, R1
    MOVE  R1, [A2+{scr + b}]
    ADD   R0, #1, R0''' for b in range(4))}
    LT    R0, #{matsz}, R1
    BT    R1, t_loop
    ; bucket starts: r0=0, r1=t0, r2=t0+t1, r3=t0+t1+t2
    MOVE  #0, R1
    MOVE  R1, [A2+{run}]
    MOVE  [A2+{scr}], R1
    MOVE  R1, [A2+{run + 1}]
    ADD   R1, [A2+{scr + 1}], R1
    MOVE  R1, [A2+{run + 2}]
    ADD   R1, [A2+{scr + 2}], R1
    MOVE  R1, [A2+{run + 3}]
    MOVE  #0, R0
o_loop:
    SEND  R0
    SEND  #IP:offs
    SEND  [A2+{run}]
    SEND  [A2+{run + 1}]
    SEND  [A2+{run + 2}]
    SENDE [A2+{run + 3}]
    ASH   R0, #2, R1
{chr(10).join(f'''    MOVE  [A2+R1], R2
    ADD   [A2+{run + b}], R2, R2
    MOVE  R2, [A2+{run + b}]
    ADD   R1, #1, R1''' for b in range(4))}
    ADD   R0, #1, R0
    LT    R0, #NN, R1
    BT    R1, o_loop
cnts_end:
    SUSPEND

; ---- phase 3: reorder — a message per remote key --------------------
offs:
{chr(10).join(f'''    MOVE  [A3+{1 + b}], R1
    MOVE  R1, [A1+{off + b}]''' for b in range(4))}
    MOVE  #0, R0
    MOVE  #0, R3
r_loop:
    MOVE  [A1+R0], R1
    ASH   R1, [A0+4], R2
    AND   R2, #3, R2
    ADD   R2, #{off}, R2
    MOVE  [A1+R2], R1
    ADD   R1, #1, R1
    MOVE  R1, [A1+R2]
    SUB   R1, #1, R1
    DIV   R1, #KPN, R2
    MOD   R1, #KPN, R1
    MOVE  R2, [A0+13]
    EQ    R2, [A0+0], R2
    BT    R2, local_key
    SEND  [A0+13]
    SEND  #IP:wrt
    MOVE  [A1+R0], R2
    SEND2E R1, R2
    BR    r_next
local_key:
    ADD   R1, #KPN, R1
    MOVE  [A1+R0], R2
    MOVE  R2, [A1+R1]
    ADD   R3, #1, R3
r_next:
    ADD   R0, #1, R0
    LT    R0, #KPN, R2
    BT    R2, r_loop
    MOVE  R3, [A0+7]
    MOVE  #1, [A0+8]
    BR    check_done

; ---- WriteData: the paper's 4-instruction remote write --------------
wrt:
    MOVE  [A3+1], R0
    ADD   R0, #KPN, R0
    MOVE  [A3+2], R1
    MOVE  R1, [A1+R0]
    ADD   [A0+6], #1, R1
    MOVE  R1, [A0+6]
check_done:
    MOVE  [A0+8], R1
    EQ    R1, #1, R1
    BF    R1, w_end
    MOVE  #KPN, R1
    SUB   R1, [A0+7], R1
    EQ    R1, [A0+6], R1
    BF    R1, w_end
    MOVE  #2, [A0+8]
    SEND  #0
    SENDE #IP:phase_done
w_end:
    SUSPEND

; ---- node 0: the end-of-digit barrier --------------------------------
phase_done:
    ADD   [A0+11], #1, R1
    MOVE  R1, [A0+11]
    EQ    R1, #NN, R1
    BF    R1, pd_end
    MOVE  #0, [A0+11]
    MOVE  #0, R0
pd_loop:
    SEND  R0
    SENDE #IP:nextiter
    ADD   R0, #1, R0
    LT    R0, #NN, R1
    BT    R1, pd_loop
pd_end:
    SUSPEND

; ---- advance to the next digit (or finish) ---------------------------
nextiter:
    MOVE  #0, R0
ni_copy:
    ADD   R0, #KPN, R1
    MOVE  [A1+R1], R2
    MOVE  R2, [A1+R0]
    ADD   R0, #1, R0
    LT    R0, #KPN, R1
    BT    R1, ni_copy
    MOVE  #0, [A0+6]
    MOVE  #0, [A0+7]
    MOVE  #0, [A0+8]
    SUB   [A0+4], #2, R1
    MOVE  R1, [A0+4]
    SUB   [A0+5], #1, R1
    MOVE  R1, [A0+5]
    BT    R1, go_again
    MOVE  #1, [A0+9]
    SUSPEND
go_again:
    BR    sortkick
"""


@dataclass
class CycleRadixResult:
    n_nodes: int
    sorted_keys: List[int]
    cycles: int
    instructions: int
    write_messages: int


#: Cycles a sort may take before it counts as failed.
MAX_CYCLES = 50_000_000


def run_cycle_radix(
    n_nodes: int,
    keys: List[int],
    n_digits: int = 4,
    fast_path: bool = True,
    stop: str = "predicate",
) -> CycleRadixResult:
    """Sort ``keys`` (< 4**n_digits) in assembly; verify the order.

    ``stop="quiescent"`` runs to machine quiescence instead of stopping
    when every node's done flag is set (a free run: the cycle count then
    includes the final drain).
    """
    if len(keys) % n_nodes:
        raise ConfigurationError("keys must divide evenly across nodes")
    kpn = len(keys) // n_nodes
    limit = 4 ** n_digits
    if any(not 0 <= k < limit for k in keys):
        raise ConfigurationError(f"keys must be in [0, {limit})")

    machine = JMachine(MachineConfig(dims=Mesh3D.for_nodes(n_nodes).dims,
                                     queue_words=8192,
                                     send_buffer_words=64,
                                     fast_path=fast_path))
    program = assemble(radix_cycle_source(kpn, n_nodes, n_digits))
    machine.load(program)

    globals_base = program.end + 8
    data_base = globals_base + 16
    data_words = 2 * kpn + 8
    matrix_base = data_base + data_words
    matrix_words = 4 * n_nodes + 8

    for node_id in range(n_nodes):
        proc = machine.node(node_id).proc
        memory = proc.memory
        memory.poke(globals_base + 0, Word.from_int(node_id))
        memory.poke(globals_base + 4, Word.from_int(0))       # shift
        memory.poke(globals_base + 5, Word.from_int(n_digits))
        for i, key in enumerate(keys[node_id * kpn:(node_id + 1) * kpn]):
            memory.poke(data_base + i, Word.from_int(key))
        regs = proc.registers[Priority.P0]
        regs.write("A0", Word.segment(globals_base, 16))
        regs.write("A1", Word.segment(data_base, data_words))
        if node_id == 0:
            regs.write("A2", Word.segment(matrix_base, matrix_words))

    done = StopFlags([(node_id, globals_base + 9, 1)
                      for node_id in range(n_nodes)])
    for node_id in range(n_nodes):
        machine.inject(node_id, program.entry("sortkick"))
    machine.run(max_cycles=MAX_CYCLES,
                until=None if stop == "quiescent" else done)
    if not done.holds(machine):
        raise ConfigurationError("cycle-level radix sort did not finish")

    gathered: List[int] = []
    for node_id in range(n_nodes):
        memory = machine.node(node_id).proc.memory
        gathered.extend(memory.peek(data_base + i).value
                        for i in range(kpn))
    if gathered != sorted(keys):
        raise ConfigurationError("cycle-level radix sort mis-sorted")

    write_messages = sum(
        node.proc.counters.dispatches for node in machine.nodes
    )
    return CycleRadixResult(
        n_nodes=n_nodes,
        sorted_keys=gathered,
        cycles=machine.now,
        instructions=machine.total_instructions(),
        write_messages=write_messages,
    )
