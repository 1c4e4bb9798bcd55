"""A destination reserves queue rows for every message staged to it.

Between the fabric's accept check and the delivery commit a message is
*staged* (``eject_latency`` cycles).  The accept check must count the
rows staged messages will take in the same priority queue — rows, not
words: a 2-word message takes a 4-word row — or two short worms are
both accepted into space for one and the commit overflows the queue.
"""

import pytest

from repro.asm.assembler import assemble
from repro.core.registers import Priority
from repro.core.word import Word
from repro.machine.config import MachineConfig
from repro.machine.jmachine import JMachine

from tests.util import assert_same_state, machine_state

SOURCE = """
start:                          ; two 2-word messages to node 1, back to back
    SEND   #1
    SEND2E #IP:slow, #0
    SEND   #1
    SEND2E #IP:slow, #0
    SUSPEND
slow:                           ; holds its row for 40 iterations
    MOVE   #40, R0
spin:
    SUB    R0, #1, R0
    BT     R0, spin
    ADD    [A0+0], #1, [A0+0]
    SUSPEND
"""


def _run(fast, queue_words):
    machine = JMachine(MachineConfig(dims=(2, 1, 1), queue_words=queue_words,
                                     fast_path=fast))
    program = assemble(SOURCE)
    machine.load(program)
    count = program.end + 4
    machine.node(1).proc.registers[Priority.P0].write(
        "A0", Word.segment(count, 1))
    machine.inject(0, program.entry("start"))
    end = machine.run()
    handled = machine.node(1).proc.memory.peek(count).value
    return machine, end, handled


@pytest.mark.parametrize("fast", [True, False], ids=["fast", "reference"])
def test_a_second_worm_waits_for_the_row_the_first_is_staged_into(fast):
    """Six words hold one 4-word row: the second worm is refused
    (backpressure) until the first message's handler frees its row, and
    the run finishes."""
    machine, _, handled = _run(fast, queue_words=6)
    assert handled == 2
    assert machine.fabric.stats.delivery_stall_cycles > 0
    assert machine.node(1).proc.queues[Priority.P0].overflows == 0


@pytest.mark.parametrize("fast", [True, False], ids=["fast", "reference"])
def test_room_for_two_rows_takes_both_at_once(fast):
    machine, _, handled = _run(fast, queue_words=8)
    assert handled == 2
    assert machine.fabric.stats.delivery_stall_cycles == 0


def test_both_paths_refuse_alike():
    fast, slow = (_run(fast, queue_words=6) for fast in (True, False))
    assert_same_state(machine_state(fast[0], fast[1]),
                      machine_state(slow[0], slow[1]))
