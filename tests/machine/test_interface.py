"""The node's network interface: one count of send-buffer words."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.asm.assembler import assemble
from repro.core.errors import SendFault, TypeFault
from repro.core.registers import Priority
from repro.core.word import Word
from repro.machine.config import MachineConfig
from repro.machine.jmachine import JMachine
from repro.machine.node import NodeNetworkInterface

#: One step: a one-word SEND or a SEND2 (with its end mark, and the
#: priority it sends at), or the tail of the oldest launched message
#: leaving the interface.
STEPS = st.one_of(
    st.tuples(st.sampled_from(["send", "send2"]), st.booleans(),
              st.sampled_from(list(Priority))),
    st.just(("finished", False, Priority.P0)))


def _word(position: int) -> Word:
    """A message's word at ``position``: destination, header, argument."""
    if position == 1:
        return Word.ip(3)
    return Word.from_int(position)


@settings(deadline=None, max_examples=200)
@given(st.integers(2, 9), st.lists(STEPS, max_size=40))
def test_used_words_are_outstanding_plus_building(capacity, steps):
    """After any sequence, the interface's one count is the words of
    launched messages whose tail has not left plus the words being
    built; a refused send changes nothing."""
    launched = []
    iface = NodeNetworkInterface(0, capacity,
                                 lambda message, now: launched.append(message),
                                 [0] * 4, [0] * 4)
    finished = 0
    for kind, end, priority in steps:
        if kind == "finished":
            if finished < len(launched):
                iface.injection_finished(launched[finished])
                finished += 1
        else:
            before = iface._used_words
            level = (Priority.P0 if priority is Priority.BACKGROUND
                     else priority)
            built = len(iface._building[level])
            words = [_word(built), _word(built + 1)]
            try:
                if kind == "send":
                    iface.send_word(priority, words[0], end, 0)
                else:
                    iface.send_two(priority, words[0], words[1], end, 0)
            except SendFault:
                assert iface._used_words == before
            except TypeFault:
                pass  # launched with fewer than two words: dropped
        outstanding = sum(len(message.words) + 1
                          for message in launched[finished:])
        building = sum(len(words) for words in iface._building.values())
        assert iface._used_words == outstanding + building
        assert iface._used_words <= capacity


SEND2_AT_ONE_FREE = """
start:
    SEND  #1
    SEND  #IP:start
    SEND2 #7, #8
    HALT
"""


@pytest.mark.parametrize("fast", [True, False], ids=["fast", "reference"])
def test_send2_with_one_free_word_faults_without_a_word(fast):
    """A three-word buffer after two SENDs: the SEND2 takes send faults
    and puts neither of its words in."""
    machine = JMachine(MachineConfig(dims=(2, 1, 1), send_buffer_words=3,
                                     fast_path=fast))
    program = assemble(SEND2_AT_ONE_FREE)
    machine.load(program)
    machine.start_background(0, program.entry("start"))
    machine.run(max_cycles=50)
    proc, iface = machine.nodes[0].proc, machine.nodes[0].interface
    assert proc.counters.send_faults > 0
    assert proc.counters.words_sent == 2
    assert iface._used_words == 2
    assert [word.value for word in iface._building[Priority.P0]] == [
        1, program.entry("start")]
