"""Unit tests of the SEND instruction family against a recording stub."""

import pytest

from repro.core.errors import IllegalInstructionFault, SendFault
from repro.core.processor import Mdp, NetworkInterface
from repro.core.registers import Priority
from repro.core.tags import Tag
from repro.core.word import Word
from repro.asm.assembler import assemble


class RecordingInterface(NetworkInterface):
    """Captures every word the processor streams, with end marks."""

    def __init__(self, capacity=64):
        self.events = []
        self.capacity = capacity
        self.refuse = False

    def send_word(self, priority, word, end, now):
        if self.refuse or len(self.events) >= self.capacity:
            raise SendFault("stub refused")
        self.events.append((priority, word, end, now))

    def send_two(self, priority, first, second, end, now):
        if self.refuse or len(self.events) + 2 > self.capacity:
            raise SendFault("stub refused")
        self.events += [(priority, first, False, now),
                        (priority, second, end, now)]


def run_program(source, interface, setup=None, max_cycles=1000):
    proc = Mdp(node_id=0, network=interface)
    program = assemble(source)
    program.load(proc)
    if setup:
        setup(proc, program)
    proc.set_background(program.entry("start"))
    now = 0
    while not proc.halted and now < max_cycles:
        nxt = proc.tick(now)
        if nxt is None:
            break
        now = nxt
    return proc, now


class TestSendSemantics:
    def test_send_streams_words_in_order(self):
        net = RecordingInterface()
        run_program("""
        start:
            SEND #5
            SEND #IP:start
            SENDE #7
            HALT
        """, net)
        values = [w.value for _, w, _, _ in net.events]
        assert values[0] == 5 and values[2] == 7
        assert net.events[1][1].tag is Tag.IP

    def test_only_last_word_marked_end(self):
        net = RecordingInterface()
        run_program("""
        start:
            SEND #1
            SEND #2
            SENDE #3
            HALT
        """, net)
        ends = [end for _, _, end, _ in net.events]
        assert ends == [False, False, True]

    def test_send2_carries_two_words(self):
        net = RecordingInterface()
        run_program("""
        start:
            SEND #9
            SEND2E #1, #2
            HALT
        """, net)
        assert len(net.events) == 3
        assert net.events[1][3] == net.events[2][3]  # same retire time

    def test_send2_is_one_cycle_for_two_words(self):
        net = RecordingInterface()
        proc, cycles = run_program("""
        start:
            SEND2E #1, #2
            HALT
        """, net)
        assert cycles == 2  # SEND2E (1) + HALT (1)

    def test_counters_track_messages_and_words(self):
        net = RecordingInterface()
        proc, _ = run_program("""
        start:
            SEND #1
            SENDE #2
            SEND #3
            SENDE #4
            HALT
        """, net)
        assert proc.counters.messages_sent == 2
        assert proc.counters.words_sent == 4

    def test_send_cycles_counted_as_comm(self):
        net = RecordingInterface()
        proc, _ = run_program("""
        start:
            SEND #1
            SENDE #2
            HALT
        """, net)
        assert proc.counters.comm_cycles == 2

    def test_memory_sourced_send_retires_late(self):
        """A SEND reading external memory launches its word later."""
        net = RecordingInterface()

        def setup(proc, program):
            base = proc.memory.imem_words + 8
            proc.memory.poke(base, Word.from_int(42))
            proc.registers[Priority.BACKGROUND].write(
                "A1", Word.segment(base, 2))

        run_program("""
        start:
            SENDE [A1+0]
            HALT
        """, net, setup)
        _, word, _, retire = net.events[0]
        assert word.value == 42
        assert retire >= 6  # the EMEM access delays the launch


class TestSendFaults:
    def test_refused_send_stalls_and_retries(self):
        net = RecordingInterface()
        net.refuse = True
        proc = Mdp(node_id=0, network=net)
        program = assemble("""
        start:
            SENDE #1
            HALT
        """)
        program.load(proc)
        proc.set_background(program.entry("start"))
        now = 0
        for _ in range(10):
            now = proc.tick(now)
        assert proc.counters.send_faults == 10
        assert proc.counters.stall_cycles == 10
        # Lift the backpressure: the instruction finally completes.
        net.refuse = False
        while not proc.halted:
            now = proc.tick(now)
        assert len(net.events) == 1

    def test_send2_checks_space_before_sending_either_word(self):
        net = RecordingInterface(capacity=1)
        proc = Mdp(node_id=0, network=net)
        program = assemble("""
        start:
            SEND2E #1, #2
            HALT
        """)
        program.load(proc)
        proc.set_background(program.entry("start"))
        for now in range(5):
            proc.tick(now)
        # Neither word was accepted: all-or-nothing for the pair.
        assert net.events == []
        assert proc.counters.send_faults > 0


@pytest.mark.parametrize("fast", [True, False], ids=["fast", "reference"])
@pytest.mark.parametrize("send", ["SEND #1", "SENDE #1", "SEND2 #1, #2",
                                  "SEND2E #1, #2"])
def test_every_send_without_a_network_is_illegal(send, fast):
    """A processor with no network (NullNetworkInterface) raises on the
    first send of every form; SEND2 used to take a send fault on every
    tick instead, for ever."""
    proc = Mdp(node_id=0, fast_path=fast)
    program = assemble(f"start:\n    {send}\n    HALT\n")
    program.load(proc)
    proc.set_background(program.entry("start"))
    with pytest.raises(IllegalInstructionFault):
        proc.tick(0)
    assert proc.counters.send_faults == 0
    assert proc.counters.words_sent == 0
