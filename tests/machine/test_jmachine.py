"""Whole-machine integration tests: assembly over the real network."""

import pytest

from repro.asm.assembler import assemble
from repro.core.errors import ConfigurationError
from repro.core.registers import Priority
from repro.core.word import Word
from repro.machine.config import MachineConfig
from repro.machine.jmachine import JMachine
from repro.machine.stop import StopFlags


class TestConstruction:
    def test_build_standard_size(self):
        machine = JMachine.build(8)
        assert machine.mesh.n_nodes == 8
        assert len(machine.nodes) == 8

    def test_default_is_512(self):
        assert JMachine().mesh.n_nodes == 512

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            MachineConfig(dims=(0, 1, 1))

    def test_quiescent_immediately(self):
        machine = JMachine.build(2)
        assert machine.run(max_cycles=100) == 0


class TestEcho:
    ECHO = """
    ; request: [IP:echo, replyto, value]
    echo:
        SEND  [A3+1]
        SEND  #IP:landing
        SENDE [A3+2]
        SUSPEND
    landing:
        MOVE  [A3+1], [A0+0]
        SUSPEND
    """

    def _machine(self, n=8):
        machine = JMachine.build(n)
        program = assemble(self.ECHO)
        machine.load(program)
        base = program.end + 4
        for node in machine.nodes:
            node.proc.registers[Priority.P0].write(
                "A0", Word.segment(base, 4))
        return machine, program, base

    def test_remote_echo_round_trip(self):
        machine, program, base = self._machine()
        machine.inject(7, program.entry("echo"),
                       [Word.from_int(0), Word.from_int(1234)], source=0)
        machine.run(max_cycles=10_000)
        assert machine.node(0).proc.memory.peek(base).value == 1234

    def test_echo_to_self(self):
        machine, program, base = self._machine()
        machine.inject(3, program.entry("echo"),
                       [Word.from_int(3), Word.from_int(55)])
        machine.run(max_cycles=10_000)
        assert machine.node(3).proc.memory.peek(base).value == 55

    def test_many_echoes_all_land(self):
        machine, program, base = self._machine()
        for node in range(1, 8):
            machine.inject(node, program.entry("echo"),
                           [Word.from_int(0), Word.from_int(100 + node)],
                           source=0)
        machine.run(max_cycles=50_000)
        # The landing handler at node 0 ran once per echo.
        assert machine.node(0).proc.counters.threads_completed == 7

    def test_run_until_predicate(self):
        machine, program, base = self._machine()
        machine.inject(7, program.entry("echo"),
                       [Word.from_int(0), Word.from_int(9)], source=0)
        end = machine.run(max_cycles=10_000,
                          until=StopFlags([(0, base, 9)]))
        assert machine.node(0).proc.memory.peek(base).value == 9
        assert end < 10_000


class TestScheduling:
    def test_idle_nodes_cost_nothing(self):
        """A 512-node machine with 2 active nodes finishes quickly."""
        machine = JMachine.build(512)
        program = assemble(self.PINGPONG)
        machine.load(program, nodes=[0, 511])
        machine.inject(511, program.entry("pong"), [Word.from_int(0)],
                       source=0)
        machine.run(max_cycles=5_000)
        busy = sum(1 for node in machine.nodes
                   if node.proc.counters.instructions > 0)
        assert busy <= 2

    PINGPONG = """
    pong:
        SEND  [A3+1]
        SENDE #IP:done
        SUSPEND
    done:
        SUSPEND
    """

    def test_clock_jumps_over_idle_gaps(self):
        machine = JMachine.build(2)
        program = assemble("bg:\n NOP\n HALT")
        machine.load(program, nodes=[0])
        machine.start_background(0, program.entry("bg"))
        end = machine.run(max_cycles=1_000_000)
        assert end < 100

    def test_counters_aggregate(self):
        machine = JMachine.build(2)
        program = assemble("bg:\n NOP\n NOP\n HALT")
        machine.load(program, nodes=[0, 1])
        machine.start_background(0, program.entry("bg"))
        machine.start_background(1, program.entry("bg"))
        machine.run(max_cycles=1000)
        assert machine.total_instructions() == 6
        assert machine.total_busy_cycles() == 6
