"""The state comparison behind every fast-vs-reference and resume test
sees each memory cell: a machine differing in one SRAM or one DRAM word
is a different state, and a stored NIL is the same state as a cell
never written."""

import pytest

from repro.core.word import NIL, Word
from repro.machine.config import MachineConfig
from repro.machine.jmachine import JMachine
from tests.util import assert_same_state, machine_state


def _pair():
    return [JMachine(MachineConfig(dims=(2, 1, 1))) for _ in range(2)]


@pytest.mark.parametrize("address", [100, 4096 + 100], ids=["sram", "dram"])
def test_one_differing_cell_fails(address):
    a, b = _pair()
    for machine in (a, b):
        machine.node(1).proc.memory.poke(address, Word.from_int(5))
    assert_same_state(machine_state(a), machine_state(b))
    b.node(1).proc.memory.poke(address, Word.from_int(6))
    with pytest.raises(AssertionError):
        assert_same_state(machine_state(a), machine_state(b))


@pytest.mark.parametrize("address", [100, 4096 + 100], ids=["sram", "dram"])
def test_stored_nil_equals_absent_cell(address):
    a, b = _pair()
    b.node(0).proc.memory.poke(address, NIL)
    assert_same_state(machine_state(a), machine_state(b))
