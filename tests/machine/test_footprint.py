"""A node costs what it touches: building the paper's 512-node machine
allocates state for the cells, names and node ids its programs use, not
for each node's address space.  Each node's 4K SRAM cells and 64 AMT
sets up front came to about 18 MB, and a preloaded identity map in every
node's TLB to 14 MB more."""

import tracemalloc

import pytest

from repro.machine.config import MachineConfig
from repro.machine.jmachine import JMachine


@pytest.mark.parametrize("translated", [False, True],
                         ids=["plain", "node-tlb"])
def test_512_node_machine_is_small(translated):
    tracemalloc.start()
    try:
        machine = JMachine(MachineConfig(dims=(8, 8, 8),
                                         auto_node_translation=translated))
        held, _peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(machine.nodes) == 512
    assert held < 6_000_000, f"{held / 1e6:.1f} MB"
