"""Tests for the proposed TLB pair (the paper's naming upgrade)."""

import pytest
from hypothesis import given, strategies as st

from repro.core.errors import ConfigurationError, XlateMissFault
from repro.core.tlb import NodeTlb, TranslationBuffer


class TestTranslationBuffer:
    def test_map_translate(self):
        tlb = TranslationBuffer()
        tlb.map(5, 500)
        assert tlb.translate(5) == 500

    def test_unmapped_faults(self):
        with pytest.raises(XlateMissFault):
            TranslationBuffer().translate(1)

    def test_first_translate_is_walk_then_hit(self):
        tlb = TranslationBuffer()
        tlb.map(5, 500)
        tlb.translate(5)
        assert tlb.walks == 1
        tlb.translate(5)
        assert tlb.hits == 1
        assert tlb.walks == 1

    def test_lookup_does_not_walk(self):
        tlb = TranslationBuffer()
        tlb.map(5, 500)
        assert tlb.lookup(5) is None  # not yet cached
        assert tlb.walks == 0

    def test_hit_ratio(self):
        tlb = TranslationBuffer()
        tlb.map(1, 10)
        tlb.translate(1)
        tlb.translate(1)
        tlb.translate(1)
        assert tlb.hits / (tlb.hits + tlb.misses) == pytest.approx(2 / 3)

    def test_eviction_refills_from_backing(self):
        tlb = TranslationBuffer(sets=1, ways=1)
        tlb.map(0, 100)
        tlb.map(1, 101)
        tlb.translate(0)
        tlb.translate(1)  # evicts 0
        assert tlb.translate(0) == 100  # walked again
        assert tlb.walks == 3

    def test_bad_geometry(self):
        with pytest.raises(ConfigurationError):
            TranslationBuffer(sets=0)

    @given(st.dictionaries(st.integers(0, 100), st.integers(0, 10**6),
                           max_size=40))
    def test_agrees_with_dict(self, mapping):
        tlb = TranslationBuffer(sets=4, ways=2)
        for virtual, physical in mapping.items():
            tlb.map(virtual, physical)
        for virtual, physical in mapping.items():
            assert tlb.translate(virtual) == physical


class TestNodeTlb:
    def test_identity_preload(self):
        tlb = NodeTlb(8)
        assert all(tlb.translate(i) == i for i in range(8))

    def test_partition_remap(self):
        tlb = NodeTlb(8)
        tlb.restrict_partition([4, 5, 6, 7])
        assert tlb.translate(0) == 4
        assert tlb.translate(3) == 7

    def test_partition_protection(self):
        """Names outside the partition fault — the isolation property."""
        tlb = NodeTlb(8)
        tlb.restrict_partition([4, 5])
        with pytest.raises(XlateMissFault):
            tlb.translate(2)

    def test_partition_member_validation(self):
        tlb = NodeTlb(4)
        with pytest.raises(ConfigurationError):
            tlb.restrict_partition([9])


class TestMachineIntegration:
    def test_vnode_destination_translated(self):
        from repro.asm import assemble
        from repro.core import Priority, Tag, Word
        from repro.machine import JMachine, MachineConfig

        machine = JMachine(MachineConfig(dims=(2, 2, 1),
                                         auto_node_translation=True))
        program = assemble("""
        sender:
            MOVE  [A0+1], R1          ; a VNODE-tagged destination
            SEND  R1
            SENDE #IP:landing
            SUSPEND
        landing:
            MOVE #1, [A0+0]
            SUSPEND
        """)
        machine.load(program)
        base = program.end + 4
        for node in machine.nodes:
            node.proc.registers[Priority.P0].write(
                "A0", Word.segment(base, 4))
        # Remap node 0's view: virtual node 1 -> physical node 3.
        machine.node(0).interface.node_tlb.map(1, 3)
        machine.node(0).proc.memory.poke(base + 1, Word(Tag.VNODE, 1))
        machine.inject(0, program.entry("sender"))
        machine.run(max_cycles=5_000)
        assert machine.node(3).proc.memory.peek(base).value == 1

