"""Tests for the node memory system."""

import pytest

from repro.core.errors import MemoryError_, SegmentationFault
from repro.core.memory import NodeMemory
from repro.core.word import Word


@pytest.fixture
def memory():
    return NodeMemory(imem_words=256, emem_words=1024)


class TestGeometry:
    def test_default_sizes(self):
        memory = NodeMemory()
        assert memory.imem_words == 4096
        assert memory.total_words == 4096 + 256 * 1024

    def test_is_internal(self, memory):
        assert memory.is_internal(0)
        assert memory.is_internal(255)
        assert not memory.is_internal(256)

    def test_rejects_bad_sizes(self):
        with pytest.raises(MemoryError_):
            NodeMemory(imem_words=0)


class TestAccess:
    def test_read_write_roundtrip(self, memory):
        memory.write(10, Word.from_int(99))
        assert memory.read(10) == Word.from_int(99)

    def test_initial_contents_are_nil(self, memory):
        assert memory.read(5).value == 0

    def test_out_of_range_read(self, memory):
        with pytest.raises(SegmentationFault):
            memory.read(memory.total_words)

    def test_negative_address(self, memory):
        with pytest.raises(SegmentationFault):
            memory.read(-1)

    def test_write_requires_word(self, memory):
        with pytest.raises(MemoryError_):
            memory.write(0, 42)

    def test_peek_poke_do_not_meter(self, memory):
        memory.poke(3, Word.from_int(1))
        assert memory.peek(3).value == 1
        assert memory.meter.cycles == 0


class TestAccessCosts:
    def test_imem_read_costs_one(self, memory):
        memory.read(0)
        assert memory.meter.take_cycles() == 1

    def test_emem_read_costs_six(self, memory):
        memory.read(300)
        assert memory.meter.take_cycles() == 6

    def test_costs_accumulate(self, memory):
        memory.read(0)
        memory.read(300)
        assert memory.meter.take_cycles() == 7

    def test_take_cycles_clears(self, memory):
        memory.read(0)
        memory.meter.take_cycles()
        assert memory.meter.take_cycles() == 0

    def test_traffic_counters(self, memory):
        memory.read(0)
        memory.write(0, Word.from_int(1))
        memory.read(300)
        memory.write(300, Word.from_int(1))
        assert memory.meter.imem_reads == 1
        assert memory.meter.imem_writes == 1
        assert memory.meter.emem_reads == 1
        assert memory.meter.emem_writes == 1


class TestBlocks:
    def test_load_dump_roundtrip(self, memory):
        words = [Word.from_int(i) for i in range(8)]
        for offset, word in enumerate(words):
            memory.poke(16 + offset, word)
        assert memory.dump_block(16, 8) == words

    def test_dump_block_bounds(self, memory):
        with pytest.raises(MemoryError_):
            memory.dump_block(-1, 4)
