"""Tests for the node memory system."""

import pytest
from hypothesis import given, strategies as st

from repro.core.errors import MemoryError_, SegmentationFault
from repro.core.memory import NodeMemory
from repro.core.word import NIL, Word


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


class DenseMemory:
    """The memory with its SRAM as a dense list of cells and its DRAM as
    a map — the model the sparse cells must be indistinguishable from."""

    def __init__(self, imem_words, emem_words):
        self.imem_words = imem_words
        self.total_words = imem_words + emem_words
        self.sram = [NIL] * imem_words
        self.dram = {}
        self.counts = {"imem_reads": 0, "imem_writes": 0,
                       "emem_reads": 0, "emem_writes": 0}
        self.cycles = 0

    def _check(self, address):
        if not 0 <= address < self.total_words:
            raise SegmentationFault(address)

    def _charge(self, address, kind):
        region = "imem" if address < self.imem_words else "emem"
        self.counts[f"{region}_{kind}"] += 1
        self.cycles += 1 if region == "imem" else 6

    def peek(self, address):
        self._check(address)
        if address < self.imem_words:
            return self.sram[address]
        return self.dram.get(address, NIL)

    def poke(self, address, word):
        self._check(address)
        if address < self.imem_words:
            self.sram[address] = word
        else:
            self.dram[address] = word

    def read(self, address):
        word = self.peek(address)
        self._charge(address, "reads")
        return word

    def write(self, address, word):
        self._check(address)
        if not isinstance(word, Word):
            raise MemoryError_(type(word))
        self._charge(address, "writes")
        self.poke(address, word)

    def dump_block(self, base, count):
        if base < 0 or base + count > self.total_words:
            raise MemoryError_(base)
        return [self.peek(base + offset) for offset in range(count)]


_IMEM, _EMEM = 8, 8
_ADDRESSES = st.one_of(
    st.sampled_from([-1, 0, _IMEM - 1, _IMEM, _IMEM + _EMEM - 1,
                     _IMEM + _EMEM]),
    st.integers(-3, _IMEM + _EMEM + 2))
_WORDS = st.one_of(st.sampled_from([NIL, Word.cfut(), 42]),
                   st.integers(-5, 5).map(Word.from_int))
_MEMORY_OPS = st.lists(st.one_of(
    st.tuples(st.sampled_from(["read", "peek"]), _ADDRESSES),
    st.tuples(st.sampled_from(["write", "poke"]), _ADDRESSES, _WORDS),
    st.tuples(st.just("dump_block"), _ADDRESSES, st.integers(0, 4))),
    max_size=60)


@given(_MEMORY_OPS)
def test_sparse_cells_match_dense_model(ops):
    """Values, faults, meter counts and cycles of every access — both
    region edges, NIL stores and addresses outside the node included —
    equal the dense model's."""
    memory, model = NodeMemory(_IMEM, _EMEM), DenseMemory(_IMEM, _EMEM)

    def outcome(target, op):
        try:
            return getattr(target, op[0])(*op[1:])
        except (SegmentationFault, MemoryError_) as fault:
            return type(fault)

    for op in ops:
        if op[0] == "poke" and not isinstance(op[2], Word):
            continue  # unchecked loader access: callers store Words
        assert outcome(memory, op) == outcome(model, op)
        meter = memory.meter
        assert {name: getattr(meter, name) for name in model.counts} \
            == model.counts
        assert meter.cycles == model.cycles
    assert [memory.peek(address) for address in range(_IMEM + _EMEM)] \
        == model.sram + [model.dram.get(address, NIL)
                         for address in range(_IMEM, _IMEM + _EMEM)]
