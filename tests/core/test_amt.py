"""Tests for the associative match table (enter/xlate hardware)."""

import pytest
from hypothesis import given, strategies as st

from repro.core.amt import AssociativeMatchTable
from repro.core.errors import ConfigurationError, XlateMissFault
from repro.core.word import Word


@pytest.fixture
def amt():
    return AssociativeMatchTable(sets=8, ways=2)


class TestEnterXlate:
    def test_roundtrip(self, amt):
        amt.enter(Word.from_int(1), Word.segment(100, 8))
        assert amt.xlate(Word.from_int(1)) == Word.segment(100, 8)

    def test_miss_faults(self, amt):
        with pytest.raises(XlateMissFault):
            amt.xlate(Word.from_int(99))

    def test_replace_existing(self, amt):
        key = Word.from_int(1)
        amt.enter(key, Word.from_int(10))
        amt.enter(key, Word.from_int(20))
        assert amt.xlate(key).value == 20

    def test_tag_participates_in_matching(self, amt):
        amt.enter(Word.from_int(7), Word.from_int(1))
        amt.enter(Word.from_sym(7), Word.from_int(2))
        assert amt.xlate(Word.from_int(7)).value == 1
        assert amt.xlate(Word.from_sym(7)).value == 2

    def test_geometry_validated(self):
        with pytest.raises(ConfigurationError):
            AssociativeMatchTable(sets=0)


class TestEvictionAndBacking:
    def test_eviction_falls_back_to_backing(self):
        amt = AssociativeMatchTable(sets=1, ways=2)
        keys = [Word.from_int(i) for i in range(3)]
        for i, key in enumerate(keys):
            amt.enter(key, Word.from_int(100 + i))
        # One of the three must have been evicted from the single set.
        assert amt.evictions >= 1
        # The evicted binding is still resolvable via the miss path.
        for i, key in enumerate(keys):
            try:
                value = amt.xlate(key)
            except XlateMissFault:
                value = amt.miss_fill(key)
            assert value.value == 100 + i

    def test_miss_fill_unbound_raises(self, amt):
        with pytest.raises(XlateMissFault):
            amt.miss_fill(Word.from_int(404))

    def test_miss_fill_installs(self):
        amt = AssociativeMatchTable(sets=1, ways=1)
        amt.enter(Word.from_int(1), Word.from_int(10))
        amt.enter(Word.from_int(2), Word.from_int(20))  # evicts key 1
        with pytest.raises(XlateMissFault):
            amt.xlate(Word.from_int(1))
        amt.miss_fill(Word.from_int(1))
        assert amt.xlate(Word.from_int(1)).value == 10

    def test_lru_within_set(self):
        amt = AssociativeMatchTable(sets=1, ways=2)
        a, b, c = (Word.from_int(i) for i in range(3))
        amt.enter(a, Word.from_int(0))
        amt.enter(b, Word.from_int(1))
        amt.xlate(a)  # refresh a: b becomes LRU
        amt.enter(c, Word.from_int(2))  # should evict b
        amt.xlate(a)
        amt.xlate(c)
        with pytest.raises(XlateMissFault):
            amt.xlate(b)


class TestProbePurge:
    def test_probe_hit(self, amt):
        amt.enter(Word.from_int(1), Word.from_int(10))
        assert amt.probe(Word.from_int(1)).value == 10

    def test_probe_miss_returns_none(self, amt):
        assert amt.probe(Word.from_int(1)) is None


class TestStats:
    def test_hit_miss_counters(self, amt):
        amt.enter(Word.from_int(1), Word.from_int(10))
        amt.xlate(Word.from_int(1))
        with pytest.raises(XlateMissFault):
            amt.xlate(Word.from_int(2))
        assert amt.hits == 1
        assert amt.misses == 1

    def test_clear(self, amt):
        amt.enter(Word.from_int(1), Word.from_int(10))
        amt.clear()
        assert amt.probe(Word.from_int(1)) is None
        assert amt.enters == 0


@given(st.lists(st.tuples(st.integers(0, 50), st.integers(0, 1000)),
                max_size=60))
def test_behaves_like_a_dict(pairs):
    """enter/xlate must agree with a plain dict regardless of evictions."""
    amt = AssociativeMatchTable(sets=4, ways=2)
    model = {}
    for key_value, data in pairs:
        key = Word.from_int(key_value)
        amt.enter(key, Word.from_int(data))
        model[key] = Word.from_int(data)
    for key, expected in model.items():
        try:
            assert amt.xlate(key) == expected
        except XlateMissFault:
            assert amt.miss_fill(key) == expected
