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


class EagerAmt:
    """The table with all of its sets built up front — the model the
    on-demand sets must be indistinguishable from."""

    def __init__(self, sets, ways):
        self.sets, self.ways = sets, ways
        self.table = [[] for _ in range(sets)]
        self.backing = {}
        self.hits = self.misses = self.enters = self.evictions = 0

    def _set(self, key):
        return self.table[hash(key) % self.sets]

    def _install(self, entry_set, key, value):
        if len(entry_set) >= self.ways:
            entry_set.pop(0)
            self.evictions += 1
        entry_set.append((key, value))

    def enter(self, key, value):
        self.enters += 1
        self.backing[key] = value
        entry_set = self._set(key)
        for i, (existing, _) in enumerate(entry_set):
            if existing == key:
                del entry_set[i]
                entry_set.append((key, value))
                return
        self._install(entry_set, key, value)

    def xlate(self, key):
        entry_set = self._set(key)
        for i, (existing, value) in enumerate(entry_set):
            if existing == key:
                self.hits += 1
                entry_set.append(entry_set.pop(i))
                return value
        self.misses += 1
        raise XlateMissFault(key)

    def miss_fill(self, key):
        if key not in self.backing:
            raise XlateMissFault(key)
        self._install(self._set(key), key, self.backing[key])
        return self.backing[key]

    def probe(self, key):
        for existing, value in self._set(key):
            if existing == key:
                return value
        return self.backing.get(key)

    def poison(self, rng, fraction):
        victims = 0
        for entry_set in self.table:
            keep = [pair for pair in entry_set if rng.random() >= fraction]
            victims += len(entry_set) - len(keep)
            entry_set[:] = keep
        self.evictions += victims
        return victims


_AMT_OPS = st.lists(st.one_of(
    st.tuples(st.just("enter"), st.integers(0, 40), st.integers(0, 9)),
    st.tuples(st.just("xlate"), st.integers(0, 40)),
    st.tuples(st.just("probe"), st.integers(0, 40)),
    st.tuples(st.just("poison"), st.sampled_from([0.0, 0.5, 1.0]))),
    max_size=80)


@given(st.sampled_from([64, 4]), _AMT_OPS, st.integers(0, 2**16))
def test_on_demand_sets_match_eager_sets(sets, ops, seed):
    """Results, counters, set contents and poison victims of the
    on-demand table equal the eager model's, and the rng streams stay in
    step (poison draws in set order); a set exists only while it holds
    an entry."""
    import random

    amt, model = AssociativeMatchTable(sets=sets), EagerAmt(sets, 2)
    rngs = random.Random(seed), random.Random(seed)

    def outcome(table, op, rng):
        name, arg = op[0], op[1]
        try:
            if name == "enter":
                return table.enter(Word.from_int(arg), Word.from_int(op[2]))
            if name == "poison":
                return table.poison(rng, arg)
            if name == "probe":
                return table.probe(Word.from_int(arg))
            try:
                return table.xlate(Word.from_int(arg))
            except XlateMissFault:  # the processor's fault path
                return "filled", table.miss_fill(Word.from_int(arg))
        except XlateMissFault:
            return "unbound"

    for op in ops:
        assert outcome(amt, op, rngs[0]) == outcome(model, op, rngs[1])
        assert ((amt.hits, amt.misses, amt.enters, amt.evictions)
                == (model.hits, model.misses, model.enters, model.evictions))
        assert [amt._table.get(index, []) for index in range(sets)] \
            == model.table
        assert all(amt._table.values())
        assert rngs[0].getstate() == rngs[1].getstate()
