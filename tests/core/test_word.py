"""Tests for the 36-bit tagged word."""

import pickle

import pytest
from hypothesis import given, strategies as st

from repro.core.errors import TypeFault
from repro.core.tags import Tag
from repro.core.word import FALSE, NIL, TRUE, Word


class TestConstruction:
    def test_default_value_is_zero(self):
        assert Word(Tag.INT).value == 0

    def test_from_int(self):
        word = Word.from_int(42)
        assert word.tag is Tag.INT
        assert word.value == 42

    def test_from_bool(self):
        assert Word.from_bool(True) == TRUE
        assert Word.from_bool(False) == FALSE

    def test_from_sym(self):
        word = Word.from_sym(ord("x"))
        assert word.tag is Tag.SYM
        assert word.value == ord("x")

    def test_ip(self):
        assert Word.ip(128).tag is Tag.IP

    def test_cfut_and_fut(self):
        assert Word.cfut().tag is Tag.CFUT
        assert Word.fut(7).tag is Tag.FUT
        assert Word.fut(7).value == 7

    def test_nil_is_int_zero(self):
        assert NIL.tag is Tag.INT
        assert NIL.value == 0


class TestSigned32:
    def test_wraps_positive_overflow(self):
        assert Word.from_int(2**31).value == -(2**31)

    def test_wraps_negative_overflow(self):
        assert Word.from_int(-(2**31) - 1).value == 2**31 - 1

    def test_max_int_preserved(self):
        assert Word.from_int(2**31 - 1).value == 2**31 - 1

    @given(st.integers())
    def test_value_always_in_range(self, value):
        word = Word.from_int(value)
        assert -(2**31) <= word.value <= 2**31 - 1

    @given(st.integers(min_value=-(2**31), max_value=2**31 - 1))
    def test_in_range_values_unchanged(self, value):
        assert Word.from_int(value).value == value


class TestImmutability:
    def test_cannot_set_value(self):
        word = Word.from_int(1)
        with pytest.raises(AttributeError):
            word.value = 2

    def test_cannot_set_tag(self):
        word = Word.from_int(1)
        with pytest.raises(AttributeError):
            word.tag = Tag.SYM

    def test_cannot_delete(self):
        word = Word.from_int(1)
        with pytest.raises(AttributeError):
            del word.value

    def test_constructor_still_normalises(self):
        word = Word(int(Tag.SYM), 2**32 + 5)
        assert word.tag is Tag.SYM and word.value == 5

    @pytest.mark.parametrize("word", [Word.from_int(-7), Word.segment(9, 3),
                                      Word.cfut(2), Word(Tag.INT, 2**31)])
    def test_pickles_through_the_constructor(self, word):
        assert word.__reduce__() == (Word, (word.tag, word.value))
        again = pickle.loads(pickle.dumps(word))
        assert again == word and again.tag is word.tag
        with pytest.raises(AttributeError):
            again.value = 0


class TestSegments:
    def test_pack_unpack(self):
        word = Word.segment(1000, 64)
        assert word.tag is Tag.ADDR
        assert word.as_segment() == (1000, 64)

    @given(st.integers(0, 2**20 - 1), st.integers(0, 2**12 - 1))
    def test_roundtrip(self, base, length):
        assert Word.segment(base, length).as_segment() == (base, length)

    def test_base_out_of_range(self):
        with pytest.raises(TypeFault):
            Word.segment(2**20, 4)

    def test_length_out_of_range(self):
        with pytest.raises(TypeFault):
            Word.segment(0, 2**12)

    def test_negative_base_rejected(self):
        with pytest.raises(TypeFault):
            Word.segment(-1, 4)

    def test_as_segment_requires_addr_tag(self):
        with pytest.raises(TypeFault):
            Word.from_int(5).as_segment()


class TestMsgAndPhys:
    @given(st.integers(0, 2**16 - 1), st.integers(0, 2**16 - 1))
    def test_msg_roundtrip(self, node, hint):
        assert Word.msg(node, hint).as_msg() == (node, hint)

    def test_as_msg_requires_msg_tag(self):
        with pytest.raises(TypeFault):
            Word.from_int(5).as_msg()

    @given(st.integers(0, 63), st.integers(0, 63), st.integers(0, 63))
    def test_phys_roundtrip(self, x, y, z):
        assert Word.phys(x, y, z).as_phys() == (x, y, z)

    def test_phys_range_check(self):
        with pytest.raises(TypeFault):
            Word.phys(64, 0, 0)


class TestPredicates:
    def test_numeric_tags(self):
        assert Word.from_int(1).is_numeric()
        assert Word.from_bool(True).is_numeric()
        assert Word.from_sym(3).is_numeric()
        assert not Word.ip(0).is_numeric()
        assert not Word.cfut().is_numeric()

    def test_is_future(self):
        assert Word.cfut().is_future()
        assert Word.fut().is_future()
        assert not Word.from_int(0).is_future()

    def test_truthy(self):
        assert Word.from_int(5).truthy()
        assert not Word.from_int(0).truthy()
        assert Word.from_int(-1).truthy()


class TestEqualityHash:
    def test_equal_same_tag_value(self):
        assert Word.from_int(7) == Word.from_int(7)

    def test_unequal_different_tag(self):
        assert Word.from_int(7) != Word.from_sym(7)

    def test_hashable_as_dict_key(self):
        table = {Word.from_int(7): "a", Word.from_sym(7): "b"}
        assert table[Word.from_int(7)] == "a"
        assert table[Word.from_sym(7)] == "b"

    def test_not_equal_to_plain_int(self):
        assert Word.from_int(7) != 7

    @given(st.integers(), st.sampled_from(list(Tag)))
    def test_hash_consistent_with_eq(self, value, tag):
        a = Word(tag, value)
        b = Word(tag, value)
        assert a == b
        assert hash(a) == hash(b)


class TestRepr:
    def test_plain_repr(self):
        assert "INT" in repr(Word.from_int(3))

    def test_segment_repr(self):
        assert repr(Word.segment(10, 2)) == "Word.segment(10, 2)"

    def test_msg_repr(self):
        assert repr(Word.msg(3, 1)) == "Word.msg(3, 1)"
