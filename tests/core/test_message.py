"""Tests for the message representation."""

import pytest

from repro.core.errors import TypeFault
from repro.core.message import Message
from repro.core.registers import Priority
from repro.core.word import Word


def test_header_must_be_ip_tagged():
    with pytest.raises(TypeFault):
        Message([Word.from_int(5)], source=0, dest=1)


def test_empty_message_rejected():
    with pytest.raises(TypeFault):
        Message([], source=0, dest=1)


def test_handler_ip():
    message = Message([Word.ip(128), Word.from_int(1)], source=0, dest=1)
    assert message.handler_ip == 128


def test_length_includes_header():
    message = Message.build(128, [Word.from_int(1), Word.from_int(2)], 0, 1)
    assert message.length == 3
    assert len(message) == 3


def test_body_excludes_header():
    message = Message.build(128, [Word.from_int(7)], 0, 1)
    assert message.body() == (Word.from_int(7),)


def test_indexing():
    message = Message.build(128, [Word.from_int(7)], 0, 1)
    assert message[0] == Word.ip(128)
    assert message[1].value == 7


def test_default_priority_zero():
    message = Message.build(128, [], 0, 1)
    assert message.priority is Priority.P0


def test_priority_one():
    message = Message.build(128, [], 0, 1, priority=Priority.P1)
    assert message.priority is Priority.P1


def test_timestamps_start_unset():
    message = Message.build(128, [], 0, 1)
    assert message.inject_time is None


def test_repr_mentions_endpoints():
    message = Message.build(128, [], 3, 9)
    assert "3->9" in repr(message)
