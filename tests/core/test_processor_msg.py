"""Message-driven execution: dispatch, priorities, presence-tag suspend."""

import pytest

from repro.core.costs import DEFAULT_COSTS
from repro.core.errors import CfutFault
from repro.core.faults import AbortFaultPolicy
from repro.core.message import Message
from repro.core.processor import MSG_WINDOW_P0, Mdp
from repro.core.registers import Priority
from repro.core.tags import Tag
from repro.core.word import Word

from tests.util import load_processor


def drive(proc, max_cycles=10_000):
    """Tick the processor until it parks or halts; return elapsed."""
    now = 0
    while not proc.halted and now < max_cycles:
        nxt = proc.tick(now)
        if nxt is None:
            return now
        now = nxt
    return now


class TestDispatch:
    def test_message_creates_task(self):
        proc, program = load_processor("""
        handler:
            MOVE [A3+1], R0
            SUSPEND
        """)
        message = Message.build(program.entry("handler"), [Word.from_int(42)],
                                source=0, dest=0)
        proc.deliver(message, now=0)
        drive(proc)
        assert proc.registers[Priority.P0].read("R0").value == 42
        assert proc.counters.dispatches == 1
        assert proc.counters.threads_completed == 1

    def test_dispatch_costs_four_cycles(self):
        proc, program = load_processor("""
        handler:
            SUSPEND
        """)
        proc.deliver(Message.build(program.entry("handler"), [], 0, 0), 0)
        drive(proc)
        assert proc.counters.dispatch_cycles == 4

    def test_a3_window_covers_message(self):
        proc, program = load_processor("""
        handler:
            SUSPEND
        """)
        args = [Word.from_int(i) for i in range(3)]
        proc.deliver(Message.build(program.entry("handler"), args, 0, 0), 0)
        drive(proc)
        a3 = proc.registers[Priority.P0].read("A3")
        base, length = a3.as_segment()
        assert base == MSG_WINDOW_P0
        assert length == 4
        assert proc.memory.peek(base + 1).value == 0
        assert proc.memory.peek(base + 3).value == 2

    def test_fifo_order_within_priority(self):
        proc, program = load_processor("""
        handler:
            MOVE [A3+1], [A0+0]
            SUSPEND
        """)
        base = program.end + 4
        proc.registers[Priority.P0].write("A0", Word.segment(base, 4))
        for value in (1, 2, 3):
            proc.deliver(
                Message.build(program.entry("handler"),
                              [Word.from_int(value)], 0, 0), 0)
        drive(proc)
        # The last handler to run saw the last message.
        assert proc.memory.peek(base).value == 3
        assert proc.counters.threads_completed == 3

    def test_queue_capacity_released_after_suspend(self):
        proc, program = load_processor("""
        handler:
            SUSPEND
        """)
        queue = proc.queues[Priority.P0]
        proc.deliver(Message.build(program.entry("handler"), [], 0, 0), 0)
        assert queue.used_words == 4
        drive(proc)
        assert queue.used_words == 0


class TestPriorities:
    def test_p1_preempts_p0(self):
        proc, program = load_processor("""
        p0_handler:
            MOVE #1, [A0+0]
            MOVE #1, [A0+0]
            MOVE #1, [A0+0]
            MOVE #1, [A0+0]
            MOVE #99, [A0+1]
            SUSPEND
        p1_handler:
            MOVE [A0+1], [A0+2]
            SUSPEND
        """)
        base = program.end + 4
        for priority in (Priority.P0, Priority.P1):
            proc.registers[priority].write("A0", Word.segment(base, 4))
        proc.deliver(Message.build(program.entry("p0_handler"), [], 0, 0), 0)
        # Run two steps (dispatch + first instruction), then a P1 arrives.
        now = proc.tick(0)
        now = proc.tick(now)
        proc.deliver(
            Message.build(program.entry("p1_handler"), [], 0, 0,
                          priority=Priority.P1), now)
        drive_from = now
        while not proc.halted:
            nxt = proc.tick(drive_from)
            if nxt is None:
                break
            drive_from = nxt
        # The P1 handler ran before the P0 thread wrote 99.
        assert proc.memory.peek(base + 2).value == 0
        # And the P0 thread still completed afterwards.
        assert proc.memory.peek(base + 1).value == 99
        assert proc.counters.threads_completed == 2

    def test_background_runs_only_when_idle(self):
        proc, program = load_processor("""
        bg:
            MOVE #1, [A0+0]
            HALT
        handler:
            MOVE #2, [A0+1]
            SUSPEND
        """)
        base = program.end + 4
        proc.registers[Priority.BACKGROUND].write("A0", Word.segment(base, 4))
        proc.registers[Priority.P0].write("A0", Word.segment(base, 4))
        proc.set_background(program.entry("bg"))
        proc.deliver(Message.build(program.entry("handler"), [], 0, 0), 0)
        drive(proc)
        assert proc.memory.peek(base + 1).value == 2
        assert proc.memory.peek(base).value == 1


class TestPresenceTags:
    def make_consumer_producer(self):
        proc, program = load_processor("""
        consumer:
            MOVE [A0+0], R2      ; faults while slot is cfut
            MOVE R2, [A0+1]
            SUSPEND
        producer:
            MOVE [A3+1], [A0+0]  ; write wakes the consumer
            SUSPEND
        """, costs=DEFAULT_COSTS.with_overrides(suspend_save=10, restart=10))
        base = program.end + 4
        proc.registers[Priority.P0].write("A0", Word.segment(base, 4))
        proc.memory.poke(base, Word.cfut())
        return proc, program, base

    def test_consumer_suspends_then_restarts(self):
        proc, program, base = self.make_consumer_producer()
        proc.deliver(Message.build(program.entry("consumer"), [], 0, 0), 0)
        now = drive(proc)
        assert proc.counters.suspends == 1
        assert proc.memory.peek(base + 1).value == 0  # still waiting
        proc.deliver(
            Message.build(program.entry("producer"), [Word.from_int(77)],
                          0, 0), now)
        drive(proc, max_cycles=now + 10_000)
        assert proc.counters.restarts == 1
        assert proc.memory.peek(base + 1).value == 77

    def test_value_before_consumer_means_no_suspend(self):
        proc, program, base = self.make_consumer_producer()
        proc.deliver(
            Message.build(program.entry("producer"), [Word.from_int(5)],
                          0, 0), 0)
        proc.deliver(Message.build(program.entry("consumer"), [], 0, 0), 0)
        drive(proc)
        assert proc.counters.suspends == 0
        assert proc.memory.peek(base + 1).value == 5

    def test_abort_policy_raises_cfut(self):
        proc, program = load_processor("""
        consumer:
            MOVE [A0+0], R2
            SUSPEND
        """, fault_policy=AbortFaultPolicy())
        base = program.end + 4
        proc.registers[Priority.P0].write("A0", Word.segment(base, 4))
        proc.memory.poke(base, Word.cfut())
        proc.deliver(Message.build(program.entry("consumer"), [], 0, 0), 0)
        with pytest.raises(CfutFault):
            drive(proc)

    def test_multiple_waiters_on_one_slot(self):
        proc, program = load_processor("""
        consumer:
            MOVE [A0+0], R2
            ADD [A0+1], #1, R3
            MOVE R3, [A0+1]
            SUSPEND
        producer:
            MOVE #9, [A0+0]
            SUSPEND
        """, costs=DEFAULT_COSTS.with_overrides(suspend_save=5, restart=5))
        base = program.end + 4
        proc.registers[Priority.P0].write("A0", Word.segment(base, 4))
        proc.memory.poke(base, Word.cfut())
        proc.deliver(Message.build(program.entry("consumer"), [], 0, 0), 0)
        proc.deliver(Message.build(program.entry("consumer"), [], 0, 0), 0)
        now = drive(proc)
        assert proc.counters.suspends == 2
        proc.deliver(Message.build(program.entry("producer"), [], 0, 0), now)
        drive(proc)
        assert proc.memory.peek(base + 1).value == 2
        assert proc.counters.restarts == 2
