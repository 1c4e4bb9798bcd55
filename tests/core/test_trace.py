"""Tests for the instruction tracer."""

import pytest

from repro.core.message import Message
from repro.core.trace import Tracer
from repro.core.word import Word

from tests.util import load_processor, run_background


def test_records_instructions_in_order():
    proc, program = load_processor("""
    start:
        MOVE #1, R0
        ADD R0, R0, R1
        HALT
    """)
    tracer = Tracer.attach(proc)
    run_background(proc, program.entry("start"))
    ops = [e.detail.split()[0] for e in tracer.events if e.kind == "instr"]
    assert ops == ["MOVE", "ADD", "HALT"]


def test_event_timestamps_monotone():
    proc, program = load_processor("""
    start:
        MOVE #3, R1
    loop:
        SUB R1, #1, R1
        BT R1, loop
        HALT
    """)
    tracer = Tracer.attach(proc)
    run_background(proc, program.entry("start"))
    cycles = [e.cycle for e in tracer.events]
    assert cycles == sorted(cycles)


def test_records_dispatch_events():
    proc, program = load_processor("""
    handler:
        SUSPEND
    """)
    tracer = Tracer.attach(proc)
    proc.deliver(Message.build(program.entry("handler"), [], 0, 0), 0)
    now = 0
    while proc.has_work():
        nxt = proc.tick(now)
        if nxt is None:
            break
        now = nxt
    kinds = [e.kind for e in tracer.events]
    assert "dispatch" in kinds


def test_limit_drops_and_reports():
    proc, program = load_processor("""
    start:
        MOVE #50, R1
    loop:
        SUB R1, #1, R1
        BT R1, loop
        HALT
    """)
    tracer = Tracer.attach(proc, limit=10)
    run_background(proc, program.entry("start"))
    assert len(tracer.events) == 10
    assert tracer.dropped > 0
    assert "dropped" in tracer.format()


def test_predicate_filters_instructions():
    proc, program = load_processor("""
    start:
        MOVE #1, R0
        ADD R0, R0, R1
        MOVE R1, R2
        HALT
    """)
    tracer = Tracer.attach(proc, predicate=lambda i: i.op == "MOVE")
    run_background(proc, program.entry("start"))
    ops = {e.detail.split()[0] for e in tracer.events if e.kind == "instr"}
    assert ops == {"MOVE"}


def test_detach_stops_recording():
    proc, program = load_processor("""
    start:
        MOVE #1, R0
        HALT
    """)
    tracer = Tracer.attach(proc)
    tracer.detach()
    run_background(proc, program.entry("start"))
    assert tracer.events == []


def test_detach_restores_fast_path():
    proc, program = load_processor("start:\n NOP\n HALT")
    proc.fast_path = True
    tracer = Tracer.attach(proc)
    assert proc.fast_path is False  # forced off while attached
    tracer.detach()
    assert proc.fast_path is True


def test_double_detach_keeps_fast_path():
    """Regression: a second detach must not clobber the restored value."""
    proc, program = load_processor("start:\n NOP\n HALT")
    proc.fast_path = True
    tracer = Tracer.attach(proc)
    tracer.detach()
    tracer.detach()
    assert proc.fast_path is True
    assert tracer._original_tick is None


def test_detach_after_run_raises_restores_fast_path():
    """A run that raises mid-trace must still leave the processor in its
    configured fast-path mode after detach (try/finally discipline)."""
    from repro.core.errors import IllegalInstructionFault

    proc, program = load_processor("start:\n NOP\n HALT")
    proc.fast_path = True
    tracer = Tracer.attach(proc)
    proc.set_background(9999)  # no instruction there -> faults on tick
    with pytest.raises(IllegalInstructionFault):
        proc.tick(0)
    tracer.detach()
    assert proc.fast_path is True


def test_machine_run_raise_leaves_trace_recoverable():
    """End-to-end: JMachine.run raising does not lose the tracer's
    ability to restore the processor (the run's finally + detach)."""
    from repro.asm.assembler import assemble
    from repro.core.errors import IllegalInstructionFault
    from repro.machine.config import MachineConfig
    from repro.machine.jmachine import JMachine

    machine = JMachine(MachineConfig(dims=(2, 1, 1), fast_path=True))
    program = assemble("handler:\n  BR #9999\n")
    machine.load(program)
    proc = machine.node(0).proc
    tracer = Tracer.attach(proc)
    machine.inject(0, program.entry("handler"))
    with pytest.raises(IllegalInstructionFault):
        machine.run(max_cycles=1000)
    tracer.detach()
    assert proc.fast_path is True
    assert any(e.kind == "dispatch" for e in tracer.events)


def test_format_renders_lines():
    proc, program = load_processor("start:\n NOP\n HALT")
    tracer = Tracer.attach(proc)
    run_background(proc, program.entry("start"))
    text = tracer.format()
    assert "NOP" in text
    assert "n0" in text


def test_tracing_does_not_change_timing():
    source = """
    start:
        MOVE #20, R1
    loop:
        SUB R1, #1, R1
        BT R1, loop
        HALT
    """
    plain, program = load_processor(source)
    baseline = run_background(plain, program.entry("start"))
    traced, program2 = load_processor(source)
    Tracer.attach(traced)
    timed = run_background(traced, program2.entry("start"))
    assert timed == baseline
