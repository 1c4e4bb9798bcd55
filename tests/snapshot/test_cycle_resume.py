"""Cycle-level checkpoint/resume: bit-identical.

The determinism contract (docs/SNAPSHOT.md): checkpoint at any safe
point, restore in a fresh machine, run to the end — final architectural
state AND the sha256 telemetry event-stream digest match the
uninterrupted run exactly.  Enforced plain and under an active chaos
plan.
"""

import pytest

from repro.asm.assembler import assemble
from repro.chaos import ChaosEngine, FaultPlan, FaultSpec
from repro.core.registers import Priority
from repro.core.word import Word
from repro.machine.config import MachineConfig
from repro.machine.jmachine import JMachine
from repro.snapshot import CheckpointPolicy, load_machine, read_header
from repro.telemetry import Telemetry

ECHO = """
echo:
    SEND  [A3+1]
    SEND  #IP:landing
    SENDE [A3+2]
    SUSPEND
landing:
    MOVE  [A3+1], [A0+0]
    SUSPEND
"""

STALL_SPECS = (FaultSpec(kind="stall", node=2, start=30, duration=40),)


def _build(specs=()):
    machine = JMachine(MachineConfig(dims=(4, 2, 1)), telemetry=Telemetry())
    program = assemble(ECHO)
    machine.load(program)
    base = program.end + 4
    for node in machine.nodes:
        node.proc.registers[Priority.P0].write("A0", Word.segment(base, 4))
    if specs:
        ChaosEngine(FaultPlan(seed=3, specs=tuple(specs))) \
            .attach_machine(machine)
    for i in range(8):
        machine.inject(i, program.entry("echo"),
                       [Word.from_int((i + 3) % 8), Word.from_int(100 + i)],
                       source=(i + 1) % 8)
    return machine


def _digest(machine):
    regs = [[str(node.proc.registers[p].read(r))
             for p in (Priority.P0, Priority.P1)
             for r in ("R0", "R1", "R2", "A0", "A3")]
            for node in machine.nodes]
    return {
        "now": machine.now,
        "registers": regs,
        "counters": [dict(node.proc.counters.__dict__)
                     for node in machine.nodes],
        "deliveries": machine.deliveries_committed,
        "fingerprint": machine.telemetry.events.fingerprint(),
        "chaos": ((dict(machine.chaos.counters), list(machine.chaos.log))
                  if machine.chaos is not None else None),
    }


def _interrupted(tmp_path, specs=(), every=40):
    """Run with checkpointing, 'crash', restore, finish; both digests."""
    path = str(tmp_path / "cycle.ckpt")
    first = _build(specs=specs)
    first.checkpoint = CheckpointPolicy(path, every=every)
    first.run(max_cycles=20_000)
    assert first.checkpoint.saves >= 1, "checkpoint policy never fired"
    resumed = load_machine(path)
    assert resumed.now == read_header(path)["meta"]["now"]
    resumed.run(max_cycles=20_000)
    return _digest(first), _digest(resumed)


class TestSerialResume:
    def test_plain(self, tmp_path):
        reference = _build()
        reference.run(max_cycles=20_000)
        finished, resumed = _interrupted(tmp_path)
        assert finished == _digest(reference)  # checkpointing is free
        assert resumed == _digest(reference)

    @pytest.mark.parametrize("specs", [
        (FaultSpec(kind="drop", rate=0.3), FaultSpec(kind="corrupt",
                                                     rate=0.2)),
        STALL_SPECS,
        (FaultSpec(kind="kill", node=3, start=53),),
    ], ids=["drop-corrupt", "stall", "kill"])
    def test_under_chaos(self, tmp_path, specs):
        """Named-stream RNG positions resume exactly: the replayed tail
        makes the same drop/corrupt decisions, so the event-stream
        digests match an uninterrupted chaos run's."""
        reference = _build(specs=specs)
        reference.run(max_cycles=20_000)
        _, resumed = _interrupted(tmp_path, specs=specs)
        assert resumed == _digest(reference)

    def test_restore_is_state_identical_at_capture(self, tmp_path):
        path = str(tmp_path / "mid.ckpt")
        machine = _build()
        machine.checkpoint = CheckpointPolicy(path, every=25)
        machine.run(max_cycles=20_000)
        restored = load_machine(path)
        from repro.snapshot import capture_machine

        recapture = capture_machine(restored)
        header_now = read_header(path)["meta"]["now"]
        assert recapture["now"] == header_now == restored.now

    def test_resumed_machine_restores_again(self, tmp_path):
        """Checkpoints taken from a resumed run are as good as firsts."""
        path_a = str(tmp_path / "a.ckpt")
        path_b = str(tmp_path / "b.ckpt")
        reference = _build()
        reference.run(max_cycles=20_000)

        first = _build()
        first.checkpoint = CheckpointPolicy(path_a, every=20)
        first.run(max_cycles=20_000)
        second = load_machine(path_a)
        second.checkpoint = CheckpointPolicy(path_b, every=4)
        second.run(max_cycles=20_000)
        assert second.checkpoint.saves >= 1
        third = load_machine(path_b)
        third.run(max_cycles=20_000)
        assert _digest(third) == _digest(reference)

