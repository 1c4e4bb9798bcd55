"""The determinism contract: same seed + plan => identical event stream."""

import pytest

from repro.asm.assembler import assemble
from repro.chaos import ChaosEngine, FaultPlan, FaultSpec
from repro.chaos.harness import APPS, run_app_under_plan
from repro.core.registers import Priority
from repro.core.word import Word
from repro.machine.jmachine import JMachine
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


def _cycle_run(plan, n=8, echoes=6):
    """Run the ECHO workload under ``plan``; returns (fingerprint, engine)."""
    telemetry = Telemetry(events=True)
    machine = JMachine.build(n, telemetry=telemetry)
    program = assemble(ECHO)
    machine.load(program)
    base = program.end + 4
    for node in machine.nodes:
        node.proc.registers[Priority.P0].write("A0", Word.segment(base, 4))
    engine = None
    if plan is not None:
        engine = ChaosEngine(plan).attach_machine(machine)
    for i in range(1, echoes + 1):
        machine.inject(i, program.entry("echo"),
                       [Word.from_int(0), Word.from_int(100 + i)], source=0)
    machine.run(max_cycles=200_000)
    return telemetry.events.fingerprint(), engine


LOSSY = FaultPlan(seed=77, specs=(
    FaultSpec(kind="drop", rate=0.5),
    FaultSpec(kind="corrupt", rate=0.3),
))


class TestCycleLevel:
    def test_same_plan_same_event_stream(self):
        first, engine1 = _cycle_run(LOSSY)
        second, engine2 = _cycle_run(LOSSY)
        assert first == second
        assert engine1.summary() == engine2.summary()
        # The plan really did something (the test is not vacuous).
        assert engine1.faults_injected > 0

    def test_different_seed_different_faults(self):
        other = FaultPlan(seed=78, specs=LOSSY.specs)
        _, engine1 = _cycle_run(LOSSY)
        _, engine2 = _cycle_run(other)
        assert engine1.log != engine2.log

    def test_empty_plan_matches_no_plan(self):
        """An attached-but-empty plan must not perturb the event stream."""
        bare, _ = _cycle_run(None)
        empty, engine = _cycle_run(FaultPlan(seed=123))
        assert bare == empty
        assert engine.faults_injected == 0


class TestMacroLevel:
    @pytest.mark.parametrize("app", APPS)
    def test_same_plan_same_fingerprint(self, app):
        plan = FaultPlan.message_loss(0.02, seed=5)
        first = run_app_under_plan(plan, app=app, n_nodes=4, scale=0.01)
        second = run_app_under_plan(plan, app=app, n_nodes=4, scale=0.01)
        assert first.completed and second.completed
        assert first.fingerprint == second.fingerprint
        assert first.n_events == second.n_events
        assert first.chaos == second.chaos
        assert first.reliable == second.reliable

    def test_different_seeds_diverge(self):
        a = run_app_under_plan(FaultPlan.message_loss(0.02, seed=5),
                               app="lcs", n_nodes=4, scale=0.01)
        b = run_app_under_plan(FaultPlan.message_loss(0.02, seed=6),
                               app="lcs", n_nodes=4, scale=0.01)
        assert a.fingerprint != b.fingerprint

    def test_empty_plan_matches_no_reliable_baseline(self):
        """Empty plan + transport off == pristine run, event for event."""
        pristine = run_app_under_plan(FaultPlan(), app="lcs", n_nodes=4,
                                      scale=0.01, reliable=False)
        empty = run_app_under_plan(FaultPlan(seed=9), app="lcs", n_nodes=4,
                                   scale=0.01, reliable=False)
        assert pristine.fingerprint == empty.fingerprint
        assert pristine.cycles == empty.cycles
        assert pristine.chaos == {} and empty.chaos == {}
