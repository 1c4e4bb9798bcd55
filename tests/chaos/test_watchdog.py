"""DeadlockWatchdog: trips on wedged machines, stays quiet on live ones."""

import pytest

from repro.asm.assembler import assemble
from repro.chaos import (ChaosEngine, DeadlockWatchdog, FaultPlan, FaultSpec,
                         machine_snapshots, snapshot_node)
from repro.core.errors import DeadlockError, SimulationError
from repro.core.registers import Priority
from repro.core.word import Word
from repro.machine.config import MachineConfig
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

SPIN = """
loop:
    NOP
    BR loop
"""


def _echo_machine(n=8, telemetry=None):
    return _with_echo(JMachine.build(n, telemetry=telemetry))


def _with_echo(machine):
    program = assemble(ECHO)
    machine.load(program)
    base = program.end + 4
    for node in machine.nodes:
        node.proc.registers[Priority.P0].write("A0", Word.segment(base, 4))
    return machine, program


def _wedge(machine, program):
    """Kill node 0's router forever, then send a worm through it."""
    ChaosEngine(FaultPlan(seed=1, specs=(
        FaultSpec(kind="link", node=0),
    ))).attach_machine(machine)
    machine.inject(7, program.entry("echo"),
                   [Word.from_int(0), Word.from_int(1)], source=0)


class TestTrip:
    def test_wedged_machine_trips(self):
        machine, program = _echo_machine()
        machine.watchdog = DeadlockWatchdog(window=2_000)
        _wedge(machine, program)
        with pytest.raises(DeadlockError) as info:
            machine.run(max_cycles=100_000)
        err = info.value
        assert "no progress for 2000 cycles" in str(err)
        assert err.worms_in_flight == 1
        assert err.snapshots  # per-node diagnostics attached
        assert err.now >= 2_000

    def test_trip_is_a_simulation_error(self):
        machine, program = _echo_machine()
        machine.watchdog = DeadlockWatchdog(window=2_000)
        _wedge(machine, program)
        with pytest.raises(SimulationError):
            machine.run(max_cycles=100_000)

    def test_trip_emits_watchdog_event(self):
        telemetry = Telemetry(events=True)
        machine, program = _echo_machine(telemetry=telemetry)
        machine.watchdog = DeadlockWatchdog(window=2_000)
        _wedge(machine, program)
        with pytest.raises(DeadlockError):
            machine.run(max_cycles=100_000)
        tripped = [e for e in telemetry.events.events
                   if e[1] == "watchdog" and e[4] == "deadlock"]
        assert len(tripped) == 1

    def test_trip_latency_is_bounded(self):
        """Detection happens within window + interval, not at max_cycles."""
        machine, program = _echo_machine()
        machine.watchdog = DeadlockWatchdog(window=2_000)
        _wedge(machine, program)
        with pytest.raises(DeadlockError) as info:
            machine.run(max_cycles=1_000_000)
        assert info.value.now < 10_000

    def test_trip_cycle_is_the_window_past_the_last_progress(self):
        """A link dies at cycle 10 under all-to-all echo traffic; the
        gauge last sees the machine's signature change at its cycle-51
        poll, and the watchdog trips at the first poll a full window
        later — once, with one event at that cycle."""
        machine, program = _with_echo(JMachine(
            MachineConfig(dims=(4, 2, 1)), telemetry=Telemetry()))
        ChaosEngine(FaultPlan(seed=1, specs=(
            FaultSpec(kind="link", node=0, start=10),
        ))).attach_machine(machine)
        for i in range(8):
            machine.inject(i, program.entry("echo"),
                           [Word.from_int((i + 3) % 8), Word.from_int(100 + i)],
                           source=(i + 1) % 8)
        machine.watchdog = DeadlockWatchdog(window=200, interval=5)
        with pytest.raises(DeadlockError) as info:
            machine.run(max_cycles=50_000)
        assert machine.watchdog.trips == 1
        assert info.value.now == 251
        assert [event[0] for event in machine.telemetry.events.events
                if event[1] == "watchdog"] == [251]


class TestStuckWorms:
    """The trip names every stuck worm and the worm that owns the
    channel it waits for.  On the e-cube mesh a chain of blocked worms
    ends at a dead router or at an endpoint that refuses delivery; both
    wedges are built here on a 4x1x1 line, where the worm from node 0
    queues behind the worm from node 1 on the way to node 3."""

    DEAD_ROUTER = FaultSpec(kind="link", node=2)
    REFUSING_ENDPOINT = FaultSpec(kind="queue", node=3, words=10_000)

    @staticmethod
    def _trip(spec, telemetry=None):
        machine, program = _with_echo(JMachine(
            MachineConfig(dims=(4, 1, 1)), telemetry=telemetry))
        ChaosEngine(FaultPlan(seed=1, specs=(spec,))).attach_machine(machine)
        for source in (0, 1):
            machine.inject(3, program.entry("echo"),
                           [Word.from_int(source), Word.from_int(1)],
                           source=source)
        machine.watchdog = DeadlockWatchdog(window=2_000)
        with pytest.raises(DeadlockError) as info:
            machine.run(max_cycles=100_000)
        return info.value

    @staticmethod
    def _worm_lines(err):
        """{route: (head position, blocker)} from the error text."""
        worms = {}
        for line in str(err).splitlines():
            if "blocked_by=" not in line:
                continue
            message, rest = line.strip().split(" head=")
            head, blocker = rest.split(" blocked_by=")
            worms[message.split(", ")[2]] = (head, blocker)
        return worms

    def test_names_the_stuck_messages(self):
        worms = self._worm_lines(self._trip(self.DEAD_ROUTER))
        assert set(worms) == {"0->3", "1->3"}

    def test_names_the_blocking_worm(self):
        worms = self._worm_lines(self._trip(self.DEAD_ROUTER))
        # 1->3 holds 1->2 and waits for the dead router's channel; 0->3
        # waits for 1->2.
        assert worms["1->3"] == ("1/3", "None")
        head, blocker = worms["0->3"]
        assert head == "1/4"
        assert blocker.startswith("Message(") and ", 1->3," in blocker

    def test_names_the_worm_at_a_refusing_endpoint(self):
        worms = self._worm_lines(self._trip(self.REFUSING_ENDPOINT))
        # 1->3 holds the ejection port its destination will not open.
        assert worms["1->3"] == ("3/3", "None")
        assert ", 1->3," in worms["0->3"][1]

    def test_error_is_typed_and_carries_diagnostics(self):
        err = self._trip(self.DEAD_ROUTER)
        assert isinstance(err, SimulationError)
        assert err.worms_in_flight == 2
        assert err.snapshots
        assert err.now >= 2_000
        # The first line is the summary a bisect report quotes.
        assert str(err).splitlines()[0].endswith("nodes implicated:")

    def test_emits_watchdog_event(self):
        telemetry = Telemetry(events=True)
        self._trip(self.DEAD_ROUTER, telemetry=telemetry)
        tripped = [e for e in telemetry.events.events if e[1] == "watchdog"]
        assert len(tripped) == 1
        assert tripped[0][4] == "deadlock"


class TestNoFalsePositive:
    def test_spinning_machine_is_progress(self):
        """An infinite loop retires instructions — not a deadlock."""
        machine = JMachine.build(2)
        program = assemble(SPIN)
        machine.load(program, nodes=[0])
        machine.start_background(0, program.entry("loop"))
        machine.watchdog = DeadlockWatchdog(window=500)
        end = machine.run(max_cycles=20_000)
        assert end >= 20_000
        assert machine.watchdog.trips == 0

    def test_healthy_echo_completes_under_watchdog(self):
        machine, program = _echo_machine()
        machine.watchdog = DeadlockWatchdog(window=1_000)
        machine.inject(7, program.entry("echo"),
                       [Word.from_int(0), Word.from_int(42)], source=0)
        machine.run(max_cycles=100_000)
        assert machine.watchdog.trips == 0

    def test_quiescent_machine_never_trips(self):
        machine = JMachine.build(2)
        machine.watchdog = DeadlockWatchdog(window=10)
        assert machine.run(max_cycles=10_000) == 0

    def test_reset_forgets_history(self):
        machine, program = _echo_machine()
        watchdog = DeadlockWatchdog(window=1_000)
        machine.watchdog = watchdog
        machine.inject(7, program.entry("echo"),
                       [Word.from_int(0), Word.from_int(1)], source=0)
        machine.run(max_cycles=50_000)
        # A second run on the (now idle) machine must not inherit the
        # first run's signature age.
        machine.run(max_cycles=1_000)
        assert watchdog.trips == 0


class TestSnapshots:
    def test_snapshot_fields(self):
        machine, program = _echo_machine(n=2)
        snap = snapshot_node(machine.node(0))
        assert snap.node_id == 0
        assert snap.instructions == 0
        assert not snap.has_work
        assert "node    0" in str(snap)
        assert "[parked]" in str(snap)

    def test_only_busy_filter_falls_back_to_everything(self):
        machine, program = _echo_machine(n=4)
        # Nothing is busy: the filtered view includes all nodes so the
        # diagnostic is never empty.
        assert len(machine_snapshots(machine)) == 4

    def test_error_formats_snapshot_lines(self):
        machine, program = _echo_machine()
        machine.watchdog = DeadlockWatchdog(window=2_000)
        _wedge(machine, program)
        with pytest.raises(DeadlockError) as info:
            machine.run(max_cycles=100_000)
        text = str(info.value)
        assert "node " in text
        assert "ip=" in text


class TestRunUntilQuiescent:
    def test_raises_typed_error_with_snapshots(self):
        """A worm stuck behind a dead router counts as outstanding work
        even with every processor parked."""
        machine, program = _echo_machine()
        ChaosEngine(FaultPlan(seed=1, specs=(
            FaultSpec(kind="link", node=0),
        ))).attach_machine(machine)
        machine.inject(7, program.entry("echo"),
                       [Word.from_int(0), Word.from_int(1)], source=0)
        with pytest.raises(DeadlockError) as info:
            machine.run_until_quiescent(max_cycles=5_000)
        err = info.value
        assert err.worms_in_flight == 1
        assert "still busy" in str(err)

    def test_validation(self):
        with pytest.raises(ValueError):
            DeadlockWatchdog(window=0)
