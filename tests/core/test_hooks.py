"""RunHooks: one integer to compare, one call when it is reached."""

import sys

from repro.asm.assembler import assemble
from repro.chaos import DeadlockWatchdog
from repro.core.hooks import RunHooks
from repro.core.registers import Priority
from repro.core.word import Word
from repro.machine.config import MachineConfig
from repro.machine.jmachine import JMachine
from repro.snapshot import CheckpointPolicy
from repro.telemetry import LiveSampler, SamplePolicy

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


class Every:
    """A minimal observer: due every ``period`` cycles after arming."""

    def __init__(self, period):
        self.period = period
        self.next_due = None
        self.armed_at = []
        self.polls = []

    def arm(self, now):
        self.armed_at.append(now)
        self.next_due = now + self.period

    def poll(self, target, now, run_limit):
        if now >= self.next_due:        # the protocol: own due-check
            self.polls.append((target, now, run_limit))
            self.next_due = now + self.period


def test_nothing_attached_is_never_due():
    hooks = RunHooks("target", 0, 1000, None, None)
    assert hooks.observers == []
    assert hooks.next_due == sys.maxsize


def test_next_due_is_the_minimum_and_rearms_after_fire():
    fast, slow = Every(10), Every(25)
    hooks = RunHooks("target", 100, 5000, fast, None, slow)
    assert (fast.armed_at, slow.armed_at) == ([100], [100])
    assert hooks.next_due == 110
    hooks.fire(110)
    assert fast.polls == [("target", 110, 5000)] and slow.polls == []
    assert hooks.next_due == 120
    hooks.fire(127)                     # the loop landed past both
    assert [now for _, now, _ in fast.polls] == [110, 127]
    assert [now for _, now, _ in slow.polls] == [127]
    assert hooks.next_due == 137


def test_observers_poll_in_the_order_given():
    order = []

    class Tagged(Every):
        def poll(self, target, now, run_limit):
            order.append(self.period)
            super().poll(target, now, run_limit)

    RunHooks(None, 0, None, Tagged(3), Tagged(1), Tagged(2)).fire(5)
    assert order == [3, 1, 2]


def test_wall_clock_sampler_is_polled_every_iteration():
    """A wall interval can elapse at any cycle, so such a policy asks
    for every iteration; a cycle-only policy names its cycle."""
    cycles = SamplePolicy(every_cycles=500)
    wall = SamplePolicy(every_wall_s=3600.0)
    both = SamplePolicy(every_cycles=500, every_wall_s=3600.0)
    for policy in (cycles, wall, both):
        policy.arm(40)
    assert (cycles.next_due, wall.next_due, both.next_due) == (540, 0, 0)
    polled = []
    sampler = LiveSampler(wall)
    sampler.poll = lambda target, now, run_limit: polled.append(now)
    hooks = RunHooks(None, 40, None, sampler)
    for now in range(40, 50):
        if now >= hooks.next_due:
            hooks.fire(now)
    assert polled == list(range(40, 50))


def test_checkpoint_and_sampler_arm_once_watchdog_every_run():
    policy = CheckpointPolicy("unused-{cycle}.ckpt", every=100)
    sampler = LiveSampler(SamplePolicy(every_cycles=70))
    watchdog = DeadlockWatchdog(window=800)
    RunHooks(None, 30, None, policy, sampler, watchdog)
    assert (policy.next_due, sampler.next_due, watchdog.next_due) \
        == (130, 100, 30)
    RunHooks(None, 60, None, policy, sampler, watchdog)   # a second run
    assert (policy.next_due, sampler.next_due, watchdog.next_due) \
        == (130, 100, 60)


def test_observers_arm_at_the_run_start_cycle(tmp_path):
    """A run starts its observers' clocks at its first cycle — not at
    cycle 0, and not at the first poll."""
    machine = JMachine(MachineConfig(dims=(4, 2, 1)))
    program = assemble(ECHO)
    machine.load(program)
    base = program.end + 4
    for node in machine.nodes:
        node.proc.registers[Priority.P0].write("A0", Word.segment(base, 4))
    machine.inject(7, program.entry("echo"),
                   [Word.from_int(0), Word.from_int(42)], source=0)
    machine.now = 17                     # a run that does not start at 0
    machine.checkpoint = CheckpointPolicy(
        str(tmp_path / "{cycle}.ckpt"), every=10_000)
    LiveSampler(SamplePolicy(every_cycles=20_000)).attach(machine)
    machine.watchdog = DeadlockWatchdog(window=30_000)
    machine.run(max_cycles=5_000)
    assert machine.checkpoint.saves == 0 and not machine.sampler.points
    assert (machine.checkpoint.next_due, machine.sampler.next_due) \
        == (10_017, 20_017)
