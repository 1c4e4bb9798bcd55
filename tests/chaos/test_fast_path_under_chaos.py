"""The fast path equals the interpreter under a fault plan.

A fault plan's schedule (queue pressure and release, AMT poisoning, the
first cycles of stalls and kills) ends every compiled block and every
quiet fabric window at its next action (``JMachine._run_loop``), so a
run under chaos takes the plain run's path.  Drawn plans over three
programs:

* ``NAMES`` — background XLATE loops and no messages: the fabric idles,
  so only the schedule can stop a block;
* ``ECHO`` — all-to-all request/reply traffic;
* ``STORM`` — a fan-out that keeps the fabric busy and its quiet
  windows long.

A run under a stop condition matches the interpreter's state and event
stream; a free run its state (free runs do not promise same-cycle event
order, tests/test_free_run_deviation.py).  The batched fast path also
matches the same run taken one cycle per pass, which a deadlock
watchdog that never trips forces.  ``pytest -m slow`` runs the wide
sweep.
"""

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.chaos import ChaosEngine, DeadlockWatchdog, FaultPlan, FaultSpec
from repro.core.errors import QueueOverflowFault
from repro.core.word import Word
from repro.telemetry import Telemetry

from tests.test_fastpath_equivalence import ECHO, STORM, _loaded
from tests.util import assert_same_state, machine_state


def names(entries, lookups):
    """Each node's background thread names ``entries`` keys, then looks
    them up ``lookups`` times, and halts."""
    return f"""
start:
    MOVE  #{entries}, R0
    MOVE  #0, R1
enter:
    ENTER R1, R1
    ADD   R1, #1, R1
    SUB   R0, #1, R0
    BT    R0, enter
    MOVE  #{lookups}, R0
    MOVE  #0, R1
lookup:
    XLATE R1, R2
    ADD   R1, #1, R1
    MOD   R1, #{entries}, R1
    SUB   R0, #1, R0
    BT    R0, lookup
    HALT
"""


def _start_names(machine, program, size):
    """The loops on ``size`` nodes: on one alone, nothing but the fault
    schedule bounds its blocks, even under a stop condition."""
    for node in range(size):
        machine.start_background(node, program.entry("start"))


def _start_echo(machine, program, size):
    """``size`` requests into every node, each answered to another."""
    for i in range(8):
        for k in range(1, size + 1):
            machine.inject(i, program.entry("echo"),
                           [Word.from_int((i + k) % 8),
                            Word.from_int(100 * k + i)],
                           source=(i + 1) % 8)


def _start_storm(machine, program, ttl):
    for i in range(8):
        machine.inject(i, program.entry("storm"),
                       [Word.from_int(ttl), Word.from_int((i * 7 + 1) % 8),
                        Word.from_int((i * 3 + 5) % 8)], source=i)


#: program -> (source for a size, start, sizes, cycles a fault is drawn
#: in: about the plain run's length).
PROGRAMS = {
    "NAMES": (lambda size: names(8, 50), _start_names, (1, 8), 1_000),
    "ECHO": (lambda size: ECHO, _start_echo, (1, 7), 120),
    "STORM": (lambda size: STORM, _start_storm, (1, 4), 500),
}

#: Every cycle-level fault kind: five on the schedule, two per message.
KINDS = ("queue", "poison", "stall", "kill", "link", "drop", "corrupt")

LIMIT = 20_000


@st.composite
def fault_specs(draw, span):
    kind = draw(st.sampled_from(KINDS))
    start = draw(st.integers(0, span))
    node = draw(st.integers(0, 7))
    window = draw(st.integers(1, span // 2))
    if kind in ("drop", "corrupt"):
        return FaultSpec(kind=kind,
                         rate=draw(st.sampled_from((0.2, 0.6, 1.0))),
                         node=draw(st.none() | st.just(node)), start=start,
                         stop=draw(st.none() | st.just(start + window)))
    if kind == "queue":
        return FaultSpec(kind=kind, node=node, start=start,
                         stop=start + window,
                         words=draw(st.sampled_from((64, 256, 512))))
    if kind == "poison":
        return FaultSpec(kind=kind, node=node, start=start,
                         rate=draw(st.sampled_from((0.0, 0.5))))
    if kind == "stall":
        return FaultSpec(kind=kind, node=node, start=start, duration=window)
    if kind == "link":
        return FaultSpec(kind=kind, node=node, start=start,
                         stop=start + window)
    return FaultSpec(kind=kind, node=node, start=start)


@st.composite
def cases(draw):
    """(program, size, stopped?, plan seed, fault specs)."""
    program = draw(st.sampled_from(sorted(PROGRAMS)))
    _, _, (low, high), span = PROGRAMS[program]
    return (program, draw(st.integers(low, high)), draw(st.booleans()),
            draw(st.integers(0, 99)),
            tuple(draw(st.lists(fault_specs(span), min_size=1,
                                max_size=4))))


def run(case, fast, stepped=False):
    """(state, event fingerprint or None) of ``case``'s run."""
    program_name, size, stopped, seed, specs = case
    source, start, _, _ = PROGRAMS[program_name]
    telemetry = Telemetry() if stopped else None
    machine, program, _, never = _loaded(
        source(size), telemetry, dims=(2, 2, 2), fast_path=fast)
    ChaosEngine(FaultPlan(seed=seed, specs=specs)).attach_machine(machine)
    if stepped:
        # Any per-pass observer keeps the fabric on one cycle per pass.
        machine.watchdog = DeadlockWatchdog(window=10 * LIMIT)
    start(machine, program, size)
    try:
        end = machine.run(max_cycles=LIMIT, until=never if stopped else None)
    except QueueOverflowFault as fault:
        # A press that fills a queue a staged delivery already holds
        # space in overflows that delivery's commit; both paths must
        # raise it at the same pass.
        end = str(fault)
    machine.watchdog = None
    return (machine_state(machine, end),
            telemetry.events.fingerprint() if stopped else None)


def check(case):
    fast, reference = run(case, True), run(case, False)
    assert_same_state(fast[0], reference[0])
    assert fast[1] == reference[1]
    stepped = run(case, True, stepped=True)
    assert_same_state(fast[0], stepped[0])
    assert fast[1] == stepped[1]


#: A reduced ROADMAP item 1 reproduction: with the fabric idle, blocks
#: ran past each poisoning, so the fast path made no xlate misses.
IDLE_POISON = ("NAMES", 2, False, 1, (
    FaultSpec(kind="poison", node=0, start=300),
    FaultSpec(kind="poison", node=1, start=520)))

#: A block ran through a stall's first cycle, so the stall never hit.
IDLE_STALL = ("NAMES", 1, True, 0, (
    FaultSpec(kind="stall", node=0, start=200, duration=90),))

#: A block ran on past its node's kill.
IDLE_KILL = ("NAMES", 1, False, 0, (FaultSpec(kind="kill", node=0,
                                              start=250),))

#: Under a stop, pressure on a node with nothing to run: the fault
#: landed, and was logged, where the running node's block ended.
LATE_PRESS = ("NAMES", 1, True, 63, (
    FaultSpec(kind="queue", node=2, start=166, stop=200, words=64),))

#: A full queue refuses its requests until the release at 60.  A quiet
#: fabric window that ran past the release polled the refusals to the
#: run limit on every path but the stepped one.
RELEASED_ECHO = ("ECHO", 1, True, 0, (
    FaultSpec(kind="queue", node=3, start=0, stop=60, words=512),))

#: Every message dropped: the fabric drains inside a quiet window, and
#: the run must end at the drop's cycle, as when stepped, not one later.
ALL_DROPPED = ("ECHO", 1, False, 0, (FaultSpec(kind="drop", rate=1.0),))

#: Under a stop with an event bus, a block ran past the cycle a worm
#: was dropped at, so its ``thread-end`` was emitted before the drop.
DROP_BEHIND_A_BLOCK = ("STORM", 2, True, 54, (
    FaultSpec(kind="stall", node=0, start=41, duration=76),
    FaultSpec(kind="drop", rate=0.2)))

#: The only thread's next instruction issues at 511 and the poison is
#: due at 500: the quiet jump landed past it, so it acted (and was
#: logged) at 511.
PARKED_POISON = ("NAMES", 1, False, 0, (
    FaultSpec(kind="poison", node=0, start=500, rate=0.5),))


@settings(deadline=None, max_examples=20,
          suppress_health_check=[HealthCheck.too_slow])
@given(cases())
@example(IDLE_POISON)
@example(IDLE_STALL)
@example(IDLE_KILL)
@example(LATE_PRESS)
@example(RELEASED_ECHO)
@example(ALL_DROPPED)
@example(DROP_BEHIND_A_BLOCK)
@example(PARKED_POISON)
def test_fast_path_equals_the_interpreter_under_chaos(case):
    check(case)


def _names_with_poison(fast, start):
    """NAMES on node 0 of 2x2x2 with one poison there at ``start``,
    run free: (end, engine)."""
    machine, program, _, _ = _loaded(names(8, 50), None, dims=(2, 2, 2),
                                     fast_path=fast)
    engine = ChaosEngine(FaultPlan(seed=0, specs=(
        FaultSpec(kind="poison", node=0, start=start, rate=0.5),)))
    engine.attach_machine(machine)
    _start_names(machine, program, 1)
    return machine.run(max_cycles=LIMIT), engine


@pytest.mark.parametrize("fast", [True, False])
def test_a_fault_due_while_every_node_is_parked_acts_at_its_cycle(fast):
    end, engine = _names_with_poison(fast, 500)
    assert [entry[:2] for entry in engine.log] == [(500, "amt-poison")]
    assert end == 1_275
    assert "unapplied" not in engine.summary()


@pytest.mark.parametrize("fast", [True, False])
def test_a_quiescent_run_ends_with_its_later_faults_unapplied(fast):
    """The run is not stretched to the schedule's last action; what it
    left is counted."""
    end, engine = _names_with_poison(fast, 5_000)
    assert end == 1_123
    assert engine.log == []
    assert engine.summary() == {"unapplied": 1}


@pytest.mark.slow
@settings(deadline=None, max_examples=400,
          suppress_health_check=[HealthCheck.too_slow])
@given(cases())
def test_fast_path_equals_the_interpreter_under_chaos_long(case):
    check(case)
