"""``run(until=StopFlags(...))``: fast path == reference interpreter.

A stop condition lets each compiled block run ahead of the global clock
to the earliest cycle anything could reach its node — a delivery to it,
a worm bound for it, the release of its own send buffer, a send by any
other node — or the stop itself could happen (docs/PERFORMANCE.md "Stop
conditions"), so the contract is that the run still stops at the
reference's cycle in the reference's state.  Hypothesis drives small
meshes running generated handlers — token rings with per-node compute
gaps, fan-in to one collector, bursts that fill a send buffer and the
collector's queue, both SEND widths, both priorities — on default or
24-word queues, under blocking or return-to-sender flow control, with or
without an attached fault plan that injects nothing, under 1-8 flags of
every kind (met at the start, set / cleared / set again, never met; on a
parked collector while its peers compute) and compares the fast path
with ``fast_path=False`` on the return value, the whole
``capture_machine`` tree, ``fabric.stats`` and every ``next_tick``; bare
and with an event bus (the captured stream equal); and again after a
second run to quiescence.  Fixed cases do the same for the five real
callers.  ``pytest -m slow`` runs the property over many more examples.
"""

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.apps.lcs import LcsParams
from repro.apps.lcs_cycle import run_cycle_lcs
from repro.apps.radix_cycle import run_cycle_radix
from repro.asm.assembler import assemble
from repro.chaos import ChaosEngine, FaultPlan
from repro.core.errors import ConfigurationError
from repro.core.memory import USER_BASE
from repro.core.registers import Priority
from repro.core.word import Word
from repro.machine.config import MachineConfig
from repro.machine.jmachine import JMachine
from repro.machine.stop import NEVER, StopFlags
from repro.runtime.barrier import run_barrier_experiment
from repro.runtime.reduce import run_reduction
from repro.runtime.rpc import run_ping, run_remote_read
from repro.telemetry import Telemetry

from tests.util import assert_same_state as assert_same, machine_state as state

# Globals segment (A0): +0 ring successor, +1 compute-gap iterations,
# +2 collector node, +4 arrival parity (set, cleared, set again...),
# +5 arrival count, +6 collected tokens, +7 a word nobody writes.
SOURCE = """
relay1:                         ; [IP:relay1, hops left]
    MOVE  [A0+1], R0
gap1:
    BF    R0, work1
    SUB   R0, #1, R0
    BR    gap1
work1:
    XOR   [A0+4], #1, [A0+4]
    ADD   [A0+5], #1, [A0+5]
    MOVE  [A3+1], R1
    BF    R1, home
    SUB   R1, #1, R1
    SEND  [A0+0]
    SEND  #IP:relay1
    SENDE R1
    SUSPEND
relay2:                         ; the same hop, two words per SEND
    MOVE  [A0+1], R0
gap2:
    BF    R0, work2
    SUB   R0, #1, R0
    BR    gap2
work2:
    XOR   [A0+4], #1, [A0+4]
    ADD   [A0+5], #1, [A0+5]
    MOVE  [A3+1], R1
    BF    R1, home
    SUB   R1, #1, R1
    SEND  [A0+0]
    SEND2E #IP:relay2, R1
    SUSPEND
home:                           ; a spent token reports to the collector
    SEND  [A0+2]
    SEND2E #IP:collect, #1
    SUSPEND
collect:
    ADD   [A0+6], [A3+1], [A0+6]
    SUSPEND
burst:                          ; [IP:burst, n]: 2n 6-word reports, back
    MOVE  [A3+1], R1            ; to back, faster than the interface
more:                           ; drains: the send buffer fills
    BF    R1, spent
    SUB   R1, #1, R1
    SEND  [A0+2]
    SEND2 #IP:collect, #1
    SEND2 R1, R1
    SEND2E R1, R1
    SEND  [A0+2]
    SEND2 #IP:collect, #1
    SEND2 R1, R1
    SEND2E R1, R1
    BR    more
spent:
    SUSPEND
"""
PROGRAM = assemble(SOURCE)
BASE = PROGRAM.end + 4
PARITY, ARRIVALS, COLLECTED, UNTOUCHED = 4, 5, 6, 7
#: The second run goes to quiescence under a condition too: a plain
#: ``run()`` is a free run, whose fast path is not cycle-exact (pinned in
#: tests/test_free_run_deviation.py, ROADMAP 4c).
NEVER_MET = (0, BASE + UNTOUCHED, 9)


@st.composite
def cases(draw):
    dims = draw(st.sampled_from([(2, 1, 1), (2, 2, 1), (3, 2, 1), (2, 2, 2)]))
    n = dims[0] * dims[1] * dims[2]
    node = st.integers(0, n - 1)
    collector = draw(node)
    tokens = draw(st.lists(
        st.tuples(node, st.sampled_from(["relay1", "relay2", "burst",
                                         "home", "collect"]),
                  st.integers(0, 12), st.sampled_from([0, 1])),
        min_size=1, max_size=4))
    # A burst on the collector itself would wedge it on tight queues:
    # its own reports queue behind it at its priority.
    tokens = [((where + 1) % n if handler == "burst" and where == collector
               else where, handler, hops, priority)
              for where, handler, hops, priority in tokens]
    flag = st.one_of(
        st.tuples(node, st.just(PARITY), st.integers(0, 1)),
        st.tuples(node, st.just(ARRIVALS), st.integers(0, 5)),
        st.tuples(node, st.just(COLLECTED), st.integers(0, 12)),
        # 0 is there from the start; 9 never is.
        st.tuples(node, st.just(UNTOUCHED), st.sampled_from([0, 9])))
    return {
        "dims": dims,
        "gaps": draw(st.lists(st.sampled_from([0, 1, 2, 4, 7, 10, 40]),
                              min_size=n, max_size=n)),
        "collector": collector,
        "tokens": tokens,
        "flags": [(where, BASE + slot, value) for where, slot, value in
                  draw(st.lists(flag, min_size=1, max_size=8,
                                unique_by=lambda f: f[:2]))],
        "max_cycles": draw(st.sampled_from([40, 150, 600, 20_000])),
        "queue_words": draw(st.sampled_from([None, 24])),
        "flow_control": draw(st.sampled_from(["block", "return_to_sender"])),
        "inert_chaos": draw(st.booleans()),
        # 3 words hold one 2-word message, so a send waits for the
        # previous one's tail to leave the interface (and a burst's
        # longer reports could never be built).
        "send_buffer_words": (32 if any(token[1] == "burst"
                                        for token in tokens)
                              else draw(st.sampled_from([32, 3]))),
        "from_collector": draw(st.booleans()),
    }


def build(case, fast, telemetry=None):
    machine = JMachine(MachineConfig(
        dims=case["dims"], fast_path=fast,
        queue_words=case.get("queue_words"),
        flow_control=case.get("flow_control", "block"),
        send_buffer_words=case.get("send_buffer_words", 32)),
        telemetry=telemetry)
    if case.get("inert_chaos"):
        ChaosEngine(FaultPlan(seed=7)).attach_machine(machine)
    machine.load(PROGRAM)
    n = machine.mesh.n_nodes
    for i, node in enumerate(machine.nodes):
        memory = node.proc.memory
        memory.poke(BASE + 0, Word.from_int((i + 1) % n))
        memory.poke(BASE + 1, Word.from_int(case["gaps"][i]))
        memory.poke(BASE + 2, Word.from_int(case["collector"]))
        for slot in (PARITY, ARRIVALS, COLLECTED, UNTOUCHED):
            memory.poke(BASE + slot, Word.from_int(0))
        for priority in (Priority.P0, Priority.P1):
            node.proc.registers[priority].write("A0", Word.segment(BASE, 8))
    for where, handler, hops, *priority in case["tokens"]:
        # A host injection's tail leaving frees send-buffer words at its
        # source interface, which never held them: injected from the
        # collector, the nodes that send keep their buffers exact.
        machine.inject(where, PROGRAM.entry(handler), [Word.from_int(hops)],
                       priority=Priority(priority[0] if priority else 0),
                       source=(case["collector"] if case.get("from_collector")
                               else where))
    return machine


def check(case):
    for with_events in (False, True):
        runs = []
        for fast in (True, False):
            telemetry = Telemetry() if with_events else None
            machine = build(case, fast, telemetry)
            flags = StopFlags(case["flags"])
            end = machine.run(max_cycles=case["max_cycles"], until=flags)
            at_stop = state(machine, (end, flags.holds(machine)))
            # Disarmed: no sentinel left behind, and the machine goes on.
            assert all(node.proc._stop is None
                       and [] not in node.proc._watch.values()
                       for node in machine.nodes)
            drained = machine.run(until=StopFlags([NEVER_MET]))
            runs.append((at_stop, state(machine, drained)))
        (fast_stop, fast_drained), (slow_stop, slow_drained) = runs
        assert_same(fast_stop, slow_stop)
        assert_same(fast_drained, slow_drained)


#: Without the earliest-stop bound node 0, ticked first in the pass at
#: which node 1 stores the flag (cycle 22), has already run on to 30.
#: Also fails with the per-node inbound term dropped.
PAST_THE_STOP = {
    "dims": (2, 2, 2), "gaps": [0] * 8, "collector": 0,
    "tokens": [(0, "relay1", 0), (0, "relay1", 0), (1, "relay1", 0)],
    "flags": [(1, BASE + PARITY, 1)], "max_cycles": 40}
#: The fabric drains in the last cycle before the limit: the reference's
#: quiet jump overshoots it (152), a batched window must not stop at 150.
DRAINS_AT_THE_LIMIT = {
    "dims": (2, 2, 1), "gaps": [0, 8, 0, 4], "collector": 2,
    "tokens": [(1, "relay1", 2), (1, "relay1", 0)],
    "flags": [(0, BASE + PARITY, 1)], "max_cycles": 150}

# Each case below fails when one term of the per-node deadline
# (``JMachine._tick_procs``, ``StopFlags.cap``) is left out.

#: The flag's owner (the collector) is parked while node 0 computes 40
#: iterations; without "a parked owner waits for the earliest commit to
#: it plus a dispatch" node 0 runs on past the collector's store.
PARKED_OWNER = {
    "dims": (2, 1, 1), "gaps": [40, 0], "collector": 1,
    "tokens": [(0, "relay1", 0), (1, "relay1", 0)],
    "flags": [(1, BASE + COLLECTED, 1)], "max_cycles": 20_000}
#: The collector is pending at the end of its relay's block when a P1
#: report commits, pulls its tick back and preempts: without "a pending
#: owner executes no later than its own earliest commit" node 2 runs
#: past the collector's store.
PULLED_BACK = {
    "dims": (2, 2, 1), "gaps": [0, 10, 0, 0], "collector": 1,
    "tokens": [(0, "burst", 12, 1), (2, "burst", 12, 0), (1, "relay1", 0, 0)],
    "flags": [(1, BASE + COLLECTED, 24)], "max_cycles": 20_000}
#: ``first`` without "or the earliest delivery commit anywhere": a node
#: woken by a commit sends into a peer's run-ahead.
WOKEN_SENDER = {
    "dims": (2, 1, 1), "gaps": [40, 7], "collector": 1,
    "tokens": [(0, "collect", 7, 1), (0, "relay1", 6, 1), (0, "burst", 8, 1)],
    "flags": [(1, BASE + ARRIVALS, 5)], "max_cycles": 150,
    "flow_control": "return_to_sender", "inert_chaos": True,
    "from_collector": True}
#: A report handler's first SEND, four cycles after its dispatch, needs
#: the sender's previous tail to have left a 3-word send buffer: without
#: "now + r while the node's own worm has r phits to inject" it sees the
#: buffer full one cycle too long.
OWN_RELEASE = {
    "dims": (2, 2, 1), "gaps": [0] * 4, "collector": 2,
    "tokens": [(2, "collect", 0, 0), (1, "relay2", 0, 0), (0, "home", 0, 1),
               (0, "home", 0, 0)],
    "flags": [(2, BASE + COLLECTED, 99)], "max_cycles": 20_000,
    "send_buffer_words": 3, "from_collector": True}
#: Return-to-sender on 24-word queues: a relay refused by the collector
#: bounces and retries while the collector runs a 40-iteration relay;
#: with the refused message counted as gone until its retry arrives, the
#: collector runs past the retry's commit.
BOUNCED = {
    "dims": (2, 2, 1), "gaps": [40, 0, 0, 0], "collector": 0,
    "tokens": [(0, "relay1", 1, 0), (0, "relay1", 0, 0), (1, "burst", 1, 0),
               (1, "relay1", 1, 0)],
    "flags": [(0, BASE + COLLECTED, 99)], "max_cycles": 20_000,
    "queue_words": 24, "flow_control": "return_to_sender",
    "from_collector": True}


@settings(deadline=None, max_examples=20,
          suppress_health_check=[HealthCheck.too_slow])
@given(cases())
@example(PAST_THE_STOP)
@example(DRAINS_AT_THE_LIMIT)
@example(PARKED_OWNER)
@example(PULLED_BACK)
@example(WOKEN_SENDER)
@example(OWN_RELEASE)
@example(BOUNCED)
def test_fast_path_stops_where_the_reference_does(case):
    check(case)


@pytest.mark.slow
@settings(deadline=None, max_examples=3000,
          suppress_health_check=[HealthCheck.too_slow])
@given(cases())
def test_fast_path_stops_where_the_reference_does_long(case):
    check(case)


# ------------------------------------------------------------ the semantics


def _one_token(hops=4, gaps=(3, 0, 7, 1)):
    return {"dims": (2, 2, 1), "gaps": list(gaps), "collector": 0,
            "tokens": [(0, "relay1", hops)], "flags": [], "max_cycles": 5000}


@pytest.mark.parametrize("fast", [True, False], ids=["fast", "reference"])
class TestSemantics:
    def test_stops_at_the_start_cycle_of_the_last_store(self, fast):
        case = _one_token()
        free = build(case, fast)
        free.run()
        machine = build(case, fast)
        flags = StopFlags([(2, BASE + ARRIVALS, 1)])
        end = machine.run(max_cycles=5000, until=flags)
        assert flags.holds(machine) and flags.stop_at == end
        assert 0 < end < free.now
        # Node 3 has not seen the token yet; the run can go on.
        assert machine.node(3).proc.memory.peek(BASE + ARRIVALS).value == 0
        assert machine.run() == free.now

    def test_already_met_stops_after_one_pass(self, fast):
        machine = build(_one_token(), fast)
        assert machine.run(until=StopFlags([(1, BASE + UNTOUCHED, 0)])) == 0

    def test_never_met_runs_to_quiescence_or_the_limit(self, fast):
        free = build(_one_token(), fast)
        free.run()
        never = StopFlags([(1, BASE + UNTOUCHED, 9)])
        machine = build(_one_token(), fast)
        assert machine.run(until=never) == free.now
        assert never.stop_at == NEVER and not never.holds(machine)
        machine = build(_one_token(), fast)
        assert machine.run(max_cycles=30, until=never) == 30

    def test_cleared_flag_does_not_stop(self, fast):
        """Node 0's parity is 1 after the token's first visit and 0
        after its second; node 1's count reaches 2 in between, so the
        pair (parity 0 again, count 2) only holds on the second lap."""
        case = _one_token(hops=7)
        machine = build(case, fast)
        flags = StopFlags([(0, BASE + PARITY, 0), (1, BASE + ARRIVALS, 2)])
        end = machine.run(max_cycles=5000, until=flags)
        assert flags.holds(machine)
        assert machine.node(0).proc.memory.peek(BASE + ARRIVALS).value == 2
        assert end == flags.stop_at


# ----------------------------------------------------------- fail closed


class TestArming:
    def test_callable_is_refused(self):
        machine = JMachine.build(4)
        with pytest.raises(TypeError, match="StopFlags"):
            machine.run(until=lambda m: True)

    @pytest.mark.parametrize("flags, match", [
        ([], "at least one"),
        ([(4, USER_BASE, 1)], "outside the 4-node mesh"),
        ([(-1, USER_BASE, 1)], "outside the 4-node mesh"),
        ([(0, USER_BASE - 1, 1)], "message windows"),
        ([(0, 1 << 30, 1)], "outside"),
        ([(0, USER_BASE, 1), (0, USER_BASE, 2)], "two values"),
    ])
    def test_bad_flags_are_refused(self, flags, match):
        machine = JMachine.build(4)
        with pytest.raises(ConfigurationError, match=match):
            machine.run(until=StopFlags(flags))
        # Refused before anything was armed.
        assert all(node.proc._stop is None and not node.proc._watch
                   for node in machine.nodes)

    def test_disarmed_when_a_handler_raises(self):
        from repro.core.errors import IllegalInstructionFault

        machine = JMachine.build(2)
        machine.inject(0, 999)  # no code there
        with pytest.raises(IllegalInstructionFault):
            machine.run(until=StopFlags([(1, USER_BASE, 1)]))
        assert machine.node(1).proc._stop is None
        assert not machine.node(1).proc._watch


# ------------------------------------------------------- the real callers


@pytest.fixture
def ran(monkeypatch):
    """Machines whose ``run`` was called, forced onto one path first
    (two of the callers build their machine themselves)."""
    seen = []
    run = JMachine.run

    def recording(self, *args, **kwargs):
        for node in self.nodes:
            node.proc.fast_path = recording.fast
        seen.append(self)
        return run(self, *args, **kwargs)

    monkeypatch.setattr(JMachine, "run", recording)
    return seen, recording


def _m64():
    return JMachine(MachineConfig(dims=(4, 4, 4)))


@pytest.mark.parametrize("caller", [
    lambda: run_ping(_m64(), 3, 60, iterations=6).total_cycles,
    lambda: run_remote_read(_m64(), 6, False, 0, 63, 4).total_cycles,
    lambda: run_barrier_experiment(_m64(), barriers=2).total_cycles,
    lambda: run_reduction(_m64(), list(range(64))).cycles,
    lambda: run_cycle_lcs(8, LcsParams(a_len=16, b_len=24, seed=3)).cycles,
    lambda: run_cycle_radix(64, [(5 * i + 2) % 4 for i in range(64)],
                            n_digits=1).cycles,
], ids=["ping", "remote-read", "barrier", "reduction", "lcs", "radix"])
def test_real_callers_stop_where_the_reference_does(ran, caller):
    seen, recording = ran
    states = []
    for recording.fast in (True, False):
        del seen[:]
        returned = caller()
        machine, = seen
        states.append(state(machine, returned))
        states.append(state(machine, machine.run()))
    assert_same(states[0], states[2])
    assert_same(states[1], states[3])
