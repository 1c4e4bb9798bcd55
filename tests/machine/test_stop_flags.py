"""``run(until=StopFlags(...))``: fast path == reference interpreter.

A stop condition lets compiled blocks run ahead of the global clock (to
the earliest cycle a delivery, an earlier send or the stop itself could
happen — docs/PERFORMANCE.md "Stop conditions"), so the contract is that
the run still stops at the reference's cycle in the reference's state.
Hypothesis drives small meshes running generated handlers — token rings
with per-node compute gaps, fan-in to one collector, both SEND widths —
under 1-8 flags of every kind (met at the start, set / cleared / set
again, never met) and compares the fast path with ``fast_path=False`` on
the return value, the whole ``capture_machine`` tree, ``fabric.stats``
and every ``next_tick``; bare and with an event bus (the captured
stream equal); and again after a second run to quiescence.  Fixed cases
do the same for the five real callers.  ``pytest -m slow`` runs the property
over many more examples.
"""

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.apps.lcs import LcsParams
from repro.apps.lcs_cycle import run_cycle_lcs
from repro.apps.radix_cycle import run_cycle_radix
from repro.asm.assembler import assemble
from repro.core.errors import ConfigurationError
from repro.core.processor import USER_BASE
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
    tokens = draw(st.lists(
        st.tuples(node, st.sampled_from(["relay1", "relay2"]),
                  st.integers(0, 12)), min_size=1, max_size=4))
    flag = st.one_of(
        st.tuples(node, st.just(PARITY), st.integers(0, 1)),
        st.tuples(node, st.just(ARRIVALS), st.integers(0, 5)),
        st.tuples(node, st.just(COLLECTED), st.integers(0, len(tokens))),
        # 0 is there from the start; 9 never is.
        st.tuples(node, st.just(UNTOUCHED), st.sampled_from([0, 9])))
    return {
        "dims": dims,
        "gaps": draw(st.lists(st.integers(0, 10), min_size=n, max_size=n)),
        "collector": draw(node),
        "tokens": tokens,
        "flags": [(where, BASE + slot, value) for where, slot, value in
                  draw(st.lists(flag, min_size=1, max_size=8,
                                unique_by=lambda f: f[:2]))],
        "max_cycles": draw(st.sampled_from([40, 150, 600, 20_000])),
    }


def build(case, fast, telemetry=None):
    machine = JMachine(MachineConfig(dims=case["dims"], fast_path=fast),
                       telemetry=telemetry)
    machine.load(PROGRAM)
    n = machine.mesh.n_nodes
    for i, node in enumerate(machine.nodes):
        memory = node.proc.memory
        memory.poke(BASE + 0, Word.from_int((i + 1) % n))
        memory.poke(BASE + 1, Word.from_int(case["gaps"][i]))
        memory.poke(BASE + 2, Word.from_int(case["collector"]))
        for slot in (PARITY, ARRIVALS, COLLECTED, UNTOUCHED):
            memory.poke(BASE + slot, Word.from_int(0))
        node.proc.registers[Priority.P0].write("A0", Word.segment(BASE, 8))
    for where, handler, hops in case["tokens"]:
        machine.inject(where, PROGRAM.entry(handler), [Word.from_int(hops)])
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


@settings(deadline=None, max_examples=20,
          suppress_health_check=[HealthCheck.too_slow])
@given(cases())
@example(PAST_THE_STOP)
@example(DRAINS_AT_THE_LIMIT)
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
