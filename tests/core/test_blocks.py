"""Compiled blocks vs the reference interpreter, where blocks are hardest.

``tests/test_fastpath_equivalence.py`` covers whole experiments and
random programs; these are the deterministic cases in which instruction
*k* of a multi-instruction block faults, wakes a watcher or misses in the
name table, plus the cache's own contract (invalidation on load, one
generation per distinct block, readable source, tracebacks that name the
MDP instruction).  Every scenario runs on both paths, with and without an
event bus, and everything observable must match.
"""

import random
import re
import traceback
from collections import OrderedDict

import pytest

from repro.asm.assembler import assemble
from repro.core import fastpath
from repro.core.costs import DEFAULT_COSTS
from repro.core.errors import SegmentationFault, TypeFault
from repro.core.faults import RuntimeFaultPolicy
from repro.core.message import Message
from repro.core.processor import Mdp, NetworkInterface
from repro.core.registers import Priority
from repro.core.word import TRUE, Word
from repro.machine.config import MachineConfig
from repro.machine.jmachine import JMachine
from repro.machine.stop import StopFlags
from repro.telemetry.events import EventBus

PATHS = pytest.mark.parametrize("events", [False, True],
                                ids=["bare", "events"])


def _proc(source, fast, events, policy=None, network=None):
    proc = Mdp(node_id=0, fast_path=fast, network=network, fault_policy=policy,
               costs=DEFAULT_COSTS.with_overrides(suspend_save=10, restart=10))
    if events:
        proc._events = EventBus()
    program = assemble(source)
    program.load(proc)
    base = program.end + 4
    for priority in Priority:
        proc.registers[priority].write("A0", Word.segment(base, 8))
    return proc, program, base


def _drive(proc, now=0):
    """Tick until the processor parks or halts; return the final time."""
    while not proc.halted:
        nxt = proc.tick(now)
        if nxt is None:
            break
        now = nxt
    return now


def _observe(proc, now, base):
    meter = proc.memory.meter
    return {
        "now": now,
        "counters": dict(proc.counters.__dict__),
        "ip": {p.name: proc.registers[p].ip for p in Priority},
        "regs": {p.name: [repr(w) for w in proc.registers[p].snapshot()]
                 for p in Priority},
        "meter": (meter.imem_reads, meter.imem_writes,
                  meter.emem_reads, meter.emem_writes),
        "memory": [repr(proc.memory.peek(base + i)) for i in range(8)],
        "waiting": {address: [(s.priority, s.ip, [repr(w) for w in s.registers])
                              for s in waiters]
                    for address, waiters in proc._watch.items()},
        "events": None if proc._events is None else list(proc._events.events),
    }


def _both(scenario, events):
    fast = scenario(True, events)
    slow = scenario(False, events)
    assert fast == slow
    return fast


# ------------------------------------------------- presence faults and wakes

CONSUMER_PRODUCER = """
consumer:
    ADD   R0, #1, R0
    ADD   R0, #2, R1
    {read}                  ; instruction 2 of the block: slot not present
    ADD   R1, R2, R3
    MOVE  R3, [A0+1]
    SUSPEND
producer:
    MOVE  #5, R0
    MOVE  [A3+1], [A0+0]    ; instruction 1: the write wakes the consumer
    ADD   R0, #1, R0
    MOVE  R0, [A0+2]
    SUSPEND
"""


@PATHS
@pytest.mark.parametrize("read, slot", [
    ("MOVE [A0+0], R2", Word.cfut()),          # cfut faults on the move
    ("ADD  [A0+0], #0, R2", Word.fut()),       # fut faults on the use
], ids=["cfut", "fut"])
def test_suspend_mid_block_then_wake_mid_block(read, slot, events):
    def scenario(fast, events):
        proc, program, base = _proc(CONSUMER_PRODUCER.format(read=read),
                                    fast, events)
        proc.memory.poke(base, slot)
        proc.deliver(Message.build(program.entry("consumer"), [], 0, 0), 0)
        now = _drive(proc)
        parked = _observe(proc, now, base)
        parked["fault_addr"] = proc._current_instr_addr
        proc.deliver(Message.build(program.entry("producer"),
                                   [Word.from_int(40)], 0, 0), now)
        now = _drive(proc, now)
        return parked, _observe(proc, now, base)

    parked, done = _both(scenario, events)
    # Suspended at the faulting instruction, two instructions charged.
    fault_ip = assemble(CONSUMER_PRODUCER.format(read=read)).entry(
        "consumer") + 2
    assert parked["counters"]["suspends"] == 1
    assert parked["counters"]["instructions"] == 2
    assert parked["fault_addr"] == fault_ip
    assert [ip for waiters in parked["waiting"].values()
            for _, ip, _ in waiters] == [fault_ip]
    assert done["counters"]["restarts"] == 1
    assert done["memory"][1] == repr(Word.from_int(43))   # 3 + 40
    assert done["memory"][2] == repr(Word.from_int(6))


# ----------------------------------------------------- faults that propagate

FAULTY = """
start:
    MOVE  #7, R0
    ADD   R0, #1, R1
    {bad}
    ADD   R1, #1, R1
    HALT
"""


@PATHS
@pytest.mark.parametrize("bad, error, message", [
    ("ADD  R0, A0, R2", TypeFault, "ADD on non-numeric tags INT,ADDR"),
    ("MOVE [A0+9], R2", SegmentationFault, "index 9 outside segment"),
    ("MOVE R0, [A0+R0]", None, None),   # in bounds: index 7 of 8, no fault
    ("MOVE R0, [A0+R1]", SegmentationFault, "index 8 outside segment"),
    ("DIV  R0, #0, R2", TypeFault, "division by zero"),
    ("MOD  R0, [A0+3], R2", TypeFault, "modulo by zero"),
], ids=["type", "segment", "indexed-ok", "indexed-segment", "div0", "mod0"])
def test_raise_from_instruction_k_leaves_reference_state(bad, error, message,
                                                         events):
    def scenario(fast, events):
        proc, program, base = _proc(FAULTY.format(bad=bad), fast, events)
        proc.set_background(program.entry("start"))
        raised = None
        try:
            now = _drive(proc)
        except (TypeFault, SegmentationFault) as fault:
            raised = (type(fault), str(fault), proc._current_instr_addr)
            now = None
        return raised, _observe(proc, now, base)

    raised, state = _both(scenario, events)
    if error is None:
        assert raised is None and state["counters"]["instructions"] == 5
        return
    assert raised[0] is error and message in raised[1]
    start = assemble(FAULTY.format(bad=bad)).entry("start")
    assert state["counters"]["instructions"] == 2
    assert state["ip"]["BACKGROUND"] == start + 3
    assert raised[2] == start + 2


def test_type_fault_traceback_names_the_mdp_instruction():
    proc, program, _ = _proc(FAULTY.format(bad="ADD  R0, A0, R2"), True, False)
    proc.set_background(program.entry("start"))
    with pytest.raises(TypeFault) as caught:
        _drive(proc)
    text = "".join(traceback.format_exception(caught.value))
    assert f"@{program.entry('start') + 2} ADD R0, A0, R2" in text


# ------------------------------------------------------------ XLATE refill

XLATE = """
start:
    MOVE  #3, R0
    XLATE R0, R1            ; hit
    XLATE R2, R3            ; evicted binding: miss, refill, retry
    ADD   R1, R3, [A0+0]
    HALT
"""


@PATHS
def test_xlate_miss_refill_mid_block(events):
    def scenario(fast, events):
        proc, program, base = _proc(XLATE, fast, events)
        proc.amt.enter(Word.from_int(4), Word.from_int(40))
        proc.amt.poison(random.Random(0))     # evicted, still bound
        proc.amt.enter(Word.from_int(3), Word.from_int(30))
        proc.registers[Priority.BACKGROUND].write("R2", Word.from_int(4))
        proc.set_background(program.entry("start"))
        now = _drive(proc)
        return (proc.amt.hits, proc.amt.misses), _observe(proc, now, base)

    (hits, misses), state = _both(scenario, events)
    assert (hits, misses) == (1, 1)
    assert state["memory"][0] == repr(Word.from_int(70))
    costs = Mdp(0).costs
    assert state["counters"]["xlate_cycles"] == (
        costs.xlate_hit + costs.reg_op + costs.xlate_miss)


# ------------------------------------------------------- the cache contract

FIRST = "start:\n    MOVE #1, R0\n    HALT\n"
SECOND = "start:\n    MOVE #2, R0\n    HALT\n"


@pytest.mark.parametrize("fast", [True, False], ids=["fast", "reference"])
def test_reload_at_the_same_base_runs_the_new_code(fast):
    proc = Mdp(node_id=0, fast_path=fast)
    for source in (FIRST, SECOND):
        program = assemble(source)
        program.load(proc)
        proc.halted = False
        proc.set_background(program.entry("start"))
        _drive(proc)
    assert proc.registers[Priority.BACKGROUND].read("R0").value == 2


@pytest.mark.parametrize("fast", [True, False], ids=["fast", "reference"])
def test_reload_through_the_machine(fast):
    machine = JMachine(MachineConfig(dims=(2, 1, 1), fast_path=fast))
    for source in (FIRST, SECOND):
        program = assemble(source)
        machine.load(program)
        for node in machine.nodes:
            node.proc.halted = False
            machine.start_background(node.node_id, program.entry("start"))
        machine.run()
    for node in machine.nodes:
        regs = node.proc.registers[Priority.BACKGROUND]
        assert regs.read("R0").value == 2


LOOP = """
start:
    MOVE #{n}, R1
loop:
    ADD  R0, R1, R0
    SUB  R1, #1, R1
    BT   R1, loop
    MOVE R0, [A0+0]
    HALT
"""


def test_each_distinct_block_is_bound_once_per_image():
    source = LOOP.format(n=17)        # a literal no other test compiles
    program = assemble(source)
    before = dict(fastpath.STATS)
    procs = []
    for node_id in range(6):
        proc = Mdp(node_id=node_id, fast_path=True)
        program.load(proc)
        proc.registers[Priority.BACKGROUND].write(
            "A0", Word.segment(program.end + 4, 8))
        proc.set_background(program.entry("start"))
        _drive(proc)
        procs.append(proc)
    generated = fastpath.STATS["blocks_generated"] - before["blocks_generated"]
    bound = fastpath.STATS["blocks_bound"] - before["blocks_bound"]
    # start..MOVE, the loop, the tail: three blocks, one image, six nodes.
    assert generated == 3
    assert bound == 3
    assert all(proc._blocks is procs[0]._blocks for proc in procs)
    assert fastpath.STATS["fallback_instructions"] == (
        before["fallback_instructions"])
    # Re-assembling the same text shares the code too, but it is another
    # image: its first block is bound again.
    again = Mdp(node_id=9, fast_path=True)
    assemble(source).load(again)
    again.set_background(program.entry("start"))
    again.tick(0, deadline=1)
    assert fastpath.STATS["blocks_generated"] - before["blocks_generated"] == 3
    assert fastpath.STATS["blocks_bound"] - before["blocks_bound"] == 4
    assert again._blocks is not procs[0]._blocks


def test_a_node_that_installs_other_code_gets_its_own_tables():
    """Three nodes load one program, then node 1 loads a second one over
    it (same addresses, another loop count).  Node 0 runs first and
    fills the shared tables; node 1 must not run its blocks."""
    first, second = assemble(LOOP.format(n=5)), assemble(LOOP.format(n=9))

    def run(fast):
        procs = [Mdp(node_id=node_id, fast_path=fast) for node_id in range(3)]
        for proc in procs:
            first.load(proc)
        second.load(procs[1])
        out = []
        for proc in procs:
            regs = proc.registers[Priority.BACKGROUND]
            regs.write("A0", Word.segment(first.end + 4, 8))
            proc.set_background(first.entry("start"))
            out.append((_drive(proc), regs.read("R0").value,
                        dict(proc.counters.__dict__)))
        return procs, out

    procs, fast = run(True)
    assert fast == run(False)[1]
    assert [r0 for _, r0, _ in fast] == [15, 45, 15]
    assert procs[0]._blocks is procs[2]._blocks
    assert procs[1]._blocks is not procs[0]._blocks


@pytest.mark.parametrize("save_at", [40, 400])
def test_a_restored_machine_still_equals_the_reference(save_at):
    """Two programs on one machine; a capture restored mid-run gives
    every node tables of its own, and the run finishes in the reference
    interpreter's state."""
    from repro.snapshot.state import capture_machine, restore_machine
    from tests.util import assert_same_state, machine_state

    programs = [assemble(LOOP.format(n=60)), assemble(LOOP.format(n=80))]

    def build(fast):
        machine = JMachine(MachineConfig(dims=(2, 2, 1), fast_path=fast))
        machine.load(programs[0], nodes=[0, 1])
        machine.load(programs[1], nodes=[2, 3])
        for node in machine.nodes:
            node.proc.registers[Priority.BACKGROUND].write(
                "A0", Word.segment(programs[0].end + 4, 8))
            machine.start_background(node.node_id, programs[0].entry("start"))
        return machine

    built = build(True)
    assert built.nodes[0].proc._blocks is built.nodes[1].proc._blocks
    assert built.nodes[1].proc._blocks is not built.nodes[2].proc._blocks
    built.run(max_cycles=save_at)
    restored = restore_machine(capture_machine(built))
    tables = [node.proc._blocks for node in restored.nodes]
    assert len({id(table) for table in tables}) == len(tables)
    restored.run()
    reference = build(False)
    reference.run()
    assert_same_state(machine_state(restored), machine_state(reference))


def test_block_source_shows_each_instruction():
    program = assemble(LOOP.format(n=3))
    proc = Mdp(node_id=0, fast_path=True)
    program.load(proc)
    loop = program.entry("loop")
    text = proc.block_source(loop + 1)      # compiles the block at loop+1
    assert f"# @{loop + 1} SUB R1, #1, R1" in text
    assert f"# @{loop + 2} BT R1, #{loop}" in text
    assert f"# @{loop} " not in text
    proc.registers[Priority.BACKGROUND].write(
        "A0", Word.segment(program.end + 4, 8))
    proc.set_background(program.entry("start"))
    _drive(proc)
    assert f"# @{loop + 1} SUB R1, #1, R1" in proc.block_source(loop + 1)
    text = proc.block_source(loop)          # the loop is its own block
    assert f"# @{loop} ADD R0, R1, R0" in text and "continue" in text
    compile(text, "<block>", "exec")        # it is the real source


def test_block_source_names_each_instruction_in_both_loop_copies():
    """A loop block is its first iteration, then the steady-state body:
    each instruction is named once in each."""
    program = assemble(LOOP.format(n=3))
    proc = Mdp(node_id=0, fast_path=True)
    program.load(proc)
    loop = program.entry("loop")
    text = proc.block_source(loop)
    for addr, instr in ((loop, "ADD R0, R1, R0"), (loop + 1, "SUB R1, #1, R1"),
                        (loop + 2, f"BT R1, #{loop}")):
        heads = re.findall(rf"^ *# @{addr} {re.escape(instr)}$", text, re.M)
        assert len(heads) == 2, instr
    # The steady copy keeps R0 and R1 raw: no dict, no tag test.
    steady = text[text.index("while vnow"):]
    assert "regs[" not in steady.split("if not vR1")[0]
    assert ".tag" not in steady


def test_declined_instruction_steps_through_the_reference():
    # An immediate destination: the reference raises, so must the fast path,
    # after the instructions before it have been charged.
    source = "start:\n    MOVE #1, R0\n    MOVE R0, #5\n    HALT\n"
    before = fastpath.STATS["fallback_instructions"]
    states = []
    for fast in (True, False):
        proc = Mdp(node_id=0, fast_path=fast)
        program = assemble(source)
        program.load(proc)
        proc.set_background(program.entry("start"))
        with pytest.raises(Exception) as caught:
            _drive(proc)
        states.append((type(caught.value), str(caught.value),
                       dict(proc.counters.__dict__),
                       proc.registers[Priority.BACKGROUND].ip))
    assert states[0] == states[1]
    assert fastpath.STATS["fallback_instructions"] == before + 1
    assert proc.block_source(program.entry("start") + 1) == ""


def test_codegen_metrics_are_opt_in():
    from repro.telemetry import Telemetry
    from repro.telemetry.wiring import register_codegen_metrics

    telemetry = Telemetry(events=False)
    JMachine(MachineConfig(dims=(2, 1, 1)), telemetry=telemetry)
    assert not [name for name in telemetry.registry.snapshot()
                if name.startswith("machine.codegen")]
    register_codegen_metrics(telemetry.registry)
    snapshot = telemetry.registry.snapshot()
    for name in fastpath.CODEGEN_METRICS:
        assert snapshot[f"machine.codegen.{name}"] == fastpath.STATS[name]


# ------------------------------------------------------ registers in locals
#
# A block keeps the registers it touches in locals and stores the dirty
# ones back at every exit and before every call-out; a loop block runs
# a steady-state body on raw values.  Whatever looks at the registers —
# a fault handler saving a thread, the network, a completion observer,
# a fault policy, a snapshot — must find what the interpreter leaves.

LOOPED = """
consumer:
    MOVE  #12, R2
    MOVE  #0, R0
    BR    loop
loop:
    AND   R2, #7, R3
    ADD   R0, R2, R0
    {body}
    SUB   R2, #1, R2
    BT    R2, loop
    MOVE  R0, [A0+0]
    SUSPEND
producer:
    MOVE  #12, R2
    BR    ploop
ploop:
    AND   R2, #7, R3        ; slot 1 is written in the fourth iteration
    ADD   R2, #100, R1
    MOVE  R1, [A0+R3]
    SUB   R2, #1, R2
    BT    R2, ploop
    SUSPEND
"""


def _trail(proc, base, now=0):
    """The observed state after every tick until the processor parks."""
    trail = []
    while not proc.halted:
        nxt = proc.tick(now)
        if nxt is None:
            break
        now = nxt
        trail.append(_observe(proc, now, base))
    return trail, now


@PATHS
@pytest.mark.parametrize("body, slot, error", [
    # R3 = R2 & 7 is 1 in the fourth iteration: the future there suspends
    # the thread, whose saved registers must be the loop's.
    ("ADD [A0+R3], R0, R1", Word.fut(), None),
    ("ADD [A0+R3], R0, R1", Word.segment(9, 2),
     "ADD on non-numeric tags ADDR,INT"),
    # A static body (one deadline test per iteration): R3 reaches zero
    # in the fifth iteration.
    ("DIV R0, R3, R1", Word.from_int(1), "division by zero"),
], ids=["fut-suspends", "type", "div0"])
def test_fault_from_iteration_k_of_a_loop_leaves_reference_state(
        body, slot, error, events):
    source = LOOPED.format(body=body)

    def scenario(fast, events):
        proc, program, base = _proc(source, fast, events)
        proc.memory.poke(base + 1, slot)
        proc.deliver(Message.build(program.entry("consumer"), [], 0, 0), 0)
        try:
            now = _drive(proc)
        except TypeFault as fault:
            return (str(fault), proc._current_instr_addr), _observe(
                proc, None, base), None
        parked = _observe(proc, now, base)
        # The producer's loop stores into the watched slot mid-loop: the
        # block ends there, every register stored, and the consumer
        # restarts from the registers the fault saved.
        proc.deliver(Message.build(program.entry("producer"), [], 0, 0), now)
        trail, now = _trail(proc, base, now)
        return None, parked, (trail, _observe(proc, now, base))

    fast, slow = scenario(True, events), scenario(False, events)
    raised, parked, rest = fast
    assert (raised, parked) == slow[:2]
    loop = assemble(source).entry("loop")
    if error is not None:
        assert error in raised[0] and raised[1] == loop + 2
        iteration = 4 if body.startswith("ADD") else 5
        # Three to enter, five per iteration, two before the fault.
        assert parked["counters"]["instructions"] == 3 + 5 * (iteration - 1) + 2
        return
    # R0..R3 as the fourth iteration left them: R1 is the third's sum.
    (waiting,) = parked["waiting"].values()
    assert [(ip, regs[:4]) for _, ip, regs in waiting] == [(loop + 2, [
        repr(Word.from_int(12 + 11 + 10 + 9)), repr(Word.from_int(33)),
        repr(Word.from_int(9)), repr(Word.from_int(1))])]
    (fast_trail, fast_done), (slow_trail, slow_done) = rest, slow[2]
    assert fast_done == slow_done
    assert fast_done["memory"][0] == repr(Word.from_int(78))   # 12 + ... + 1
    # Every tick of the fast path ends in a state the interpreter passes
    # through, and one ends right after the watched store.
    assert all(state in slow_trail for state in fast_trail)
    stored = next(state["now"] for state in slow_trail
                  if state["memory"][1] == repr(Word.from_int(109)))
    assert stored in [state["now"] for state in fast_trail]


class _Recorder(NetworkInterface):
    """Records each word sent with the sender's registers at the call."""

    def __init__(self, seen):
        self.seen, self.proc = seen, None

    def send_word(self, priority, word, end, now):
        self.seen.append(("send", repr(word), _registers(self.proc)))


class _PeekingPolicy(RuntimeFaultPolicy):
    """Records the registers at an XLATE miss, then writes R0 (a policy
    may: the block must read it again)."""

    def __init__(self, seen):
        super().__init__()
        self.seen = seen

    def on_xlate_miss(self, proc, key, fault):
        self.seen.append(("xlate", repr(key), _registers(proc)))
        proc.registers[Priority.P0].write("R0", Word.from_int(99))
        return super().on_xlate_miss(proc, key, fault)


def _registers(proc):
    regs = proc.registers[Priority.P0].regs
    return [repr(regs[name]) for name in ("R0", "R1", "R2", "R3")]


CALLOUTS = """
start:
    MOVE  #7, R0
    ADD   R0, R0, R1        ; R1 = 14, held raw
    LT    R1, #20, R2       ; R2 = TRUE, held raw
    XLATE R1, R3            ; a miss: the policy sees R0-R2, writes R0
    ADD   R0, R3, R0        ; 99 + 40
    SEND  R0
    SENDE R2
    SUB   R1, #4, R1
    SUSPEND                 ; the completion observer sees R1 = 10
"""


@PATHS
def test_callouts_see_registers_written_earlier_in_the_block(events):
    def scenario(fast, events):
        seen = []
        network = _Recorder(seen)
        proc, program, base = _proc(CALLOUTS, fast, events,
                                    policy=_PeekingPolicy(seen),
                                    network=network)
        network.proc = proc
        proc.on_thread_complete.append(
            lambda proc, message: seen.append(("done", _registers(proc))))
        proc.amt.enter(Word.from_int(14), Word.from_int(40))
        proc.amt.poison(random.Random(0))     # evicted, still bound
        proc.deliver(Message.build(program.entry("start"), [], 0, 0), 0)
        return seen, _observe(proc, _drive(proc), base)

    seen, _ = _both(scenario, events)
    seven, fourteen, true = (repr(Word.from_int(7)), repr(Word.from_int(14)),
                             repr(TRUE))
    assert seen == [
        ("xlate", fourteen, [seven, fourteen, true, "Word(INT, 0)"]),
        ("send", repr(Word.from_int(139)),
         [repr(Word.from_int(139)), fourteen, true, repr(Word.from_int(40))]),
        ("send", true,
         [repr(Word.from_int(139)), fourteen, true, repr(Word.from_int(40))]),
        ("done", [repr(Word.from_int(139)), repr(Word.from_int(10)), true,
                  repr(Word.from_int(40))]),
    ]


#: The compute grid: each node counts its own number of iterations down,
#: then sends one message to the next node.  A0+0 = iterations, A0+1 =
#: peer, A0+2 = done flag.
GRID = """
work:
    MOVE  [A0+0], R0
loop:
    ADD   R0, #-1, R0
    GT    R0, #0, R1
    BT    R1, loop
    SEND  [A0+1]
    SEND  #IP:fin
    SENDE [A0+1]
    SUSPEND
fin:
    MOVE  #1, [A0+2]
    SUSPEND
"""


def _grid(fast, iters, dims):
    """A loaded grid and a stop condition it never meets (a free run is
    not cycle-exact: tests/test_free_run_deviation.py)."""
    machine = JMachine(MachineConfig(dims=dims, fast_path=fast))
    program = assemble(GRID)
    machine.load(program)
    base = program.end + 4
    n = len(machine.nodes)
    for i, node in enumerate(machine.nodes):
        node.proc.memory.poke(base, Word.from_int(iters[i % len(iters)]))
        node.proc.memory.poke(base + 1, Word.from_int((i + 1) % n))
        node.proc.registers[Priority.P0].write("A0", Word.segment(base, 4))
    for i in range(n):
        machine.inject(i, program.entry("work"), source=i)
    return machine, program, StopFlags([(0, base + 3, 1)])


def test_a_grid_cut_mid_loop_restores_from_its_checkpoint(tmp_path):
    """Nodes finish their loops apart, so messages in flight cut the
    others' loops at per-node deadlines; every checkpoint taken there
    restores and finishes in the reference interpreter's state."""
    from repro.snapshot import CheckpointPolicy
    from tests.util import assert_same_state, machine_state

    iters = [30 + 13 * i for i in range(8)]
    machine, program, never = _grid(True, iters, (2, 2, 2))
    machine.checkpoint = CheckpointPolicy(str(tmp_path / "grid_{cycle}.ckpt"),
                                          every=45)
    machine.run(until=never)
    reference, _, never = _grid(False, iters, (2, 2, 2))
    reference.run(until=never)
    expected = machine_state(reference)
    assert_same_state(machine_state(machine), expected)

    loop = program.entry("loop")
    cut = 0
    for path in sorted(tmp_path.glob("grid_*.ckpt")):
        restored = JMachine.restore(str(path))
        cut += sum(loop < node.proc.registers[Priority.P0].ip <= loop + 2
                   for node in restored.nodes)
        _, _, never = _grid(True, iters, (2, 2, 2))
        restored.run(until=never)
        assert_same_state(machine_state(restored), expected)
    assert cut, "no checkpoint caught a loop mid-iteration"


def test_a_512_node_grid_binds_each_block_once(monkeypatch):
    """One program image on 8x8x8 nodes: every block is generated and
    bound once, the loop's cut-point blocks included."""
    monkeypatch.setattr(fastpath, "_CACHE", OrderedDict())
    before = dict(fastpath.STATS)
    machine, _, _ = _grid(True, [150], (8, 8, 8))
    machine.run_until_quiescent()
    assert fastpath.STATS["blocks_generated"] - before["blocks_generated"] == 8
    assert fastpath.STATS["blocks_bound"] - before["blocks_bound"] == 8
