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
import traceback

import pytest

from repro.asm.assembler import assemble
from repro.core import fastpath
from repro.core.errors import SegmentationFault, TypeFault
from repro.core.faults import RuntimeFaultPolicy
from repro.core.message import Message
from repro.core.processor import Mdp
from repro.core.registers import Priority
from repro.core.word import Word
from repro.machine.config import MachineConfig
from repro.machine.jmachine import JMachine
from repro.telemetry.events import EventBus

PATHS = pytest.mark.parametrize("events", [False, True],
                                ids=["bare", "events"])


def _proc(source, fast, events):
    proc = Mdp(node_id=0, fast_path=fast,
               fault_policy=RuntimeFaultPolicy(save_cycles=10,
                                               restart_cycles=10))
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
        "waiting": {address: [(s.priority, s.ip) for s in waiters]
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
            for _, ip in waiters] == [fault_ip]
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
