"""Fast-path vs reference-interpreter equivalence.

The fast path (``MachineConfig(fast_path=True)``, the default) batches
straight-line instruction runs into single Python calls; the reference
path interprets one instruction per ``tick``.  The contract is *cycle
exactness*: finish times, instruction counts, every counter, registers,
and memory must be bit-identical between the two.  These tests enforce
that contract on the full runtime suite (RPC ping, combining-tree
reduction, butterfly barrier), a cycle-level application, hand-written
handlers under active fault injection and queue pressure, and — via
Hypothesis — on randomly generated straight-line programs.
"""

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from repro.asm.assembler import assemble
from repro.core.processor import Mdp
from repro.core.registers import Priority, DATA_REG_NAMES, ADDR_REG_NAMES
from repro.core.tags import Tag
from repro.core.word import Word
from repro.machine.config import MachineConfig
from repro.machine.jmachine import JMachine
from repro.machine.stop import StopFlags
from repro.runtime.barrier import run_barrier_experiment
from repro.runtime.reduce import run_reduction
from repro.runtime.rpc import run_ping

from tests.util import assert_same_state, machine_state


def _machine_counters(machine):
    return [dict(node.proc.counters.__dict__) for node in machine.nodes]


def _both(run):
    """Run ``run(machine)`` on a fast and a slow machine; return both."""
    out = []
    for fast in (True, False):
        result = run(fast)
        out.append(result)
    return out


# ---------------------------------------------------------------- runtime


def test_ping_identical():
    def run(fast):
        machine = JMachine(MachineConfig(dims=(4, 4, 4), fast_path=fast))
        result = run_ping(machine, 0, 63, iterations=10)
        return (machine.now, result.total_cycles, result.iterations,
                _machine_counters(machine))

    fast, slow = _both(run)
    assert fast == slow


def test_barrier_identical():
    def run(fast):
        machine = JMachine(MachineConfig(dims=(2, 2, 2), fast_path=fast))
        result = run_barrier_experiment(machine, barriers=3)
        return (machine.now, result.total_cycles, result.barriers,
                _machine_counters(machine))

    fast, slow = _both(run)
    assert fast == slow


def test_reduction_identical():
    def run(fast):
        machine = JMachine(MachineConfig(dims=(2, 2, 2), fast_path=fast))
        result = run_reduction(machine, values=list(range(1, 9)))
        return (machine.now, result.total, result.cycles,
                result.broadcast_complete, _machine_counters(machine))

    fast, slow = _both(run)
    assert fast == slow
    assert fast[1] == sum(range(1, 9))


def test_cycle_radix_identical():
    from repro.apps.radix_cycle import run_cycle_radix

    keys = [(7 * i + 3) % 16 for i in range(16)]
    fast = run_cycle_radix(4, list(keys), n_digits=2, fast_path=True)
    slow = run_cycle_radix(4, list(keys), n_digits=2, fast_path=False)
    assert fast == slow
    assert fast.sorted_keys == sorted(keys)


# ----------------------------------------------------------- telemetry


def _telemetry_run(experiment, fast):
    """Run ``experiment(machine)`` with telemetry; return (metrics, events)."""
    from repro.telemetry import Telemetry

    telemetry = Telemetry()
    machine = JMachine(MachineConfig(dims=(2, 2, 2), fast_path=fast),
                       telemetry=telemetry)
    experiment(machine)
    return (telemetry.registry.snapshot(),
            list(telemetry.events.iter_dicts()))


def test_telemetry_identical_ping():
    """The ISSUE's equivalence clause: batched fast-path blocks report
    the same counter totals — and the same event stream — as the
    reference interpreter."""
    fast, slow = _both(
        lambda f: _telemetry_run(
            lambda m: run_ping(m, 0, 7, iterations=6), f))
    assert fast[0] == slow[0]
    assert fast[1] == slow[1]


def test_telemetry_identical_barrier():
    fast, slow = _both(
        lambda f: _telemetry_run(
            lambda m: run_barrier_experiment(m, barriers=3), f))
    assert fast[0] == slow[0]
    assert fast[1] == slow[1]


def test_telemetry_identical_reduction():
    fast, slow = _both(
        lambda f: _telemetry_run(
            lambda m: run_reduction(m, values=list(range(1, 9))), f))
    assert fast[0] == slow[0]
    assert fast[1] == slow[1]


def _traced_run(experiment, fast):
    """Run ``experiment(machine)`` with causal tracing on."""
    from repro.telemetry import Telemetry

    telemetry = Telemetry(trace=True)
    machine = JMachine(MachineConfig(dims=(2, 2, 2), fast_path=fast),
                       telemetry=telemetry)
    experiment(machine)
    return (machine.now, _machine_counters(machine),
            list(telemetry.events.iter_dicts()))


def test_traced_identical_ping():
    """Causal tracing on: span allocation rides the (identical) send
    order, so fast and reference paths emit the same traced stream."""
    fast, slow = _both(
        lambda f: _traced_run(
            lambda m: run_ping(m, 0, 7, iterations=6), f))
    assert fast == slow
    assert any("span" in e for e in fast[2])


def test_tracing_adds_only_span_fields():
    """Zero-cost clause: a traced run's stream, with the span fields
    stripped, is bit-identical to an untraced run — tracing perturbs no
    timestamp, counter, or event ordering."""
    from repro.telemetry import Telemetry

    def run(trace):
        telemetry = Telemetry(trace=trace)
        machine = JMachine(MachineConfig(dims=(2, 2, 2)),
                           telemetry=telemetry)
        run_ping(machine, 0, 7, iterations=6)
        return (machine.now, telemetry.registry.snapshot(),
                list(telemetry.events.iter_dicts()))

    off = run(False)
    on = run(True)
    assert all("span" not in e for e in off[2])
    stripped = [{k: v for k, v in e.items()
                 if k not in ("trace", "span", "parent", "cats")}
                for e in on[2]]
    assert (on[0], on[1], stripped) == off


def test_report_identical_ping():
    from repro.telemetry import Telemetry

    def run(fast):
        machine = JMachine(MachineConfig(dims=(2, 2, 2), fast_path=fast),
                           telemetry=Telemetry(events=False))
        run_ping(machine, 0, 7, iterations=6)
        return machine.report().to_dict()

    fast, slow = _both(run)
    assert fast == slow


# ------------------------------------------------------- chaos is free


def _chaos_run(fast, attach_empty_plan):
    """Ping with telemetry, optionally with an armed-but-empty FaultPlan."""
    from repro.chaos import ChaosEngine, FaultPlan
    from repro.telemetry import Telemetry

    telemetry = Telemetry()
    machine = JMachine(MachineConfig(dims=(2, 2, 2), fast_path=fast),
                       telemetry=telemetry)
    engine = None
    if attach_empty_plan:
        engine = ChaosEngine(FaultPlan(seed=31)).attach_machine(machine)
    run_ping(machine, 0, 7, iterations=6)
    sample = telemetry.registry.snapshot()
    if attach_empty_plan:
        # Strip the chaos source's own (all-zero) metrics before
        # comparing against the engine-less run, and prove they are zero.
        chaos_keys = [k for k in sample if k.startswith("chaos.")]
        assert chaos_keys and all(sample[k] == 0 for k in chaos_keys)
        for key in chaos_keys:
            del sample[key]
        assert not engine.log
    return (machine.now, _machine_counters(machine), sample,
            list(telemetry.events.iter_dicts()))


def test_empty_fault_plan_is_bit_identical_fast():
    """The zero-cost clause: an attached ChaosEngine with no faults must
    not perturb a single cycle, counter, or telemetry event."""
    assert _chaos_run(True, False) == _chaos_run(True, True)


def test_empty_fault_plan_is_bit_identical_slow():
    assert _chaos_run(False, False) == _chaos_run(False, True)


def test_empty_fault_plan_fast_slow_identical():
    """Both dimensions at once: chaos attached, fast vs reference path."""
    assert _chaos_run(True, True) == _chaos_run(False, True)


# ------------------------------------- active chaos and queue pressure
#
# Hand-written handlers run to quiescence (or the limit) under a stop
# condition that is never met: a free run is not cycle-exact
# (tests/test_free_run_deviation.py).

ECHO = """
; request: [IP:echo, replyto, value]
echo:
    SEND  [A3+1]
    SEND  #IP:landing
    SENDE [A3+2]
    SUSPEND
landing:
    MOVE  [A3+1], [A0+0]
    SUSPEND
"""

# Fan-out storm: each handler re-sends to two peers while ttl > 0, so
# traffic grows geometrically and the queues see real pressure; every
# handler ends by counting itself in [A0+0].
STORM = """
; request: [IP:storm, ttl, peer_a, peer_b]
storm:
    MOVE  [A3+1], R0
    EQ    R0, #0, R1
    BT    R1, fin
    ADD   R0, #-1, R0
    SEND  [A3+2]
    SEND  #IP:storm
    SEND  R0
    SEND  [A3+3]
    SENDE [A3+2]
    SEND  [A3+3]
    SEND  #IP:storm
    SEND  R0
    SEND  [A3+2]
    SENDE [A3+3]
fin:
    MOVE  [A0+0], R2
    ADD   R2, #1, R2
    MOVE  R2, [A0+0]
    SUSPEND
"""


def _loaded(source, telemetry=None, **config):
    """(machine, program, globals base, a stop condition never met)."""
    machine = JMachine(MachineConfig(**config), telemetry=telemetry)
    program = assemble(source)
    machine.load(program)
    base = program.end + 4
    for node in machine.nodes:
        node.proc.registers[Priority.P0].write("A0", Word.segment(base, 4))
    return machine, program, base, StopFlags([(0, base + 3, 9)])


@pytest.mark.parametrize("spec", [
    {"kind": "kill", "node": 3, "start": 30},   # blackholes a reply
    {"kind": "stall", "node": 2, "start": 30, "duration": 40},
    {"kind": "drop", "rate": 0.3},
    {"kind": "corrupt", "rate": 0.5},
], ids=lambda spec: spec["kind"])
def test_echo_under_chaos_identical(spec):
    """All-to-all echoes with a fault plan that fires: the captured
    tree holds the chaos counters, log and RNG positions and the event
    stream, so equal states mean the same faults hit the same messages."""
    from repro.chaos import ChaosEngine, FaultPlan, FaultSpec
    from repro.telemetry import Telemetry

    def run(fast):
        telemetry = Telemetry()
        machine, program, _, never = _loaded(
            ECHO, telemetry, dims=(4, 2, 1), fast_path=fast)
        engine = ChaosEngine(FaultPlan(
            seed=3, specs=(FaultSpec(**spec),))).attach_machine(machine)
        for i in range(8):
            machine.inject(
                i, program.entry("echo"),
                [Word.from_int((i + 3) % 8), Word.from_int(100 + i)],
                source=(i + 1) % 8)
        end = machine.run(max_cycles=20_000, until=never)
        assert engine.log
        return machine_state(machine, end), telemetry.registry.snapshot()

    fast, slow = _both(run)
    assert_same_state(fast[0], slow[0])
    assert fast[1] == slow[1]


def _storm(fast, ttl, max_cycles=500_000, **config):
    """(full state, what the storm got done) on a 2x2x2 machine."""
    machine, program, base, never = _loaded(
        STORM, dims=(2, 2, 2), fast_path=fast, **config)
    for i in range(8):
        machine.inject(i, program.entry("storm"),
                       [Word.from_int(ttl), Word.from_int((i * 7 + 1) % 8),
                        Word.from_int((i * 3 + 5) % 8)], source=i)
    end = machine.run(max_cycles=max_cycles, until=never)
    stats = machine.fabric.stats
    work = {"handlers": sum(node.proc.memory.peek(base).value
                            for node in machine.nodes),
            "instructions": machine.total_instructions(),
            "submitted": stats.submitted, "completed": stats.completed,
            "in_flight": machine.fabric.worms_in_flight}
    return machine_state(machine, end), work


@pytest.mark.parametrize("ttl, config", [
    (4, {}), (5, {"queue_overflow_spills": True}),
], ids=["backpressure-free", "spill"])
def test_storm_identical(ttl, config):
    (fast, fast_work), (slow, slow_work) = _both(
        lambda f: _storm(f, ttl, **config))
    assert_same_state(fast, slow)
    # Every message of the tree ran its handler to the end.
    assert fast_work["handlers"] == 8 * (2 ** (ttl + 1) - 1)
    assert fast_work["in_flight"] == 0


@pytest.fixture(scope="module")
def tight_storm():
    """24-word queues: destinations refuse worms from cycle ~220 on and
    the machine wedges by cycle ~400, every node retrying a SEND into a
    full buffer behind 8 worms that can never drain."""
    return _both(lambda f: _storm(f, 5, max_cycles=2_000, queue_words=24))


def test_storm_under_destination_backpressure_identical(tight_storm):
    """A block running ahead of the clock frees queue rows at virtual
    cycles the fabric has not reached; the accept check sees them only
    from the cycle after the freeing instruction started, as it does on
    the reference (``MessageQueue.free_words_at``)."""
    (fast, _), (slow, _) = tight_storm
    assert_same_state(fast, slow)


def test_storm_under_destination_backpressure_does_the_same_work(tight_storm):
    """What ran, what was sent and where it wedged, on both paths."""
    (_, fast_work), (_, slow_work) = tight_storm
    assert fast_work == slow_work
    assert fast_work["in_flight"] == 8
    assert fast_work["handlers"] < 8 * (2 ** 6 - 1)


# ------------------------------------------------------------ checkpointing


def _checkpoint_run(fast, checkpoint_path):
    from repro.snapshot import CheckpointPolicy
    from repro.telemetry import Telemetry

    telemetry = Telemetry()
    machine = JMachine(MachineConfig(dims=(2, 2, 2), fast_path=fast),
                       telemetry=telemetry)
    if checkpoint_path is not None:
        machine.checkpoint = CheckpointPolicy(checkpoint_path, every=60)
    run_ping(machine, 0, 7, iterations=6)
    if checkpoint_path is not None:
        assert machine.checkpoint.saves >= 1
    return (machine.now, _machine_counters(machine),
            telemetry.registry.snapshot(),
            list(telemetry.events.iter_dicts()))


def test_checkpointing_is_bit_identical(tmp_path):
    """The snapshot zero-cost clause: periodic checkpointing is a pure
    read — with it enabled the run produces cycle counts, counters,
    metrics, and telemetry events bit-identical to a run without it."""
    path = str(tmp_path / "ping.ckpt")
    assert _checkpoint_run(True, None) == _checkpoint_run(True, path)


def test_checkpointing_is_bit_identical_slow(tmp_path):
    path = str(tmp_path / "ping.ckpt")
    assert _checkpoint_run(False, None) == _checkpoint_run(False, path)


# ------------------------------------------------- random straight-line


_REGS = st.sampled_from(DATA_REG_NAMES)
_MEM = st.integers(0, 7).map(lambda k: f"[A0+{k}]")
_IMM = st.integers(-16, 16).map(lambda v: f"#{v}")
_NONZERO_IMM = st.integers(1, 16).map(lambda v: f"#{v}")
_SRC = st.one_of(_REGS, _IMM, _MEM)
_DST = st.one_of(_REGS, _MEM)

_SAFE_ALU = st.sampled_from(
    ("ADD", "SUB", "MUL", "AND", "OR", "XOR", "EQ", "NE", "LT", "LE",
     "GT", "GE")
)
_DIVIDE = st.sampled_from(("DIV", "MOD"))
_SHIFT = st.sampled_from(("ASH", "LSH"))
_UNARY = st.sampled_from(("NOT", "NEG", "RTAG"))
_NILADIC_DST = st.sampled_from(("MOVEID", "CYCLE"))

_INSTR = st.one_of(
    st.tuples(_SAFE_ALU, _SRC, _SRC, _DST).map(
        lambda t: f"{t[0]} {t[1]}, {t[2]}, {t[3]}"),
    # Divisors and shift counts come from small nonzero immediates so
    # the generated program cannot fault or explode value widths.
    st.tuples(_DIVIDE, _SRC, _NONZERO_IMM, _DST).map(
        lambda t: f"{t[0]} {t[1]}, {t[2]}, {t[3]}"),
    st.tuples(_SHIFT, _SRC, st.integers(-8, 8), _DST).map(
        lambda t: f"{t[0]} {t[1]}, #{t[2]}, {t[3]}"),
    st.tuples(_UNARY, _SRC, _DST).map(lambda t: f"{t[0]} {t[1]}, {t[2]}"),
    st.tuples(_NILADIC_DST, _DST).map(lambda t: f"{t[0]} {t[1]}"),
    st.tuples(st.just("MOVE"), _SRC, _DST).map(
        lambda t: f"{t[0]} {t[1]}, {t[2]}"),
    st.just("NOP"),
)


def _run_straight_line(body_lines, fast):
    source = "start:\n" + "".join(f"    {line}\n" for line in body_lines)
    source += "    HALT\n"
    proc = Mdp(node_id=0, fast_path=fast)
    program = assemble(source)
    program.load(proc)
    base = program.end + 4
    for i in range(8):
        proc.memory.poke(base + i, Word.from_int(3 * i - 5))
    regs = proc.registers[Priority.BACKGROUND]
    for i, name in enumerate(DATA_REG_NAMES):
        regs.write(name, Word.from_int(i + 1))
    regs.write("A0", Word.segment(base, 8))
    proc.set_background(program.entry("start"))
    now = 0
    ticks = 0
    while not proc.halted:
        now = proc.tick(now)
        ticks += 1
        assert ticks < 10_000
    return (
        now,
        dict(proc.counters.__dict__),
        {name: repr(regs.regs[name])
         for name in DATA_REG_NAMES + ADDR_REG_NAMES},
        [repr(proc.memory.peek(base + i)) for i in range(8)],
    )


@settings(max_examples=60, deadline=None)
@given(st.lists(_INSTR, min_size=1, max_size=24))
def test_random_straight_line_programs_identical(body):
    fast = _run_straight_line(body, fast=True)
    slow = _run_straight_line(body, fast=False)
    assert fast == slow


# ------------------------------------------- random control flow + deadlines

# R2 is the loop counter and R3 the (always in-bounds) index register, so
# generated bodies only write R0, R1 and memory; R3 changes only through
# the two forms below.
_CF_MEM = st.one_of(_MEM, st.just("[A0+R3]"))
_CF_SRC = st.one_of(_REGS, _IMM, _CF_MEM)
_CF_DST = st.one_of(st.sampled_from(("R0", "R1")), _CF_MEM)
_CF_INSTR = st.one_of(
    st.tuples(_SAFE_ALU, _CF_SRC, _CF_SRC, _CF_DST).map(
        lambda t: f"{t[0]} {t[1]}, {t[2]}, {t[3]}"),
    st.tuples(_DIVIDE, _CF_SRC, _NONZERO_IMM, _CF_DST).map(
        lambda t: f"{t[0]} {t[1]}, {t[2]}, {t[3]}"),
    st.tuples(_UNARY, _CF_SRC, _CF_DST).map(
        lambda t: f"{t[0]} {t[1]}, {t[2]}"),
    st.tuples(st.just("MOVE"), _CF_SRC, _CF_DST).map(
        lambda t: f"{t[0]} {t[1]}, {t[2]}"),
    st.tuples(_CF_SRC).map(lambda t: f"AND {t[0]}, #7, R3"),
    st.integers(0, 7).map(lambda k: f"MOVE #{k}, R3"),
)
_CF_BODY = st.lists(_CF_INSTR, min_size=0, max_size=4)
#: ("skip", branch, body): a forward branch over ``body``.
_CF_SKIP = st.tuples(
    st.just("skip"),
    st.sampled_from(("BT R0,", "BF R0,", "BT R1,", "BF [A0+2],", "BR")),
    _CF_BODY)
_CF_ITEM = st.one_of(st.tuples(st.just("straight"), _CF_BODY), _CF_SKIP)
#: ("loop", trips, items): a backward branch taken ``trips - 1`` times.
_CF_LOOP = st.tuples(st.just("loop"), st.integers(1, 4),
                     st.lists(_CF_ITEM, min_size=1, max_size=3))
_CF_PROGRAM = st.lists(st.one_of(_CF_ITEM, _CF_LOOP), min_size=1, max_size=5)


def _render(segments):
    lines, labels = ["start:"], iter(range(10_000))

    def item(entry):
        if entry[0] == "straight":
            lines.extend(f"    {line}" for line in entry[1])
        else:
            label = f"skip{next(labels)}"
            lines.append(f"    {entry[1]} {label}")
            lines.extend(f"    {line}" for line in entry[2])
            lines.append(f"{label}:")

    for segment in segments:
        if segment[0] == "loop":
            label = f"loop{next(labels)}"
            lines.append(f"    MOVE #{segment[1]}, R2")
            lines.append(f"{label}:")
            for entry in segment[2]:
                item(entry)
            lines.append("    SUB R2, #1, R2")
            lines.append(f"    BT R2, {label}")
        else:
            item(segment)
    lines.append("    HALT")
    return "\n".join(lines) + "\n"


def _cf_proc(program, fast, memory=(), registers=()):
    """A processor running ``program`` in the background over an 8-word
    segment in A0; ``memory`` and ``registers`` (name, word) override
    the default contents."""
    proc = Mdp(node_id=0, fast_path=fast)
    program.load(proc)
    base = program.end + 4
    for i in range(8):
        proc.memory.poke(base + i, Word.from_int(3 * i - 5))
    for i, word in enumerate(memory):
        proc.memory.poke(base + i, word)
    regs = proc.registers[Priority.BACKGROUND]
    for i, name in enumerate(DATA_REG_NAMES):
        regs.write(name, Word.from_int(i + 1))
    for name, word in registers:
        regs.write(name, word)
    regs.write("A0", Word.segment(base, 8))
    proc.set_background(program.entry("start"))
    return proc, regs, base


def _cf_state(proc, regs, base, now):
    return (
        now,
        regs.ip,
        dict(proc.counters.__dict__),
        {name: repr(regs.regs[name])
         for name in DATA_REG_NAMES + ADDR_REG_NAMES},
        [repr(proc.memory.peek(base + i)) for i in range(8)],
    )


@settings(max_examples=40, deadline=None)
@given(_CF_PROGRAM)
def test_random_control_flow_identical_at_every_deadline(segments):
    """Branches, loops, indexed operands, memory destinations — and the
    deadline landing on every cycle of the first blocks: a compiled block
    cut short must leave exactly what per-instruction stepping leaves."""
    program = assemble(_render(segments))

    # Reference stepping: the state after each retired instruction.
    proc, regs, base = _cf_proc(program, fast=False)
    now, trace = 0, [_cf_state(proc, regs, base, 0)]
    while not proc.halted:
        now = proc.tick(now)
        trace.append(_cf_state(proc, regs, base, now))
        assert len(trace) < 5_000
    final = trace[-1]

    for deadline in range(1, min(final[0], 40) + 1):
        # Every instruction *starting* before the deadline completes.
        expected = next(state for state in trace if state[0] >= deadline)
        proc, regs, base = _cf_proc(program, fast=True)
        now = 0
        while now < deadline and not proc.halted:
            now = proc.tick(now, deadline=deadline)
        assert _cf_state(proc, regs, base, now) == expected, deadline
        # Resuming mid-program (a block entered at an arbitrary address)
        # still reaches the reference's final state.
        while not proc.halted:
            now = proc.tick(now)
        assert _cf_state(proc, regs, base, now) == final, deadline


# ------------------------------------------------------- promoted loops
#
# A block that branches back to its own start runs a peeled first
# iteration and then a steady-state body with registers held raw in
# locals.  These loops are one block each: R2 counts the trips, R3 is
# ``R2 & 7`` (an index that walks the memory words and a divisor that
# reaches zero), and the body reads memory whose tags differ word to
# word, so what the first iterations proved about a register can be
# false in a later one.

#: Both sides of the interned-int bounds (-256 / 1024) and of +-2**31.
_EDGE_INTS = (-257, -256, 1024, 1025, 2**31 - 1, -(2**31), 2**30 + 5,
              -(2**30) - 3)
_LOOP_WORDS = [Word.from_int(v) for v in _EDGE_INTS + (0, 1, 7)] + [
    Word(Tag.BOOL, 1), Word(Tag.SYM, 65), Word(Tag.FLOAT, 3),
    Word.segment(9, 2), Word.cfut(), Word.fut(4)]
_LOOP_DST = st.sampled_from(("R0", "R1", "A1"))
_LOOP_SRC = st.one_of(
    st.sampled_from(("R0", "R1", "R2", "R3", "A1")),
    st.one_of(st.integers(-3, 3), st.sampled_from(_EDGE_INTS)).map(
        lambda v: f"#{v}"))
_LOOP_INSTR = st.one_of(
    st.tuples(st.sampled_from(("ADD", "SUB", "MUL", "AND", "XOR", "LT", "NE")),
              _LOOP_SRC, _LOOP_SRC, _LOOP_DST).map(
        lambda t: f"{t[0]} {t[1]}, {t[2]}, {t[3]}"),
    st.tuples(_DIVIDE, _LOOP_SRC, st.sampled_from(("R3", "R1")),
              _LOOP_DST).map(lambda t: f"{t[0]} {t[1]}, {t[2]}, {t[3]}"),
    st.tuples(st.sampled_from(("NOT", "NEG", "MOVE")), _LOOP_SRC,
              _LOOP_DST).map(lambda t: f"{t[0]} {t[1]}, {t[2]}"),
    st.tuples(st.sampled_from(["[A0+R3]"] + [f"[A0+{k}]" for k in range(8)]),
              _LOOP_DST).map(lambda t: f"MOVE {t[0]}, {t[1]}"),
    st.tuples(_LOOP_DST, st.integers(0, 7)).map(
        lambda t: f"MOVE {t[0]}, [A0+{t[1]}]"),
    st.sampled_from(("AND R2, #7, R3", "CYCLE R1")),
)
_LOOP_CASE = st.fixed_dictionaries({
    "trips": st.integers(1, 64),
    "body": st.lists(_LOOP_INSTR, min_size=1, max_size=6),
    "branch_in": st.booleans(),
    "memory": st.lists(st.sampled_from(_LOOP_WORDS), min_size=8, max_size=8),
    "registers": st.tuples(*(st.tuples(st.just(name), st.sampled_from(
        _LOOP_WORDS)) for name in ("R0", "R1", "A1"))),
})

#: Deadlines tried per case: up to the end of the third steady-state
#: iteration, capped so the tier-1 run stays short.
_LOOP_DEADLINES = 160


def _render_loop(case):
    lines = ["start:", f"    MOVE #{case['trips']}, R2", "    AND R2, #7, R3"]
    if case["branch_in"]:    # else the first iteration is the start block's
        lines.append("    BR loop")
    lines.append("loop:")
    lines += [f"    {line}" for line in case["body"]]
    lines += ["    SUB R2, #1, R2", "    BT R2, loop", "    HALT"]
    return "\n".join(lines) + "\n"


def _run_to_end(proc, regs, base, now, deadline=None):
    """Tick to the halt, or to ``deadline``; the state reached, or the
    exception with the state it left (virtual time aside: a raising
    block does not return it)."""
    try:
        while not proc.halted and (deadline is None or now < deadline):
            now = proc.tick(now, deadline=deadline)
    except Exception as exc:  # faults the fast path must raise too
        return (type(exc), str(exc)) + _cf_state(proc, regs, base, now)[1:]
    return _cf_state(proc, regs, base, now)


def _check_loop(case):
    program = assemble(_render_loop(case))
    loop = program.entry("loop")

    def fresh(fast):
        return _cf_proc(program, fast, case["memory"], case["registers"])

    proc, regs, base = fresh(False)
    now, trace = 0, [_cf_state(proc, regs, base, 0)]
    try:
        while not proc.halted:
            now = proc.tick(now)
            if trace[-1][0] < _LOOP_DEADLINES:  # states a deadline can cut at
                trace.append(_cf_state(proc, regs, base, now))
        final = _cf_state(proc, regs, base, now)
    except Exception as exc:
        # The instruction that raised started at ``now``.
        final = (type(exc), str(exc)) + _cf_state(proc, regs, base, now)[1:]
    entries = [state[0] for state in trace if state[1] == loop]
    steady_end = entries[4 if case["branch_in"] else 5:] or [trace[-1][0]]
    last = min(steady_end[0], _LOOP_DEADLINES)
    # Everything the reference ran started before this: a compiled loop
    # that does not stop is cut here and fails, rather than hanging.
    limit = now + 1
    for deadline in range(1, last + 1):
        proc, regs, base = fresh(True)
        reached = _run_to_end(proc, regs, base, 0, deadline)
        if len(reached) == len(final) + 1:  # raised before the deadline
            assert reached == final, deadline
            continue
        expected = next(state for state in trace if state[0] >= deadline)
        assert reached == expected, deadline
        assert _run_to_end(proc, regs, base, reached[0], limit) == final, \
            deadline


def _loop_case(trips, body, r0=Word.from_int(5)):
    return {"trips": trips, "body": body, "branch_in": True,
            "memory": [Word.from_int(3 * i - 5) for i in range(8)],
            "registers": (("R0", r0), ("R1", Word.from_int(2)),
                          ("A1", Word.from_int(0)))}


# Each case below fails under one hand mutation of the generator, named
# in its comment, that random cases reach only now and then.
#: No register store on the fault path: DIV by R3 = R2 & 7 faults in
#: the fifth iteration of a static body, with R0, R1 and R3 dirty.
_DIVISOR_REACHES_ZERO = _loop_case(
    12, ["AND R2, #7, R3", "ADD R0, R2, R0", "DIV R0, R3, R1"])
#: The same through memory (a metered body): the word read at [A0+R3]
#: is an ADDR in the third iteration, and ADD faults on it.  Also no
#: store at a metered loop's back edge: R2 is read stale and never ends.
_TAG_CHANGES_UNDER_THE_LOOP = dict(
    _loop_case(20, ["AND R2, #7, R3", "MOVE [A0+R3], R0", "ADD R0, R1, R1"]),
    memory=[Word.from_int(7)] * 2 + [Word.segment(9, 2)]
    + [Word.from_int(1)] * 5)
#: A stale tag at the back edge (the steady entry taken from the body's
#: back edge, not the join): R0 is a copied word after the first
#: iteration and a raw int after the second.
_COPY_THEN_RAW = _loop_case(6, ["MOVE R1, R0", "ADD R1, #1, R1"])
#: The steady deadline test off by one (``<=``): a cut at the start of
#: the branch must stop there.
_COUNT_DOWN = _loop_case(12, ["ADD R0, R2, R0"])
#: A BOOL boxed as an INT when the loop leaves.
_BOOL_OUT = _loop_case(5, ["LT R2, #3, R0"])
#: The wrap skipped: R0 passes 2**31 in the second iteration.
_OVERFLOW = _loop_case(6, ["ADD R0, #1073741829, R0", "LT R0, #0, R1"],
                       r0=Word.from_int(0))


@settings(max_examples=100, deadline=None)
@given(_LOOP_CASE)
@example(_DIVISOR_REACHES_ZERO)
@example(_TAG_CHANGES_UNDER_THE_LOOP)
@example(_COPY_THEN_RAW)
@example(_COUNT_DOWN)
@example(_BOOL_OUT)
@example(_OVERFLOW)
def test_promoted_loops_identical_at_every_deadline(case):
    """Loops of up to 64 trips, values across the interned-int and
    32-bit bounds, tags that change under the loop, a divisor that
    reaches zero: cut at every cycle of the first three steady-state
    iterations, a compiled loop leaves what stepping leaves, and
    resumed it finishes (or faults) where stepping does."""
    _check_loop(case)


@pytest.mark.slow
@settings(max_examples=3000, deadline=None)
@given(_LOOP_CASE)
def test_promoted_loops_identical_at_every_deadline_long(case):
    _check_loop(case)


# ---------------------------------------------------- counted loops in O(1)
#
# A static loop whose body is affine — induction variables, accumulators,
# a compare only the back edge reads — jumps its steady body over every
# iteration the exit and the deadline allow (``_Generator.jump`` in
# repro.core.codegen).  R2 counts by a step from an immediate or A1, R1
# holds the compare of R2 with a bound from an immediate or A2, R0 sums
# R2 (a triangular sum) and R3 is a second accumulator or induction
# variable.  Start values near +-2**31 make the counter wrap inside the
# loop, where the jump must refuse; big steps make the accumulators wrap.

_JUMP_STEPS = st.one_of(st.integers(1, 5), st.sampled_from(
    (1000, 2**20, 2**30 + 5)))
_JUMP_BOUNDS = st.one_of(st.integers(-50, 50), st.sampled_from(
    (2**31 - 1, 2**31 - 4, -(2**31), -(2**31) + 3)))
_TAKEN = {"LT": int.__lt__, "LE": int.__le__, "GT": int.__gt__,
          "GE": int.__ge__, "NE": int.__ne__, "EQ": int.__eq__}
_NOT = {"LT": "GE", "GE": "LT", "LE": "GT", "GT": "LE", "EQ": "NE",
        "NE": "EQ"}


def _wrap(value):
    return ((value + 2**31) & (2**32 - 1)) - 2**31


def _jump_trips(value, step, bound, taken, cap, compare_first):
    """The loop's trips, stepped in Python with ``Word``'s wrap; None
    past ``cap``."""
    for trip in range(1, cap + 1):
        before, value = value, _wrap(value + step)
        if not _TAKEN[taken](before if compare_first else value, bound):
            return trip
    return None


@st.composite
def _jump_cases(draw, cap=10_000):
    """A loop that ends within ``cap`` trips: its lines, back edge and
    registers; A1 holds the step, A3 its negation, A2 the bound."""
    test = draw(st.sampled_from(("LT", "LE", "GT", "GE", "NE", "R2")))
    branch = draw(st.sampled_from(("BT", "BF")))
    bound = 0 if test == "R2" else draw(_JUMP_BOUNDS)
    taken = "NE" if test == "R2" else test
    taken = taken if branch == "BT" else _NOT[taken]
    step = draw(_JUMP_STEPS)
    if taken in ("GT", "GE") or taken in ("NE", "EQ") and draw(st.booleans()):
        step = -step  # toward the exit
    trips = draw(st.integers(1, cap))
    slack = 0 if taken == "NE" else draw(st.integers(-abs(step), abs(step)))
    update = draw(st.sampled_from((f"ADD R2, #{step}, R2",
                                   f"SUB R2, #{-step}, R2",
                                   "ADD R2, A1, R2", "SUB R2, A3, R2")))
    lines = [update] + draw(st.lists(st.sampled_from((
        "ADD R0, R2, R0", "SUB R0, R2, R0", "SUB R3, #1073741829, R3",
        "ADD R3, A1, R3", "ADD R3, R2, R3", "NOP")), max_size=2,
        unique_by=lambda line: line[4:6]))
    compare = None
    if test != "R2":
        operand = draw(st.sampled_from((f"#{bound}", "A2")))
        compare = f"{test} R2, {operand}, R1"
        lines.append(compare)
    lines = draw(st.permutations(lines))
    start = _wrap(bound - trips * step + slack)
    assume(_jump_trips(start, step, bound, taken, cap, compare is not None
                       and lines.index(compare) < lines.index(update)))
    return _jump_case(lines, f"{branch} {'R1' if compare else 'R2'}",
                      R2=start, A1=step, A2=bound, A3=-step,
                      R0=draw(st.sampled_from((0, 7, 2**31 - 1))),
                      R3=draw(st.sampled_from((0, -5, -(2**31) + 9))))


def _jump_case(lines, branch, **registers):
    return {"lines": list(lines), "branch": branch, "registers": registers}


def _render_jump(case):
    return "\n".join(["start:", "loop:"] + [
        f"    {line}" for line in case["lines"] + [f"{case['branch']}, loop",
                                                  "HALT"]]) + "\n"


#: Past every drawn loop's exit: a compiled run cut here has not stopped.
_JUMP_BOUND = 1_000_000


def _check_jump(case):
    """Cut at every cycle of the first three iterations and of the last
    two before the exit, the compiled loop leaves what stepping leaves,
    and resumed it ends where stepping does."""
    program = assemble(_render_jump(case))
    loop = program.entry("loop")
    registers = [(name, Word.from_int(value))
                 for name, value in case["registers"].items()]

    def fresh(fast):
        return _cf_proc(program, fast, registers=registers)

    proc, regs, base = fresh(True)
    end = _run_to_end(proc, regs, base, 0, _JUMP_BOUND)
    # Stepping keeps the states a cut can land on: up to the fourth
    # entry to the loop, and from a few iterations before the end.
    width = 4 * (len(case["lines"]) + 4)
    proc, regs, base = fresh(False)
    now, entries, trace = 0, [], [_cf_state(proc, regs, base, 0)]
    while not proc.halted:
        now = proc.tick(now)
        if len(entries) < 4 or now >= end[0] - width:
            trace.append(_cf_state(proc, regs, base, now))
        if regs.ip == loop:
            entries.append(now)
    final = _cf_state(proc, regs, base, now)
    assert end == final
    period = entries[1] - entries[0] if len(entries) > 1 else 1
    deadlines = set(range(1, min(entries[3:4] or [now]) + 1)) | set(
        range(max(1, now - 2 * period - 1), now + 1))
    for deadline in sorted(deadlines):
        proc, regs, base = fresh(True)
        reached = _run_to_end(proc, regs, base, 0, deadline)
        assert reached == next(
            state for state in trace if state[0] >= deadline), deadline
        assert _run_to_end(proc, regs, base, reached[0], now + 1) == final, \
            deadline


# Each case below fails under one hand mutation of the jump, named in
# its comment.
#: ``k`` one past the iterations the steady test admits at the
#: deadline: the jump runs an iteration whose branch the cut stops.
_JUMP_PAST_THE_CUT = _jump_case(["ADD R2, #-1, R2", "GT R2, #0, R1"],
                                "BT R1", R2=40)
#: ``k`` one too many at the exit (the solver counting the first
#: iteration that falls through): the triangular sum of ``mdp_loop``.
_JUMP_PAST_THE_EXIT = _jump_case(["ADD R0, R2, R0", "SUB R2, #1, R2"],
                                 "BT R2", R2=30, R0=0)
#: No wrap after the jump: the compare reads the counter's start value,
#: which leaves the jump at 2**31 and must be -2**31 when compared.
_JUMP_UNWRAPPED = _jump_case(["GE R2, #0, R1", "ADD R2, #1, R2"],
                             "BT R1", R2=2**31 - 5)
#: No range test on a compared counter: counting up past 2**31 ends
#: the loop, which in unbounded integers never ends.
_JUMP_ACROSS_2_31 = _jump_case(["ADD R2, A1, R2", "ADD R0, R2, R0",
                                "GT R2, #-7, R1"], "BT R1",
                               R2=2**31 - 300, A1=7, R0=5)
#: ``cc`` not advanced by the jumped iterations.
_JUMP_UNCHARGED = _jump_case(["SUB R3, #1073741829, R3", "SUB R2, A3, R2",
                              "GT R2, A2, R1"], "BF R1",
                             R2=-90, A2=12, A3=-3, R3=0)


@settings(max_examples=60, deadline=None)
@given(_jump_cases())
@example(_JUMP_PAST_THE_CUT)
@example(_JUMP_PAST_THE_EXIT)
@example(_JUMP_UNWRAPPED)
@example(_JUMP_ACROSS_2_31)
@example(_JUMP_UNCHARGED)
def test_counted_loops_jump_exactly(case):
    """Affine loops of up to 10**4 trips — steps of both signs from
    immediates and invariant registers, LT/LE/GT/GE/NE compares and the
    counter itself under BT and BF, triangular and wrapping accumulators,
    counters that wrap — leave at every deadline near the jump's start
    and near the exit what stepping leaves."""
    _check_jump(case)


@pytest.mark.slow
@settings(max_examples=1000, deadline=None)
@given(_jump_cases())
def test_counted_loops_jump_exactly_long(case):
    _check_jump(case)


_COUNT_AND_REPORT = assemble("""
count:                          ; [IP:count, n, peer]: sum n..1, send it
    MOVE  [A3+1], R2
    MOVE  #0, R0
loop:
    ADD   R0, R2, R0
    SUB   R2, #1, R2
    GT    R2, #0, R1
    BT    R1, loop
    SEND  [A3+2]
    SEND2E #IP:report, R0
    SUSPEND
report:                         ; [IP:report, sum]
    MOVE  [A3+1], [A0+0]
    SUSPEND
""")


def test_jumped_loops_under_a_stop_with_events():
    """Two nodes run jumpable loops of different lengths and report to
    each other under a stop condition with an event bus attached (every
    block cut at the next peer): the same state and the same stream."""
    from repro.telemetry import Telemetry

    def run(fast):
        telemetry = Telemetry()
        machine = JMachine(MachineConfig(dims=(2, 1, 1), fast_path=fast),
                           telemetry=telemetry)
        machine.load(_COUNT_AND_REPORT)
        base = _COUNT_AND_REPORT.end + 4
        for node in machine.nodes:
            node.proc.registers[Priority.P0].write("A0", Word.segment(base, 2))
        entry = _COUNT_AND_REPORT.entry("count")
        for node, trips in ((0, 3000), (1, 1700)):
            machine.inject(node, entry, [Word.from_int(trips),
                                         Word.from_int(1 - node)])
        returned = machine.run(until=StopFlags([(1, base, 3000 * 3001 // 2)]))
        return (machine_state(machine, returned),
                telemetry.events.fingerprint())

    (fast_state, fast_events), (slow_state, slow_events) = _both(run)
    assert_same_state(fast_state, slow_state)
    assert fast_events == slow_events
