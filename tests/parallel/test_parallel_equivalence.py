"""The parallel backend's determinism contract: bit-identical or serial.

``MachineConfig.parallel_shards >= 2`` runs eligible workloads on the
sharded conservative-epoch backend (:mod:`repro.parallel`).  The
contract these tests enforce: every observable — architectural state,
counters, fabric statistics, metric snapshots, chaos bookkeeping, and
the telemetry event stream up to reordering of same-cycle emissions
across nodes — matches the serial run loop exactly.  Runs the protocol
cannot reproduce must fall back to the serial loop (and still produce
the serial answer), never "close enough".
"""

import multiprocessing

import pytest

from repro.asm.assembler import assemble
from repro.chaos import ChaosEngine, DeadlockWatchdog, FaultPlan, FaultSpec
from repro.core.errors import DeadlockError
from repro.core.registers import Priority
from repro.core.word import Word
from repro.machine.config import MachineConfig
from repro.machine.jmachine import JMachine
from repro.machine.stop import StopFlags
from repro.parallel.machine import _event_sort_key
from repro.telemetry import Telemetry

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

# fan-out storm: each handler re-sends to two peers while ttl > 0, so
# traffic volume grows geometrically and queues see real pressure.
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

# delayed single send: spin `delay` cycles, then message the peer.
DELAYED = """
; A0+0 = delay, A0+1 = peer, A0+2 = landing pad
delayed:
    MOVE  [A0+0], R0
spin:
    ADD   R0, #-1, R0
    GT    R0, #0, R1
    BT    R1, spin
    SEND  [A0+1]
    SEND  #IP:land
    SENDE [A0+1]
    SUSPEND
land:
    MOVE  #1, [A0+2]
    SUSPEND
"""


def _latency(summary):
    return (summary.count, summary.total, summary.min, summary.max,
            tuple(summary.buckets))


def _fabric_digest(fabric):
    digest = {key: value for key, value in fabric.stats.__dict__.items()
              if key not in ("latency", "window_latency", "mesh")}
    digest["latency"] = _latency(fabric.stats.latency)
    digest["window_latency"] = _latency(fabric.stats.window_latency)
    digest["route_cache"] = (fabric.route_cache_hits,
                             fabric.route_cache_misses)
    digest["in_flight"] = fabric.worms_in_flight
    return digest


def _machine_digest(machine, mem_base=None, mem_words=8):
    regs = [
        [str(node.proc.registers[p].read(r))
         for p in (Priority.P0, Priority.P1)
         for r in ("R0", "R1", "R2", "A0", "A3")]
        for node in machine.nodes
    ]
    mem = None
    if mem_base is not None:
        mem = [[node.proc.memory.peek(mem_base + i).value
                for i in range(mem_words)] for node in machine.nodes]
    return {
        "now": machine.now,
        "counters": [dict(node.proc.counters.__dict__)
                     for node in machine.nodes],
        "registers": regs,
        "memory": mem,
        "fabric": _fabric_digest(machine.fabric),
        "deliveries": machine.deliveries_committed,
    }


def _telemetry_digest(telemetry):
    return {
        "metrics": telemetry.registry.snapshot(),
        # Same-cycle emissions from different nodes may interleave
        # differently across shards; the contract is equality of the
        # canonically sorted stream.
        "events": sorted(telemetry.events.events, key=_event_sort_key),
    }


def _chaos_digest(engine):
    return {
        "counters": dict(engine.counters),
        "log": [tuple(sorted(entry.items())) if isinstance(entry, dict)
                else entry for entry in engine.log],
        "summary": engine.summary(),
    }


def _load(machine, source, a0_words=4):
    program = assemble(source)
    machine.load(program)
    base = program.end + 4
    for node in machine.nodes:
        node.proc.registers[Priority.P0].write(
            "A0", Word.segment(base, a0_words))
    return program, base


def _echo_all(machine, program, n):
    for i in range(n):
        machine.inject(i, program.entry("echo"),
                       [Word.from_int((i + 3) % n), Word.from_int(100 + i)],
                       source=(i + 1) % n)
    machine.run(max_cycles=20_000)


# ----------------------------------------------------------- runtime apps


class TestRuntimeApps:
    def test_ping_quiescent_identical(self):
        """A real runtime app, serial vs 4 shards, cycle for cycle."""
        from repro.runtime.rpc import run_ping

        runs = []
        for shards in (0, 4):
            machine = JMachine(
                MachineConfig(dims=(4, 4, 1), parallel_shards=shards))
            result = run_ping(machine, 0, 15, iterations=5, stop="quiescent")
            runs.append((result.total_cycles, _machine_digest(machine)))
            if shards:
                assert machine._parallel_skip_reason is None
        assert runs[0] == runs[1]

    def test_ping_probed_reports_identical(self):
        """Fabric-observatory counters fold back exactly: a probed run
        under 4 shards produces a FabricReport *equal* to the serial
        one — same per-link phits, stalls, and queue histograms."""
        from repro.runtime.rpc import run_ping

        runs = []
        for shards in (0, 4):
            machine = JMachine(
                MachineConfig(dims=(4, 4, 1), parallel_shards=shards,
                              fabric_probe=True))
            run_ping(machine, 0, 15, iterations=5, stop="quiescent")
            runs.append(machine.fabric_report())
            if shards:
                assert machine._parallel_skip_reason is None
        assert runs[0] == runs[1]
        assert runs[0].messages > 0 and runs[0].links

    def test_reduction_quiescent_identical(self):
        from repro.runtime.reduce import run_reduction

        runs = []
        for shards in (0, 2):
            machine = JMachine(
                MachineConfig(dims=(2, 2, 2), parallel_shards=shards))
            result = run_reduction(machine, values=list(range(1, 9)),
                                   stop="quiescent")
            runs.append((result.total, result.cycles,
                         _machine_digest(machine)))
        assert runs[0] == runs[1]
        assert runs[0][0] == sum(range(1, 9))


# ----------------------------------------------------- cycle-level echoes


class TestEchoEquivalence:
    def _run(self, shards, telemetry=False, specs=(), seed=3):
        from repro.telemetry import Telemetry

        rig = Telemetry() if telemetry else None
        machine = JMachine(
            MachineConfig(dims=(4, 2, 1), parallel_shards=shards),
            telemetry=rig)
        program, base = _load(machine, ECHO)
        engine = None
        if specs:
            engine = ChaosEngine(FaultPlan(seed=seed, specs=tuple(specs)))
            engine.attach_machine(machine)
        _echo_all(machine, program, 8)
        digest = _machine_digest(machine, mem_base=base)
        if rig is not None:
            digest["telemetry"] = _telemetry_digest(rig)
        if engine is not None:
            digest["chaos"] = _chaos_digest(engine)
        return digest, machine

    def test_plain_identical(self):
        serial, _ = self._run(0)
        parallel, machine = self._run(2)
        assert machine._parallel_skip_reason is None
        assert serial == parallel

    def test_telemetry_identical(self):
        serial, _ = self._run(0, telemetry=True)
        parallel, machine = self._run(2, telemetry=True)
        assert machine._parallel_skip_reason is None
        assert serial == parallel

    @pytest.mark.parametrize("specs", [
        (FaultSpec(kind="kill", node=3, start=53),),
        (FaultSpec(kind="stall", node=2, start=30, duration=40),),
        (FaultSpec(kind="drop", rate=0.3),),
        (FaultSpec(kind="corrupt", rate=0.5),),
    ], ids=["kill-mid-epoch", "stall", "drop", "corrupt"])
    def test_chaos_identical(self, specs):
        """Fault injection stays deterministic across the backends,
        including a node killed mid-epoch (start=53 falls inside, not
        on, every epoch boundary: busy epochs are 5 cycles, idle 11)."""
        serial, _ = self._run(0, telemetry=True, specs=specs)
        parallel, machine = self._run(2, telemetry=True, specs=specs)
        assert machine._parallel_skip_reason is None
        assert serial == parallel


# ------------------------------------------------------- queue pressure


class TestStormEquivalence:
    def _run(self, shards, n=8, ttl=4, queue_words=None, spill=False):
        machine = JMachine(MachineConfig.for_nodes(
            n, parallel_shards=shards, queue_words=queue_words,
            queue_overflow_spills=spill))
        program, base = _load(machine, STORM)
        for i in range(n):
            machine.inject(i, program.entry("storm"),
                           [Word.from_int(ttl), Word.from_int((i * 7 + 1) % n),
                            Word.from_int((i * 3 + 5) % n)], source=i)
        machine.run(max_cycles=500_000)
        return _machine_digest(machine, mem_base=base, mem_words=1), machine

    def test_storm_identical(self):
        serial, _ = self._run(0)
        parallel, machine = self._run(4)
        assert machine._parallel_skip_reason is None
        assert serial == parallel

    def test_storm_spill_identical(self):
        serial, _ = self._run(0, spill=True, ttl=5)
        parallel, _ = self._run(4, spill=True, ttl=5)
        assert serial == parallel

    def test_ambiguous_backpressure_falls_back_serial_exact(self):
        """Tight queues make the parent's occupancy lower bound
        inconclusive mid-run; the attempt must be abandoned and the
        serial rerun must still produce the serial answer."""
        serial, _ = self._run(0, ttl=5, queue_words=24)
        parallel, machine = self._run(2, ttl=5, queue_words=24)
        assert machine._parallel_skip_reason is not None
        assert "ambiguous" in machine._parallel_skip_reason
        assert serial == parallel


# ------------------------------------------------------ epoch boundaries


class TestEpochBoundaries:
    """Sends landing on every phase of the epoch window.

    The conservative windows are 5 cycles (fabric busy) and 11 cycles
    (fabric idle); sweeping the send cycle across a 13-cycle range
    covers first/middle/last cycle of both window shapes, including a
    flit injected on the very last cycle of an epoch.
    """

    def _run(self, shards, delay):
        machine = JMachine(
            MachineConfig(dims=(4, 2, 1), parallel_shards=shards))
        program, base = _load(machine, DELAYED)
        n = machine.mesh.n_nodes
        for i, node in enumerate(machine.nodes):
            node.proc.memory.poke(base + 0, Word.from_int(delay + i % 3))
            node.proc.memory.poke(base + 1, Word.from_int((i + 1) % n))
        for i in range(n):
            machine.inject(i, program.entry("delayed"), source=i)
        machine.run(max_cycles=50_000)
        return _machine_digest(machine, mem_base=base, mem_words=3)

    @pytest.mark.parametrize("delay", list(range(1, 14)))
    def test_send_at_every_epoch_phase(self, delay):
        assert self._run(0, delay) == self._run(2, delay)


# ------------------------------------------------------------- watchdog


class TestWatchdogUnderParallel:
    def _wedged(self, shards):
        machine = JMachine(
            MachineConfig(dims=(4, 2, 1), parallel_shards=shards))
        program, _base = _load(machine, ECHO)
        ChaosEngine(FaultPlan(seed=1, specs=(
            FaultSpec(kind="link", node=0),
        ))).attach_machine(machine)
        machine.watchdog = DeadlockWatchdog(window=2_000)
        machine.inject(7, program.entry("echo"),
                       [Word.from_int(0), Word.from_int(1)], source=0)
        return machine

    def test_deadlock_surfaces_not_hangs(self):
        """The watchdog trips while workers sit blocked at the barrier;
        DeadlockError must reach the caller and the workers must be
        torn down, not leak or hang."""
        machine = self._wedged(2)
        with pytest.raises(DeadlockError) as info:
            machine.run(max_cycles=100_000)
        err = info.value
        assert err.worms_in_flight == 1
        assert err.snapshots
        # Detection latency: serial trips the first poll past the
        # window; the parallel backend polls at epoch barriers, so it
        # may lag by up to one epoch plus the poll interval.
        assert 2_000 <= err.now < 2_000 + machine.watchdog.interval + 11
        assert not multiprocessing.active_children()

    def test_trips_at_the_serial_cycle_through_the_shared_gauge(self):
        """Both backends feed one ProgressGauge their progress
        signature, so when their poll grids coincide they trip at the
        same cycle.  The grids coincide here: a link dies at cycle 10
        under all-to-all echo traffic, the fabric stays busy from cycle
        0 on, so the coordinator's barriers fall every 5 cycles
        (eject_latency) and the watchdog's interval is those 5."""
        tripped = []
        for shards in (0, 2):
            machine = JMachine(
                MachineConfig(dims=(4, 2, 1), parallel_shards=shards),
                telemetry=Telemetry())
            program, _base = _load(machine, ECHO)
            ChaosEngine(FaultPlan(seed=1, specs=(
                FaultSpec(kind="link", node=0, start=10),
            ))).attach_machine(machine)
            for i in range(8):
                machine.inject(
                    i, program.entry("echo"),
                    [Word.from_int((i + 3) % 8), Word.from_int(100 + i)],
                    source=(i + 1) % 8)
            machine.watchdog = DeadlockWatchdog(window=200, interval=5)
            with pytest.raises(DeadlockError) as info:
                machine.run(max_cycles=50_000)
            assert machine.parallel_skip_reason is None
            assert machine.watchdog.trips == 1
            events = [e[0] for e in machine.telemetry.events.events
                      if e[1] == "watchdog"]
            tripped.append((info.value.now, events,
                            machine.progress_signature()))
        assert tripped[0] == tripped[1]
        assert tripped[0][:2] == (251, [251])

    def test_healthy_run_under_watchdog_identical(self):
        digests = []
        for shards in (0, 2):
            machine = JMachine(
                MachineConfig(dims=(4, 2, 1), parallel_shards=shards))
            program, base = _load(machine, ECHO)
            machine.watchdog = DeadlockWatchdog(window=1_000)
            machine.inject(7, program.entry("echo"),
                           [Word.from_int(0), Word.from_int(42)], source=0)
            machine.run(max_cycles=100_000)
            assert machine.watchdog.trips == 0
            digests.append(_machine_digest(machine, mem_base=base))
        assert digests[0] == digests[1]


# -------------------------------------------------------- fallback paths


class TestFallback:
    def _echo_machine(self, **overrides):
        telemetry = overrides.pop("telemetry", None)
        machine = JMachine(
            MachineConfig(dims=(4, 2, 1), parallel_shards=2, **overrides),
            telemetry=telemetry)
        program, base = _load(machine, ECHO)
        return machine, program, base

    def _check_serial_answer(self, machine, program, base):
        machine.inject(7, program.entry("echo"),
                       [Word.from_int(0), Word.from_int(9)], source=0)
        machine.run(max_cycles=20_000)
        assert machine.node(0).proc.memory.peek(base).value == 9

    def test_return_to_sender_stays_serial(self):
        machine, program, base = self._echo_machine(
            flow_control="return_to_sender")
        self._check_serial_answer(machine, program, base)
        assert machine._parallel_skip_reason is not None

    def test_queue_chaos_stays_serial(self):
        machine, program, base = self._echo_machine()
        ChaosEngine(FaultPlan(seed=1, specs=(
            FaultSpec(kind="queue", node=0, words=8),
        ))).attach_machine(machine)
        self._check_serial_answer(machine, program, base)
        assert machine._parallel_skip_reason is not None

    def test_tracing_stays_serial(self):
        from repro.telemetry import Telemetry

        machine, program, base = self._echo_machine(
            telemetry=Telemetry(trace=True))
        self._check_serial_answer(machine, program, base)
        assert machine._parallel_skip_reason is not None

    def test_until_predicate_stays_serial(self):
        machine, program, base = self._echo_machine()
        machine.inject(7, program.entry("echo"),
                       [Word.from_int(0), Word.from_int(9)], source=0)
        machine.run(max_cycles=20_000, until=StopFlags([(0, base, 9)]))
        assert machine.node(0).proc.memory.peek(base).value == 9
        assert "stop condition" in machine.parallel_skip_reason

    def test_machine_reusable_after_parallel_run(self):
        """Back-to-back runs on one machine: the folded-back state must
        be a valid starting point for the next (parallel) run."""
        digests = []
        for shards in (0, 2):
            machine = JMachine(
                MachineConfig(dims=(4, 2, 1), parallel_shards=shards))
            program, base = _load(machine, ECHO)
            for round_ in range(3):
                _echo_all(machine, program, 8)
            digests.append(_machine_digest(machine, mem_base=base))
        assert digests[0] == digests[1]
