"""Host-performance benchmarks of the simulators themselves.

Not a paper artifact: these measure how fast *this library* simulates,
so regressions in simulator throughput (simulated instructions or events
per host second) are caught like any other regression.

Run via ``make perfsmoke``, which writes ``BENCH_simspeed.json``; compare
against the committed baseline to spot throughput regressions (see
docs/PERFORMANCE.md).  The ``slow_reference`` variants pin the cycle
level to the single-step interpreter so the fast-path speedup itself is
visible in the report.
"""

import pytest

from repro.asm.assembler import assemble
from repro.core.processor import Mdp
from repro.jsim.sim import MacroSimulator
from repro.machine.config import MachineConfig
from repro.machine.jmachine import JMachine

LOOP = """
start:
    MOVE #1000, R1
loop:
    ADD R0, R1, R0
    SUB R1, #1, R1
    BT R1, loop
    HALT
"""

# A 16-node token ring exercised at the cycle level: each node decrements
# a hop counter held in its data segment, forwards the token to its
# +1 neighbour, and suspends.  Eight tokens circulate concurrently so the
# fabric stays loaded (send buffers, worm routing, delivery staging all
# on the hot path).
RING_NODES = 16
RING_HOPS = 300
RING_TOKENS = 8

RING = f"""
relay:
    MOVE  [A3+1], R1
    BF    R1, done
    SUB   R1, #1, R1
    MOVEID R2
    ADD   R2, #1, R2
    MOD   R2, #{RING_NODES}, R2
    SEND  R2
    SEND2E #IP:relay, R1
done:
    SUSPEND
"""


def run_cycle_loop(fast_path=True):
    proc = Mdp(node_id=0, fast_path=fast_path)
    program = assemble(LOOP)
    program.load(proc)
    proc.set_background(program.entry("start"))
    now = 0
    while not proc.halted:
        now = proc.tick(now)
    return proc.counters.instructions


def run_loaded_fabric(fast_path=True, telemetry=False, hops=RING_HOPS,
                      sampler=False, probe=False):
    from repro.core.word import Word

    rig = None
    if telemetry:
        from repro.telemetry import Telemetry

        rig = Telemetry(events=False)  # the metrics-only production mode
    machine = JMachine(MachineConfig(dims=(4, 4, 1), fast_path=fast_path,
                                     fabric_probe=probe),
                       telemetry=rig)
    if sampler:
        from repro.telemetry.live import LiveSampler, SamplePolicy

        # ~10 frames over the full ring (~20k cycles/frame): live
        # monitoring at a dashboard-like cadence, not a stress test.
        LiveSampler(SamplePolicy(every_cycles=20_000)).attach(machine)
    program = assemble(RING)
    machine.load(program)
    entry = program.entry("relay")
    for token in range(RING_TOKENS):
        machine.inject(token % RING_NODES, entry,
                       [Word.from_int(hops)])
    machine.run_until_quiescent(max_cycles=10_000_000)
    return machine.total_instructions()


def run_macro_relay():
    sim = MacroSimulator(16)

    def relay(ctx, remaining):
        ctx.charge(instructions=10)
        if remaining:
            ctx.send((ctx.node_id + 1) % 16, "relay", remaining - 1)

    sim.register("relay", relay)
    sim.inject(0, "relay", 2000)
    sim.run()
    return sim.messages_sent


def run_macro_radix():
    from repro.apps.radix_sort import RadixParams, run_parallel

    params = RadixParams(n_keys=4096, key_bits=16, digit_bits=4, seed=11)
    result = run_parallel(n_nodes=64, params=params)
    return result.n_nodes


def run_machine_ping():
    from repro.runtime.rpc import run_ping
    machine = JMachine(MachineConfig(dims=(4, 4, 4)))
    return run_ping(machine, 0, 63, iterations=25).iterations


def test_cycle_simulator_throughput(benchmark):
    instructions = benchmark(run_cycle_loop)
    assert instructions == 3002


def test_cycle_simulator_slow_reference(benchmark):
    instructions = benchmark(run_cycle_loop, fast_path=False)
    assert instructions == 3002


def _gc_settle():
    # The fabric pair feeds a ±3% overhead gate; collect before each
    # round so a GC threshold crossed mid-measurement doesn't land its
    # pause in one variant and not the other.
    import gc

    gc.collect()


def test_loaded_fabric_throughput(benchmark):
    instructions = benchmark.pedantic(run_loaded_fabric, rounds=3,
                                      iterations=1, setup=_gc_settle)
    assert instructions == RING_TOKENS * (RING_HOPS * 9 + 3)


def test_loaded_fabric_metrics_only(benchmark):
    """The instrumented-vs-off pair for the telemetry-overhead gate.

    Metrics registration is pull-based (sampled only at snapshot), so
    this must track ``test_loaded_fabric_throughput`` to within 3% —
    ``make telemetry-gate`` checks, and fails the build otherwise.

    Comparing this entry's timing against the other test's is too noisy
    for a 3% limit on a shared host (the two run ~10 s apart; host
    drift between them has measured up to ±10% on the CI container), so
    this test *also* measures the pair interleaved — off/on back to
    back, so drift hits both variants equally — and stores the paired
    minima in ``extra_info``, which ``check_telemetry_overhead.py``
    prefers over the cross-entry comparison.
    """
    import gc
    import time

    instructions = benchmark.pedantic(run_loaded_fabric, rounds=3,
                                      iterations=1, setup=_gc_settle,
                                      kwargs={"telemetry": True})
    assert instructions == RING_TOKENS * (RING_HOPS * 9 + 3)

    def timed(**kwargs):
        gc.collect()
        start = time.perf_counter()
        run_loaded_fabric(hops=100, **kwargs)
        return time.perf_counter() - start

    # A shorter ring (~40 ms) lets many pairs fit: with the host's
    # occasional ~10 ms steal spikes, the minimum over 15 pairs of each
    # variant is very likely a spike-free run, and the two minima come
    # from the same interleaved window so drift cannot separate them.
    off, on = [], []
    for rep in range(15):
        # Alternate which variant goes first so a systematic
        # second-position effect (warmer caches, grown heap) cancels
        # across pairs instead of biasing one variant.
        if rep % 2:
            on.append(timed(telemetry=True))
            off.append(timed())
        else:
            off.append(timed())
            on.append(timed(telemetry=True))
    benchmark.extra_info["paired_overhead"] = min(on) / min(off) - 1.0


def test_loaded_fabric_sampler(benchmark):
    """The sampler-attached variant of the overhead pair.

    A live sampler polls ``due()`` at the loop top (one integer compare)
    and takes a registry snapshot only when a frame is due, so a sampled
    run must hold the same 3%+noise contract as metrics-only telemetry.
    Measured paired-interleaved for the same drift-immunity reasons as
    ``test_loaded_fabric_metrics_only``; ``check_telemetry_overhead.py``
    reads the ``paired_overhead`` stored here.
    """
    import gc
    import time

    instructions = benchmark.pedantic(
        run_loaded_fabric, rounds=3, iterations=1, setup=_gc_settle,
        kwargs={"telemetry": True, "sampler": True})
    assert instructions == RING_TOKENS * (RING_HOPS * 9 + 3)

    def timed(**kwargs):
        gc.collect()
        start = time.perf_counter()
        run_loaded_fabric(hops=100, **kwargs)
        return time.perf_counter() - start

    off, on = [], []
    for rep in range(15):
        if rep % 2:
            on.append(timed(telemetry=True, sampler=True))
            off.append(timed())
        else:
            off.append(timed())
            on.append(timed(telemetry=True, sampler=True))
    benchmark.extra_info["paired_overhead"] = min(on) / min(off) - 1.0


def test_loaded_fabric_probe(benchmark):
    """The fabric-observatory variant of the overhead pair.

    A probed fabric counts per-link phits at message completion and
    blocked-at-head cycles at head acquisition — per-message-rate sites,
    not per-cycle ones — so it must hold the same 3%+noise contract as
    the other telemetry variants.  Measured paired-interleaved; the
    overhead gate reads the ``paired_overhead`` stored here.
    """
    import gc
    import time

    instructions = benchmark.pedantic(
        run_loaded_fabric, rounds=3, iterations=1, setup=_gc_settle,
        kwargs={"telemetry": True, "probe": True})
    assert instructions == RING_TOKENS * (RING_HOPS * 9 + 3)

    def timed(**kwargs):
        gc.collect()
        start = time.perf_counter()
        run_loaded_fabric(hops=100, **kwargs)
        return time.perf_counter() - start

    off, on = [], []
    for rep in range(15):
        if rep % 2:
            on.append(timed(telemetry=True, probe=True))
            off.append(timed())
        else:
            off.append(timed())
            on.append(timed(telemetry=True, probe=True))
    benchmark.extra_info["paired_overhead"] = min(on) / min(off) - 1.0


def test_macro_simulator_throughput(benchmark):
    messages = benchmark(run_macro_relay)
    assert messages == 2001


def test_macro_radix_throughput(benchmark):
    nodes = benchmark.pedantic(run_macro_radix, rounds=3, iterations=1)
    assert nodes == 64


def test_whole_machine_throughput(benchmark):
    iterations = benchmark.pedantic(run_machine_ping, rounds=3, iterations=1)
    assert iterations == 25
