"""Cross-validation: the two simulation levels agree on shared workloads.

DESIGN.md's central substitution claim is that the event-level macro
simulator re-expresses the cycle level's cost model faithfully.  These
tests run the *same* communication patterns on both simulators and check
the timings agree to within a modest factor — if someone retunes one
level's constants without the other, this suite fails.
"""

import pytest

from repro.asm import assemble
from repro.core import Priority, Word
from repro.core.costs import DEFAULT_COSTS
from repro.jsim import MacroConfig, MacroSimulator
from repro.machine import JMachine, MachineConfig


def cycle_level_relay(n_nodes: int, hops: int, costs=DEFAULT_COSTS) -> int:
    """A token relayed ``hops`` times around a ring of MDPs (assembly)."""
    machine = JMachine(MachineConfig(dims=(n_nodes, 1, 1), costs=costs))
    program = assemble(f"""
    .equ LAST, {n_nodes - 1}
    relay:
        MOVE  [A3+1], R0         ; hops left
        BF    R0, relay_done
        SUB   R0, #1, R0
        MOVEID R1
        EQ    R1, #LAST, R2      ; successor with wraparound
        BT    R2, wrap
        ADD   R1, #1, R1
        BR    send_it
    wrap:
        MOVE  #0, R1
    send_it:
        SEND  R1
        SEND2E #IP:relay, R0
        SUSPEND
    relay_done:
        MOVE  #1, [A0+0]
        SUSPEND
    """)
    machine.load(program)
    base = program.end + 4
    for node in machine.nodes:
        node.proc.registers[Priority.P0].write("A0", Word.segment(base, 4))
    machine.inject(0, program.entry("relay"), [Word.from_int(hops)])
    machine.run(max_cycles=1_000_000)
    finisher = machine.node(hops % n_nodes).proc
    assert finisher.memory.peek(base).value == 1
    return machine.now


def macro_level_relay(n_nodes: int, hops: int, costs=DEFAULT_COSTS) -> int:
    """The same relay expressed as jsim handlers with matching work."""
    sim = MacroSimulator(n_nodes, config=MacroConfig(costs=costs))

    def relay(ctx, remaining):
        # The assembly handler executes ~8 instructions of control.
        ctx.charge(instructions=8)
        if remaining:
            ctx.send((ctx.node_id + 1) % n_nodes, "relay", remaining - 1,
                     length=3)

    sim.register("relay", relay)
    sim.inject(0, "relay", hops)
    return sim.run()


class TestRelayAgreement:
    @pytest.mark.parametrize("hops", [8, 40, 120])
    def test_per_hop_cost_agrees(self, hops):
        cycle = cycle_level_relay(8, hops)
        macro = macro_level_relay(8, hops)
        per_hop_cycle = cycle / hops
        per_hop_macro = macro / hops
        # The two levels are independent implementations; agreement to
        # ~40% per hop means the shared cost model is intact.
        assert per_hop_macro == pytest.approx(per_hop_cycle, rel=0.4)

    def test_both_scale_linearly_in_hops(self):
        short_c = cycle_level_relay(8, 20)
        long_c = cycle_level_relay(8, 80)
        short_m = macro_level_relay(8, 20)
        long_m = macro_level_relay(8, 80)
        assert long_c / short_c == pytest.approx(4.0, rel=0.2)
        assert long_m / short_m == pytest.approx(4.0, rel=0.2)

    @pytest.mark.parametrize("relay", [cycle_level_relay, macro_level_relay],
                             ids=["cycle", "macro"])
    def test_one_dispatch_override_retimes_each_level(self, relay):
        """Both levels read ``dispatch`` from the one CostModel, so raising
        it by delta raises the per-hop time by about delta (one dispatch a
        hop; the cycle level measured 30.8 -> 47.0 for delta = 16)."""
        hops, delta = 40, 16
        slow = DEFAULT_COSTS.with_overrides(
            dispatch=DEFAULT_COSTS.dispatch + delta)
        base = relay(8, hops) / hops
        assert relay(8, hops, slow) / hops - base == pytest.approx(
            delta, rel=0.1)


class TestNetworkModelAgreement:
    """The macro level's analytic latency tracks the flit simulator."""

    @pytest.mark.parametrize("src,dst,length", [
        (0, 1, 2), (0, 21, 4), (0, 63, 8), (5, 40, 16),
    ])
    def test_unloaded_latency_within_30_percent(self, src, dst, length):
        from repro.core.message import Message
        from repro.core.word import Word
        from repro.jsim.netmodel import LatencyModel
        from repro.network.fabric import Fabric
        from repro.network.topology import Mesh3D

        arrivals = {}
        fabric = Fabric(Mesh3D(4, 4, 4), lambda n, m: True,
                        lambda n, m, t: arrivals.setdefault("t", t))
        words = [Word.ip(1)] + [Word.from_int(0)] * (length - 1)
        fabric.send(Message(words, source=src, dest=dst), 0)
        now = 0
        while fabric.active and now < 10_000:
            fabric.step(now)
            now += 1
        flit_latency = arrivals["t"]

        model = LatencyModel(Mesh3D(4, 4, 4))
        predicted = model.latency(src, dst, length, now=0)
        assert predicted == pytest.approx(flit_latency, rel=0.3)


class TestPingAgreement:
    def test_macro_round_trip_matches_cycle_ping(self):
        """A request/reply pair costs about the same at both levels."""
        from repro.runtime import run_ping

        machine = JMachine(MachineConfig(dims=(8, 1, 1)))
        cycle_rtt = run_ping(machine, 0, 1, iterations=20).round_trip_cycles

        sim = MacroSimulator(8)
        times = {}

        def request(ctx):
            times["start"] = ctx.now
            ctx.charge(instructions=4)
            ctx.send(1, "respond", length=2)

        def respond(ctx):
            ctx.charge(instructions=2)
            ctx.send(0, "finish", length=1)

        def finish(ctx):
            ctx.charge(instructions=2)
            times["end"] = ctx.now

        sim.register("request", request)
        sim.register("respond", respond)
        sim.register("finish", finish)
        sim.inject(0, "request")
        sim.run()
        macro_rtt = times["end"] - times["start"]
        assert macro_rtt == pytest.approx(cycle_rtt, rel=0.4)
