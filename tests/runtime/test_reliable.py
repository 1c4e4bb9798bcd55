"""End-to-end recovery: the reliable transport."""

import pytest

from repro.chaos import ChaosEngine, FaultPlan, FaultSpec
from repro.core.errors import ConfigurationError, DeliveryError
from repro.jsim.sim import MacroSimulator
from repro.runtime.rpc import ReliableLayer
from repro.telemetry import Telemetry


def _sim(n=4, telemetry=None):
    sim = MacroSimulator(n, telemetry=telemetry)

    def record(ctx, value):
        ctx.charge(2)
        ctx.state.setdefault("got", []).append(value)

    sim.register("record", record)
    return sim


def _lossy(sim, rate, seed=1):
    return ChaosEngine(FaultPlan(seed=seed, specs=(
        FaultSpec(kind="drop", rate=rate),
    ))).attach_macro(sim)


class TestDelivery:
    def test_clean_network_delivers_once(self):
        sim = _sim()
        layer = ReliableLayer(sim)
        sim.inject(0, "record", 7)
        sim.run()
        assert sim.nodes[0].state["got"] == [7]
        assert layer.stats()["retries"] == 0
        assert layer.stats()["acked"] == 1
        assert layer.in_flight == 0

    def test_lost_messages_are_retransmitted(self):
        sim = _sim()
        engine = _lossy(sim, 0.3, seed=7)
        layer = ReliableLayer(sim, timeout=1_000, max_retries=30)
        for value in range(20):
            sim.inject(value % 4, "record", value)
        sim.run()
        got = [v for node in sim.nodes for v in node.state.get("got", [])]
        assert sorted(got) == list(range(20))
        assert layer.retries > 0
        assert engine.counters["retries"] == layer.retries
        assert layer.in_flight == 0

    def test_exactly_once_under_heavy_loss(self):
        sim = _sim()
        _lossy(sim, 0.4, seed=3)
        ReliableLayer(sim, timeout=500, max_retries=40)
        for value in range(30):
            sim.inject(1, "record", value)
        sim.run()
        got = sim.nodes[1].state["got"]
        assert len(got) == len(set(got)) == 30

    def test_in_order_per_stream_despite_retransmission(self):
        """Retransmits arrive late; dispatch order must not reorder."""
        sim = _sim()
        _lossy(sim, 0.3, seed=9)
        ReliableLayer(sim, timeout=500, max_retries=40)
        # All from node 2 (sim.inject sources at the destination, so use
        # a forwarding handler to get a real single-source stream).

        def burst(ctx):
            for value in range(15):
                ctx.charge(1)
                ctx.send(3, "record", value)

        sim.register("burst", burst)
        sim.inject(2, "burst")
        sim.run()
        assert sim.nodes[3].state["got"] == list(range(15))

    def test_give_up_raises_delivery_error(self):
        sim = _sim()
        engine = _lossy(sim, 1.0)
        ReliableLayer(sim, timeout=100, max_retries=2)
        sim.inject(0, "record", 1)
        with pytest.raises(DeliveryError) as info:
            sim.run()
        assert info.value.attempts == 3
        assert engine.counters["give_ups"] == 1

    def test_control_traffic_is_not_wrapped(self):
        """Envelopes and acks must go out raw (no recursion, no growth)."""
        sim = _sim()
        layer = ReliableLayer(sim)
        sim.inject(0, "record", 1)
        sim.run()
        # One envelope + one ack on the wire; no nested envelopes.
        assert sim.messages_sent == 2
        assert layer.stats()["duplicates"] == 0

    def test_unknown_handler_still_rejected(self):
        sim = _sim()
        ReliableLayer(sim)
        with pytest.raises(Exception, match="no handler"):
            sim.inject(0, "nope")


class TestObservability:
    def test_retry_events_reach_telemetry(self):
        telemetry = Telemetry(events=True)
        sim = _sim(telemetry=telemetry)
        _lossy(sim, 0.4, seed=2)
        ReliableLayer(sim, timeout=500, max_retries=40)
        for value in range(10):
            sim.inject(0, "record", value)
        sim.run()
        retry_events = [e for e in telemetry.events.events if e[1] == "retry"]
        assert retry_events
        # Each retry event names the handler it is retrying.
        assert all(e[4] == "record" for e in retry_events)

    def test_validation(self):
        sim = _sim()
        with pytest.raises(ConfigurationError):
            ReliableLayer(sim, timeout=0)
        with pytest.raises(ConfigurationError):
            ReliableLayer(sim, backoff=0.5)
