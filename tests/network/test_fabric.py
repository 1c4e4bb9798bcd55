"""Tests for the flit-level wormhole fabric."""

import pytest

from repro.core.message import Message
from repro.core.registers import Priority
from repro.core.word import Word
from repro.network.fabric import Fabric
from repro.network.topology import Mesh3D


class Sink:
    """Test harness: collects deliveries, optionally refusing some."""

    def __init__(self):
        self.delivered = []
        self.refuse = set()

    def accept(self, node, message):
        return node not in self.refuse

    def deliver(self, node, message, now):
        self.delivered.append((node, message, now))


def make_fabric(dims=(4, 4, 4)):
    sink = Sink()
    fabric = Fabric(Mesh3D(*dims), sink.accept, sink.deliver)
    return fabric, sink


def message(src, dst, length=2, priority=Priority.P0):
    words = [Word.ip(1)] + [Word.from_int(i) for i in range(length - 1)]
    return Message(words, source=src, dest=dst, priority=priority)


def run(fabric, start=0, limit=10_000):
    now = start
    while fabric.active and now < limit:
        fabric.step(now)
        now += 1
    return now


class TestDelivery:
    def test_single_message_arrives(self):
        fabric, sink = make_fabric()
        fabric.send(message(0, 63), 0)
        run(fabric)
        assert len(sink.delivered) == 1
        node, msg, at = sink.delivered[0]
        assert node == 63

    def test_self_message_arrives(self):
        fabric, sink = make_fabric()
        fabric.send(message(5, 5), 0)
        run(fabric)
        assert sink.delivered[0][0] == 5

    def test_latency_grows_with_distance(self):
        latencies = {}
        for dst in (1, 3, 63):
            fabric, sink = make_fabric()
            fabric.send(message(0, dst), 0)
            run(fabric)
            latencies[dst] = sink.delivered[0][2]
        assert latencies[1] < latencies[3] < latencies[63]

    def test_latency_grows_with_length(self):
        latencies = {}
        for length in (2, 8):
            fabric, sink = make_fabric()
            fabric.send(message(0, 63, length), 0)
            run(fabric)
            latencies[length] = sink.delivered[0][2]
        # Each extra word is 2 phits at 1 phit/cycle.
        assert latencies[8] == latencies[2] + 12

    def test_one_cycle_per_hop(self):
        fabric, sink = make_fabric((8, 1, 1))
        fabric.send(message(0, 1), 0)
        run(fabric)
        near = sink.delivered[0][2]
        fabric, sink = make_fabric((8, 1, 1))
        fabric.send(message(0, 7), 0)
        run(fabric)
        far = sink.delivered[0][2]
        assert far - near == 6

    def test_fifo_between_same_pair(self):
        fabric, sink = make_fabric()
        first = message(0, 10, 4)
        second = message(0, 10, 2)
        fabric.send(first, 0)
        fabric.send(second, 0)
        run(fabric)
        assert [m for _, m, _ in sink.delivered] == [first, second]

    def test_stats_count_completions(self):
        fabric, sink = make_fabric()
        for dst in (1, 2, 3):
            fabric.send(message(0, dst), 0)
        run(fabric)
        assert fabric.stats.completed == 3
        assert fabric.stats.submitted == 3


class TestBackpressure:
    def test_refused_delivery_stalls_worm(self):
        fabric, sink = make_fabric()
        sink.refuse.add(9)
        fabric.send(message(0, 9), 0)
        for now in range(200):
            fabric.step(now)
        assert not sink.delivered
        assert fabric.active
        assert fabric.stats.delivery_stall_cycles > 0

    def test_release_after_acceptance(self):
        fabric, sink = make_fabric()
        sink.refuse.add(9)
        fabric.send(message(0, 9), 0)
        for now in range(100):
            fabric.step(now)
        sink.refuse.clear()
        run(fabric, start=100)
        assert len(sink.delivered) == 1

    def test_blocked_worm_blocks_channel_sharers(self):
        """A stalled worm holds its channels; a second worm needing them
        waits (wormhole blocking)."""
        fabric, sink = make_fabric((8, 1, 1))
        sink.refuse.add(7)
        fabric.send(message(0, 7, 2), 0)       # will stall at node 7
        fabric.send(message(0, 6, 2), 0)       # same channels, must wait
        for now in range(300):
            fabric.step(now)
        assert not sink.delivered  # both stuck
        sink.refuse.clear()
        run(fabric, start=300)
        assert [d[0] for d in sink.delivered] == [7, 6]


class TestPriorities:
    def test_p1_has_own_virtual_channels(self):
        """A blocked P0 worm does not block a P1 worm on the same links."""
        fabric, sink = make_fabric((8, 1, 1))
        sink.refuse.add(7)
        fabric.send(message(0, 7, 2, Priority.P0), 0)
        fabric.send(message(0, 6, 2, Priority.P1), 0)
        for now in range(300):
            fabric.step(now)
            if sink.delivered:
                break
        assert sink.delivered and sink.delivered[0][0] == 6

    def test_injection_serializes_per_priority(self):
        fabric, sink = make_fabric()
        fabric.send(message(0, 1, 16), 0)
        fabric.send(message(0, 2, 2), 0)
        run(fabric)
        # The short second message cannot overtake the long first one.
        assert sink.delivered[0][0] == 1


class TestCallbacks:
    def test_on_injected_fires_once_per_message(self):
        fabric, sink = make_fabric()
        injected = []
        fabric.on_injected = injected.append
        fabric.send(message(0, 5, 4), 0)
        fabric.send(message(0, 6, 2), 0)
        run(fabric)
        assert len(injected) == 2

    def test_drain_returns_finish_time(self):
        fabric, sink = make_fabric()
        fabric.send(message(0, 1), 0)
        end = fabric.drain(0)
        assert not fabric.active
        assert end >= sink.delivered[0][2] - fabric.eject_latency


class TestWindowStats:
    def test_bisection_counting(self):
        fabric, sink = make_fabric((4, 4, 4))
        fabric.stats.open_window(0)
        crossing = message(0, 3, 4)        # x: 0 -> 3 crosses midplane
        local = message(0, 1, 4)           # x: 0 -> 1 stays left
        fabric.send(crossing, 0)
        fabric.send(local, 0)
        run(fabric)
        assert fabric.stats.window_bisection_words == 4
