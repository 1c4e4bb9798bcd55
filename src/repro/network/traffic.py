"""Synthetic traffic harnesses for the network micro-benchmarks.

Two experiments from Section 3.1 live here, modelled exactly as the paper
describes them but without full MDP cores (the node behaviour in these
experiments is a fixed little loop, so simulating it as a state machine
is both faithful and hundreds of times faster):

* :class:`RandomTrafficExperiment` — "every node ... selects a random
  destination, sends a message of length L to the target, waits for an L
  word acknowledgment, and then idles for I cycles."  The basic loop
  costs 45 cycles; sweeping I sweeps the offered load.  Produces the
  latency-vs-bisection-traffic curves (Figure 3, left) and the
  efficiency-vs-grain-size curves (Figure 3, right).
* :class:`TerminalBandwidthExperiment` — a source streams back-to-back
  messages of a given length to a neighbouring node which either discards
  them, copies them to internal memory (3 cycles/word), or copies them to
  external memory (6 cycles/word) — the three curves of Figure 4.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..core.costs import CLOCK_HZ, CostModel, DATA_BITS, DEFAULT_COSTS
from ..core.errors import ConfigurationError
from ..core.message import Message
from ..core.registers import Priority
from ..core.word import Word
from .fabric import Fabric
from .topology import Mesh3D

__all__ = [
    "RandomTrafficExperiment",
    "RandomTrafficResult",
    "TerminalBandwidthExperiment",
    "TerminalBandwidthResult",
    "DEFAULT_LOOP_OVERHEAD",
]

#: "The basic loop of the application takes 45 cycles without any idling."
DEFAULT_LOOP_OVERHEAD = 45

#: Cycles the responding node spends dispatching and building the ack.
DEFAULT_REPLY_DELAY = 10

_REQUEST_IP = 1
_ACK_IP = 2


@dataclass
class RandomTrafficResult:
    """Measurements from one (message length, idle) load point."""

    message_words: int
    idle_cycles: int
    iterations: int
    mean_round_trip_cycles: float
    one_way_latency_cycles: float
    bisection_traffic_bits_per_s: float
    bisection_utilization: float
    grain_cycles: int
    efficiency: float


class RandomTrafficExperiment:
    """The Figure 3 experiment: uniform random request/ack traffic."""

    def __init__(
        self,
        mesh: Mesh3D,
        message_words: int,
        idle_cycles: int,
        loop_overhead: int = DEFAULT_LOOP_OVERHEAD,
        reply_delay: int = DEFAULT_REPLY_DELAY,
        costs: CostModel = DEFAULT_COSTS,
        seed: int = 12345,
    ) -> None:
        if message_words < 2:
            raise ConfigurationError("messages need at least 2 words (header + tag)")
        self.mesh = mesh
        self.message_words = message_words
        self.idle_cycles = idle_cycles
        self.loop_overhead = loop_overhead
        self.reply_delay = reply_delay
        self.costs = costs
        self.rng = random.Random(seed)
        self.fabric = Fabric(mesh, self._accept, self._deliver, costs=costs)
        self._events: List[Tuple[int, int, int, int]] = []  # (time, seq, kind, node)
        self._event_seq = 0
        self._iter_start: Dict[int, int] = {}
        self._round_trips: List[int] = []
        self._measuring = False
        # Ack routing: remember who asked (one outstanding request/node).
        self._requester_of: Dict[int, List[int]] = {}
        # Message.words is an immutable tuple, so every request shares
        # one payload and every ack another.
        body = (Word.from_int(0),) * (message_words - 1)
        self._payloads = {ip: (Word.ip(ip),) + body
                          for ip in (_REQUEST_IP, _ACK_IP)}

    _ITERATE = 0
    _REPLY = 1

    def _accept(self, node: int, message: Message) -> bool:
        return True  # agents absorb immediately; replies serialize at inject

    def _deliver(self, node: int, message: Message, now: int) -> None:
        if message.handler_ip == _REQUEST_IP:
            self._requester_of.setdefault(node, []).append(message.source)
            self._push(now + self.reply_delay, self._REPLY, node)
        else:  # ack: the round trip is complete
            start = self._iter_start.pop(node, None)
            if start is not None and self._measuring:
                self._round_trips.append(now - start)
            self._push(
                now + self.loop_overhead + self.idle_cycles, self._ITERATE, node
            )

    def _push(self, time: int, kind: int, node: int) -> None:
        heapq.heappush(self._events, (time, self._event_seq, kind, node))
        self._event_seq += 1

    def _message(self, source: int, dest: int, header_ip: int) -> Message:
        return Message(self._payloads[header_ip], source=source, dest=dest,
                       priority=Priority.P0)

    def _random_dest(self, source: int) -> int:
        n = self.mesh.n_nodes
        dest = self.rng.randrange(n - 1)
        return dest if dest < source else dest + 1

    def _process(self, now: int, kind: int, node: int) -> None:
        if kind == self._ITERATE:
            dest = self._random_dest(node)
            self._iter_start[node] = now
            self.fabric.send(self._message(node, dest, _REQUEST_IP), now)
        else:  # reply
            requesters = self._requester_of.get(node)
            if requesters:
                source = requesters.pop(0)
                self.fabric.send(self._message(node, source, _ACK_IP), now)

    def run(
        self, warmup_cycles: int = 3000, measure_cycles: int = 10000
    ) -> RandomTrafficResult:
        """Warm the network into steady state, then measure a window."""
        # Stagger starts across one full loop period: on hardware the
        # nodes decorrelate naturally, but with long idle times a
        # synchronized start would otherwise persist as periodic bursts.
        period = self.loop_overhead + self.idle_cycles + 1
        for node in range(self.mesh.n_nodes):
            self._push(self.rng.randrange(period), self._ITERATE, node)

        now = 0
        end_warm = warmup_cycles
        end = warmup_cycles + measure_cycles
        while now < end:
            if now == end_warm:
                self._measuring = True
                self._round_trips = []
                self.fabric.stats.open_window(now)
            while self._events and self._events[0][0] <= now:
                _, _, kind, node = heapq.heappop(self._events)
                self._process(now, kind, node)
            self.fabric.step(now)
            now += 1

        iterations = len(self._round_trips)
        mean_rt = (
            sum(self._round_trips) / iterations if iterations else float("nan")
        )
        one_way = mean_rt / 2 if iterations else float("nan")
        traffic = self.fabric.stats.bisection_traffic_bits_per_s(now)
        capacity = self.mesh.bisection_capacity_bits_per_s()
        grain = self.idle_cycles + self.loop_overhead
        total_per_iter = mean_rt + grain if iterations else float("inf")
        return RandomTrafficResult(
            message_words=self.message_words,
            idle_cycles=self.idle_cycles,
            iterations=iterations,
            mean_round_trip_cycles=mean_rt,
            one_way_latency_cycles=one_way,
            bisection_traffic_bits_per_s=traffic,
            bisection_utilization=traffic / capacity,
            grain_cycles=grain,
            efficiency=grain / total_per_iter if iterations else 0.0,
        )


@dataclass
class TerminalBandwidthResult:
    """Measured point-to-point data rate for one message size."""

    message_words: int
    sink_mode: str
    delivered_words: int
    cycles: int
    bits_per_s: float

    @property
    def words_per_cycle(self) -> float:
        return self.delivered_words / self.cycles if self.cycles else 0.0


class TerminalBandwidthExperiment:
    """The Figure 4 experiment: saturated neighbour-to-neighbour stream.

    ``sink_mode`` selects what the receiver does with each message:
    ``"discard"`` (no per-word work), ``"imem"`` (3 cycles/word copy), or
    ``"emem"`` (6 cycles/word copy) — the constants the paper gives for
    relocating arriving words (Section 4.3.2).
    """

    SINK_CYCLES_PER_WORD = {"discard": 0, "imem": 3, "emem": 6}

    def __init__(
        self,
        message_words: int,
        sink_mode: str = "discard",
        costs: CostModel = DEFAULT_COSTS,
        queue_capacity_words: int = 64,
        pipeline_depth: int = 4,
    ) -> None:
        if sink_mode not in self.SINK_CYCLES_PER_WORD:
            raise ConfigurationError(f"unknown sink mode {sink_mode!r}")
        if message_words < 1:
            raise ConfigurationError("message must be at least 1 word")
        self.message_words = message_words
        self.sink_mode = sink_mode
        self.costs = costs
        self.queue_capacity_words = queue_capacity_words
        self.pipeline_depth = pipeline_depth
        self.mesh = Mesh3D(2, 1, 1)
        self.fabric = Fabric(self.mesh, self._accept, self._deliver, costs=costs)
        self._queued_words = 0
        self._pending_service: List[int] = []  # message lengths awaiting sink
        self._service_busy_until = 0
        self._delivered_words = 0
        self._in_flight = 0
        self._measuring = False
        # One payload for the whole stream (Message.words is immutable).
        self._words = (Word.ip(0),) + tuple(
            Word.from_int(i) for i in range(message_words - 1))

    def _accept(self, node: int, message: Message) -> bool:
        return self._queued_words + message.length <= self.queue_capacity_words

    def _deliver(self, node: int, message: Message, now: int) -> None:
        self._in_flight -= 1
        per_word = self.SINK_CYCLES_PER_WORD[self.sink_mode]
        if per_word == 0:
            if self._measuring:
                self._delivered_words += message.length
            return
        self._queued_words += message.length
        self._pending_service.append(message.length)

    def _service(self, now: int) -> None:
        """Sink consumer: drains the receive queue at its copy rate."""
        per_word = self.SINK_CYCLES_PER_WORD[self.sink_mode]
        if per_word == 0 or now < self._service_busy_until:
            return
        if not self._pending_service:
            return
        length = self._pending_service.pop(0)
        self._service_busy_until = now + self.costs.dispatch + per_word * length
        self._queued_words -= length
        if self._measuring:
            self._delivered_words += length

    def run(
        self, warmup_cycles: int = 500, measure_cycles: int = 4000
    ) -> TerminalBandwidthResult:
        """Stream until steady state, then measure the delivered rate."""
        message_count = 0
        now = 0
        end = warmup_cycles + measure_cycles
        measured_cycles = measure_cycles
        while now < end:
            if now == warmup_cycles:
                self._measuring = True
                self._delivered_words = 0
            # Keep the source's injection pipeline full.
            while self._in_flight < self.pipeline_depth:
                self.fabric.send(
                    Message(self._words, source=0, dest=1,
                            priority=Priority.P0), now
                )
                self._in_flight += 1
                message_count += 1
            self._service(now)
            self.fabric.step(now)
            now += 1

        words_per_cycle = self._delivered_words / measured_cycles
        bits_per_s = words_per_cycle * DATA_BITS * CLOCK_HZ
        return TerminalBandwidthResult(
            message_words=self.message_words,
            sink_mode=self.sink_mode,
            delivered_words=self._delivered_words,
            cycles=measured_cycles,
            bits_per_s=bits_per_s,
        )
