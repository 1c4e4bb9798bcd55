"""Flit-level simulation of the J-Machine's wormhole-routed 3-D mesh.

The model follows the published channel parameters: each channel moves one
phit (half a 36-bit word) per cycle, so channel bandwidth is 0.5
words/cycle; the head flit advances one hop per cycle when unblocked
(Section 2.1).  Worms hold every virtual channel between their tail and
head; when the head blocks, body flits pile into the small per-hop
buffers and the worm stalls in place — which is how congestion propagates
backpressure all the way to the sending processor (whose ``SEND``
instructions then take send faults, Section 4.3.2).

Modelling choices, and why they preserve the paper's behaviour:

* **Virtual channel per priority.**  Priority-1 worms are arbitrated
  before priority-0 worms everywhere, matching "priority one messages
  receive preference during channel arbitration".
* **Fixed-priority arbitration.**  Contenders for a channel are examined
  in a fixed deterministic order: priority class first, then through
  traffic ahead of locally-injecting worms — the MDP router's unfair
  fixed input-port priority, under which "nodes may be unable to inject
  a message into the network for an arbitrarily long period" (Section
  4.3.2, the radix-sort starvation).  ``arbitration="round_robin"``
  selects the fair alternative.
* **Aggregate worm state.**  Rather than tracking every flit, each worm
  keeps counts of injected/delivered phits and the span of held channels;
  phits stream at one per cycle through that span, with ``BUFFER_PHITS``
  of slack per held channel.  This reproduces cut-through latency
  (head latency + 2 cycles/word of streaming), blocking, and progressive
  tail release at a fraction of the bookkeeping cost.
* **End-to-end interface latency.**  ``inject_latency`` and
  ``eject_latency`` model the pipeline stages between processor and
  network; their defaults are calibrated so a null self-ping's two
  network traversals cost the paper's 24 cycles (Section 3.1).
"""

from __future__ import annotations

import heapq
import sys
from collections import deque
from operator import attrgetter
from typing import Callable, Deque, Dict, List, Optional, Tuple

from ..core.costs import CostModel, DEFAULT_COSTS
from ..core.errors import ConfigurationError
from ..core.message import Message
from ..core.registers import Priority
from .observatory import FabricProbe
from .routing import route_keys
from .stats import NetworkStats
from .topology import Mesh3D

__all__ = ["Fabric", "Worm", "BUFFER_PHITS", "FRAMING_PHITS"]

#: Phits of buffering per held channel (router latch + channel register).
BUFFER_PHITS = 2

#: Per-message wire overhead: the routing head phit and the tail marker.
#: This is what keeps very short messages below peak channel bandwidth
#: (Figure 4: 2-word messages reach just over half of peak; 8-word
#: messages reach 90%).
FRAMING_PHITS = 2

#: Calibration: cycles a worm spends in the sending interface pipeline.
DEFAULT_INJECT_LATENCY = 2

#: Calibration: cycles from last phit at router to message queued.
DEFAULT_EJECT_LATENCY = 5

#: ``Worm.wake`` of a worm that is visited every cycle.
AWAKE = -1

#: ``Worm.wake`` of a blocked worm with nothing left to inject before
#: its slack runs out: only a release of its parked key wakes it.
NEVER = sys.maxsize

#: ``Worm.akey``'s bit for "the head is still at the injection port";
#: the bits below it hold ``seq`` (taken to stay under 2**48).
AT_PORT = 1 << 48

_AKEY = attrgetter("akey")

#: Cycles :meth:`Fabric.drain` steps before it gives up on a network
#: that will not empty.
DRAIN_MAX_CYCLES = 1_000_000

AcceptFn = Callable[[int, Message], bool]
DeliverFn = Callable[[int, Message, int], None]


class Worm:
    """One message in flight: a worm of phits snaking through the mesh."""

    __slots__ = (
        "message", "keys", "hops", "total_phits", "head", "released",
        "injected", "delivered", "reserved", "launch_time", "seq",
        "block_cycles", "crosses_bisection", "done", "pri", "akey", "wake",
        "seen", "parked",
    )

    def __init__(
        self,
        message: Message,
        keys: Tuple[int, ...],
        hops: int,
        total_phits: int,
        crosses_bisection: bool,
        seq: int,
    ) -> None:
        self.message = message
        #: The route's channel keys (:func:`~repro.network.routing.
        #: route_keys`), shared through the route cache; worms must
        #: never mutate them.
        self.keys = keys
        self.hops = hops
        self.total_phits = total_phits
        self.head = -1          # index of furthest acquired channel
        self.released = 0       # channels [0, released) have been freed
        self.injected = 0       # phits that have left the source interface
        self.delivered = 0      # phits absorbed at the destination
        self.reserved = False   # destination queue space reserved
        self.launch_time: Optional[int] = None
        self.seq = seq
        self.block_cycles = 0
        self.crosses_bisection = crosses_bisection
        self.done = False
        #: Cached ``int(message.priority)`` (hot in arbitration).
        self.pri = int(message.priority)
        #: Fixed arbitration's sort key, an int ordered as
        #: ``(-pri, at_port, seq)``: priority 1 first, then through
        #: traffic ahead of worms still at their injection port
        #: (:data:`AT_PORT`, cleared when the head leaves it), then
        #: submission order.
        self.akey = ((1 - self.pri) * 2 + 1) * AT_PORT + seq
        #: Sleep state, derived (see :meth:`Fabric.advance`): the next
        #: cycle the kernel visits this worm (:data:`AWAKE`: every
        #: cycle), the cycle of its last full visit, and — while
        #: blocked — the owned channel key the worm is parked under.
        #: ``injected``, ``delivered`` and ``block_cycles`` are as of
        #: ``seen`` until :meth:`Fabric.sync`.
        self.wake = AWAKE
        self.seen = 0
        self.parked: Optional[int] = None

    def fill_limit(self) -> int:
        """Phits injected when a head blocked short of the ejection port
        can take no more: nothing is delivered yet, so the held span's
        buffers hold the rest (or the message ends first)."""
        return min(self.total_phits,
                   BUFFER_PHITS * (self.head - self.released + 1))


class Fabric:
    """The whole network: channels, arbitration, and worm progression.

    The fabric is cycle stepped: the owner (a machine or a synthetic
    traffic harness) calls :meth:`step` once per simulated cycle while
    :attr:`active` is truthy, or :meth:`advance` over a window in which
    it has nothing to do itself.  Message hand-off to nodes goes through two
    callbacks so the fabric stays independent of what a "node" is:

    * ``accept_fn(node, message) -> bool`` — may the destination take this
      message now?  (Queue-full refusal is how backpressure starts.)
    * ``deliver_fn(node, message, now)`` — the message has fully arrived.
    """

    def __init__(
        self,
        mesh: Mesh3D,
        accept_fn: AcceptFn,
        deliver_fn: DeliverFn,
        costs: CostModel = DEFAULT_COSTS,
        inject_latency: int = DEFAULT_INJECT_LATENCY,
        eject_latency: int = DEFAULT_EJECT_LATENCY,
        arbitration: str = "fixed",
        flow_control: str = "block",
    ) -> None:
        if arbitration not in ("fixed", "round_robin"):
            raise ConfigurationError(f"unknown arbitration {arbitration!r}")
        if flow_control not in ("block", "return_to_sender"):
            raise ConfigurationError(f"unknown flow control {flow_control!r}")
        self.mesh = mesh
        self.accept_fn = accept_fn
        self.deliver_fn = deliver_fn
        self.costs = costs
        self.inject_latency = inject_latency
        self.eject_latency = eject_latency
        self.arbitration = arbitration
        self.flow_control = flow_control
        self._owner: Dict[int, Worm] = {}
        self._active: List[Worm] = []
        self._pending: Dict[Tuple[int, int], Deque[Worm]] = {}
        self._pending_count = 0
        #: Derived from ``_pending`` and the owner map: the pending
        #: queues whose front may launch at the next cycle's top, and
        #: the others by the injection port key they wait on (held by
        #: their own previous worm).  :meth:`_release` moves a queue
        #: from the second to the first.
        self._ready: List[Tuple[int, int]] = []
        self._port_waiters: Dict[int, Tuple[int, int]] = {}
        #: Derived: ``_active`` may be out of arbitration order (a worm
        #: launched or left its injection port since the last sort).
        self._unsorted = False
        #: Heap of (release_time, seq, worm); seq keeps same-cycle
        #: releases in submission order, matching the old list scan.
        self._staged: List[Tuple[int, int, Worm]] = []
        #: (source, dest, pclass) -> (channel keys, crosses midplane),
        #: the shared :func:`~repro.network.routing.route_keys` entry;
        #: this fabric's own memo so that the hit/miss counters below
        #: describe this fabric's traffic alone.
        self._route_cache: Dict[Tuple[int, int, int],
                                Tuple[Tuple[int, ...], bool]] = {}
        #: Bound + traffic counters for the per-pair route cache
        #: (exported as ``net.route_cache.*`` by the telemetry wiring).
        self.route_cache_max = 1 << 17
        self.route_cache_hits = 0
        self.route_cache_misses = 0
        self._seq = 0
        self.stats = NetworkStats()
        #: Optional callback fired once per worm when its tail has fully
        #: left the sending interface (frees the node's send buffer).
        self.on_injected: Optional[Callable[[Message], None]] = None
        #: Parked worms (blocked by an owner, filling or frozen) by the
        #: owned channel key that blocks them, their number, and the
        #: last simulated cycle (what a sleeper's stale fields are
        #: measured against).  All derived: see :meth:`sync`.
        self._waiters: Dict[int, List[Worm]] = {}
        self._n_parked = 0
        self._cycle = -1
        #: Telemetry event bus (installed by repro.telemetry.wiring).
        self._events = None
        #: Fault-injection engine (installed by
        #: :meth:`repro.chaos.ChaosEngine.attach_machine`); None keeps
        #: every injection site on its cheap ``is None`` branch.
        self.chaos = None
        self._probe: Optional[FabricProbe] = None

    @property
    def probe(self) -> Optional[FabricProbe]:
        """Fabric observatory probe
        (:class:`~repro.network.observatory.FabricProbe`); None keeps
        every accumulation site on its cheap ``is None`` branch so
        un-probed runs stay bit-identical.  Reading it first credits
        the blocked cycles of sleeping worms (:meth:`sync`), so every
        reader sees exact counters."""
        if self._probe is not None:
            self.sync()
        return self._probe

    @probe.setter
    def probe(self, probe: Optional[FabricProbe]) -> None:
        self._probe = probe

    def attach_probe(self, now: int = 0) -> FabricProbe:
        """Attach (and return) a fresh observatory probe.

        Call before traffic starts so utilization denominators cover the
        whole run; re-attaching discards previous counters.
        """
        self._probe = FabricProbe(opened_at=now)
        return self._probe

    # ------------------------------------------------------------------ send

    def send(self, message: Message, now: int) -> None:
        """Submit a message; it will be injected when its turn comes.

        Messages from one (node, priority) pair inject strictly in order:
        a worm cannot enter the network until the previous worm's tail has
        left the injection port.
        """
        worm = self._make_worm(message, now)
        # Model the send-interface pipeline as a staging delay.
        heapq.heappush(self._staged, (now + self.inject_latency, worm.seq, worm))
        self.stats.submitted += 1
        if self._events is not None:
            self._events.emit("send", now, message.source,
                              int(message.priority), dest=message.dest,
                              words=message.length, trace=message.trace)

    def _make_worm(self, message: Message, now: int) -> Worm:
        pclass = int(message.priority)
        cache_key = (message.source, message.dest, pclass)
        entry = self._route_cache.get(cache_key)
        if entry is None:
            # Raises ConfigurationError for an endpoint outside the mesh.
            entry = route_keys(self.mesh.dims, message.source, message.dest,
                               pclass)
            self.route_cache_misses += 1
            if len(self._route_cache) >= self.route_cache_max:
                self._route_cache.clear()  # bounded even on huge meshes
            self._route_cache[cache_key] = entry
        else:
            self.route_cache_hits += 1
        keys, crosses = entry
        total_phits = (self.costs.phits_per_word * len(message.words)
                       + FRAMING_PHITS)
        worm = Worm(message, keys, len(keys) - 2, total_phits, crosses,
                    self._seq)
        self._seq += 1
        if message.inject_time is None:
            message.inject_time = now
        return worm

    @property
    def active(self) -> bool:
        """True while any worm is staged, pending, or in the mesh."""
        return bool(self._active or self._staged or self._pending_count)

    @property
    def worms_in_flight(self) -> int:
        return len(self._active)

    def stuck_worms(self) -> List[str]:
        """One line per in-flight worm (the first eight): its message,
        how far its head got, and the message of the worm that owns the
        channel it needs next — the deadlock watchdog's diagnosis of a
        wedged mesh.  Heads and the owner map are exact between cycles,
        so this needs no :meth:`sync`."""
        lines = []
        for worm in self._active[:8]:
            blocker = None
            if worm.head <= worm.hops:
                owner = self._owner.get(worm.keys[worm.head + 1])
                blocker = owner.message if owner else None
            lines.append(f"{worm.message!r} head={worm.head}/"
                         f"{worm.hops + 1} blocked_by={blocker!r}")
        return lines

    def delivery_window(self) -> int:
        """Fewest cycles from a ``send`` to its delivery commit.

        A message submitted at cycle ``s`` spends ``inject_latency``
        cycles in the interface pipeline, then streams its whole worm —
        at least one word plus framing, a phit per cycle — before the
        tail arrives, and commits ``eject_latency`` later (11 cycles at
        the calibrated defaults).  So a processor that next executes at
        cycle ``p`` cannot make anything visible to another node before
        ``p + delivery_window()``: the lookahead of block run-ahead
        under a stop condition.
        """
        min_worm_phits = self.costs.phits_per_word + FRAMING_PHITS
        return max(1, self.inject_latency + min_worm_phits
                   + self.eject_latency)

    def injection_quiet_cycles(self) -> Optional[int]:
        """A lower bound on cycles until any ``on_injected`` callback.

        A worm with ``r`` phits left to inject streams at most one phit
        per cycle, so its source's send buffer cannot be freed for at
        least ``r`` more cycles; staged and pending worms have their
        whole payload ahead of them.  Returns None when every worm has
        fully injected (no release can ever fire from current traffic).
        The machine uses this to let fast-path blocks run ahead while
        the fabric is busy.
        """
        best: Optional[int] = None
        cycle = self._cycle
        for worm in self._active:
            remaining = worm.total_phits - worm.injected
            if remaining > 0:
                if worm.wake >= 0:
                    # A sleeper injected one phit per cycle since its
                    # visit: streaming, or blocked up to its slack.
                    elapsed = cycle - worm.seen
                    if worm.head < len(worm.keys) - 1:
                        elapsed = min(elapsed,
                                      worm.fill_limit() - worm.injected)
                    remaining -= elapsed
                if best is None or remaining < best:
                    best = remaining
        for queue in self._pending.values():
            for worm in queue:
                if best is None or worm.total_phits < best:
                    best = worm.total_phits
        for _, _, worm in self._staged:
            if best is None or worm.total_phits < best:
                best = worm.total_phits
        return best

    # ------------------------------------------------------------------ step

    def _release_staged(self, now: int) -> None:
        """Move staged worms whose release time has come into the
        per-(source, priority) pending queues, in submission order."""
        staged = self._staged
        probe = self._probe
        while staged and staged[0][0] <= now:
            _, _, worm = heapq.heappop(staged)
            queue_key = (worm.message.source, worm.pri)
            queue = self._pending.get(queue_key)
            if queue is None:
                # A new front: it may launch this very cycle.
                queue = self._pending[queue_key] = deque()
                self._ready.append(queue_key)
            queue.append(worm)
            self._pending_count += 1
            if probe is not None:
                probe.record_queue_depth(queue_key[0], len(queue))

    def _activate_pending(self, now: int) -> None:
        """Launch the fronts of the ready queues whose port is free.

        Each (source, priority) queue contends only for its own
        injection port, and that port is only ever held by the queue's
        own previous worm, so the order across queues is immaterial.  A
        queue whose port is held waits under the port key until
        :meth:`_release` frees it; empty queues are dropped.
        """
        owner = self._owner
        pending = self._pending
        for queue_key in self._ready:
            queue = pending[queue_key]
            worm = queue[0]
            port = worm.keys[0]
            if port not in owner:
                owner[port] = worm
                worm.head = 0
                worm.launch_time = now
                queue.popleft()
                self._pending_count -= 1
                self._active.append(worm)
                self._unsorted = True
                if not queue:
                    del pending[queue_key]
                    continue
            self._port_waiters[port] = queue_key
        self._ready.clear()

    def _arbitrate(self, worms: List[Worm], now: int) -> None:
        """Sort ``worms`` into this cycle's stepping order, in place."""
        # Priority-1 worms are stepped (and hence arbitrate) first.
        # Within a class, "fixed" arbitration models the MDP router's
        # fixed input-port priority: worms already in the mesh (through
        # traffic) beat worms still at their injection port, so under
        # congestion a node "may be unable to inject a message ... for
        # an arbitrarily long period" (Section 4.3.2).  "round_robin"
        # rotates precedence across source nodes each cycle — the fair
        # alternative.
        if self.arbitration == "fixed":
            worms.sort(key=_AKEY)
        else:
            n = self.mesh.n_nodes
            worms.sort(
                key=lambda w: (-w.pri, (w.message.source - now) % n, w.seq)
            )

    def step(self, now: int) -> None:
        """Advance the network by the one cycle ``now``."""
        self.advance(now, now + 1)

    def advance(self, now: int, horizon: int) -> int:
        """Simulate cycles ``[now, end)``; returns ``end <= horizon``.

        This is the fabric's one stepping kernel; :meth:`step` is the
        one-cycle window.  For a longer window the caller (the
        machine's run loop) guarantees it is *quiet*: no new sends, no
        delivery commits and no processor activity before ``horizon``,
        and an ``accept_fn`` whose answer cannot change inside it.  The
        window ends early when a completion schedules a delivery commit
        the owner must observe (``completion + eject_latency``) and
        when the fabric drains.

        Each cycle walks ``_active`` in arbitration order, but *visits*
        a worm only when the visit can change something another worm,
        the owner or a callback can see (``worm.wake <= cycle``).  Three
        kinds of worm sleep:

        * **Blocked** — the head is blocked by a channel *owner* (not a
          link outage).  Until that key leaves the owner map the worm
          can only inject, one phit per cycle while its buffers have
          slack, so it parks under the key and :meth:`_release` wakes
          it.  If the slack holds the rest of the message it also gets
          a timed wake at the cycle its injection completes
          (``on_injected`` and the tail release fire in their own cycle
          and place); *frozen* is the case with no slack left.  A worm
          woken by a release is visited this cycle if it sorts after
          the releaser and next cycle if before — what visiting every
          worm would do; a loser of the re-arbitration parks again.
          Each parked cycle is a block cycle: ``stats.block_cycles`` is
          credited at the top of every cycle (owners read ``stats``
          between cycles), the worm's own count, its injection and the
          probe when it wakes (:meth:`_catch_up`).
        * **Streaming** — the head holds the ejection port with the
          reservation granted, so the worm never reads the owner map
          again: it moves one phit in and one out per cycle, and
          nothing visible happens until injection completes.  It sleeps
          to that cycle and the skipped phits are applied in closed
          form.
        * **Draining** — injection complete, ejection reserved: what is
          left to see is a tail release every ``BUFFER_PHITS`` cycles,
          then completion.  A release is a cheap step at the worm's
          place in the walk, with no full visit; completion is one.

        Everything else — routing heads, worms held by a link outage,
        refused worms polling ``accept_fn`` — is visited every cycle.
        After a cycle that visited nobody the window jumps to the
        earliest wake or staged release.  Sleep is derived state:
        visiting a sleeper early is exact, so :meth:`sync` may wake
        everyone at any cycle boundary.
        """
        if now != self._cycle + 1:
            # The owner skipped cycles: they are not network time, so
            # no sleeper may count them.
            self.sync()
        staged = self._staged
        owner = self._owner
        waiters = self._waiters
        stats = self.stats
        probe = self._probe
        chaos = self.chaos
        fixed = self.arbitration == "fixed"
        end = horizon
        c = now
        while c < end:
            self._cycle = c
            if staged and staged[0][0] <= c:
                self._release_staged(c)
            if self._ready:
                self._activate_pending(c)
            active = self._active
            if not active:
                # Every injection port is free, so nothing is pending.
                if not staged:
                    return c + 1
                c = min(staged[0][0], end)
                continue
            if self._n_parked:
                stats.block_cycles += self._n_parked
            if self._unsorted or not fixed:
                # A fixed order changes only when a worm launches or
                # leaves its injection port.
                self._unsorted = False
                if len(active) > 1:
                    self._arbitrate(active, c)
            visited = False
            finished = []
            for worm in active:
                wake = worm.wake
                if wake > c:
                    continue
                visited = True
                head = worm.head
                last = worm.hops + 1  # the ejection port's index
                if wake >= 0:
                    if head < last:
                        # A blocked sleeper: at its timed wake (still
                        # parked) or woken by a release.  If it was
                        # parked at this cycle's top (wake == c), the
                        # top-of-cycle credit counted it; the visit
                        # counts for itself.
                        if worm.parked is not None:
                            self._unpark(worm)
                        if wake == c:
                            stats.block_cycles -= 1
                    elif (worm.released < head
                          and worm.injected == worm.total_phits):
                        # Draining: free the next tail channel; the
                        # one after goes BUFFER_PHITS cycles later (once
                        # none is left, that look is completion).
                        self._release(worm, worm.released + 1)
                        worm.wake = c + BUFFER_PHITS
                        continue
                    self._catch_up(worm, c)
                total = worm.total_phits
                injected = worm.injected
                moved = owned = False

                # 1. Head acquisition: one hop per cycle when the next
                #    VC is free *and* the link is up (chaos link outages
                #    hold the head in place exactly like contention, so
                #    backpressure — and, if the outage persists,
                #    deadlock — propagates realistically).
                if head < last:
                    key = worm.keys[head + 1]
                    owned = key in owner
                    if owned or (chaos is not None
                                 and chaos.link_blocked(key, c)):
                        worm.block_cycles += 1
                        stats.block_cycles += 1
                        if probe is not None:
                            probe.record_block(key, not owned)
                    else:
                        owner[key] = worm
                        worm.head = head = head + 1
                        if head == 1:
                            # Left the injection port: now "through
                            # traffic", which fixed arbitration favours.
                            worm.akey -= AT_PORT
                            self._unsorted = True
                        moved = True
                    delivered = 0  # nothing arrives before the head

                # 2. Delivery: once the ejection port is held, stream
                #    phits out.
                if head == last:
                    delivered = worm.delivered
                    if not worm.reserved:
                        message = worm.message
                        if (message.bounce_of is not None
                                or self.accept_fn(message.dest, message)):
                            worm.reserved = True
                        elif self.flow_control == "return_to_sender":
                            # Refused: turn the worm around instead of
                            # blocking the network (the critique's
                            # proposed protocol).
                            self._bounce(worm, c)
                            finished.append(worm)
                            continue
                        else:
                            stats.delivery_stall_cycles += 1
                            if probe is not None:
                                probe.record_backpressure(message.dest)
                    if worm.reserved and delivered < injected:
                        worm.delivered = delivered = delivered + 1
                        moved = True
                        if delivered == total:
                            self._complete(worm, c)
                            finished.append(worm)
                            continue

                # 3. Injection: the source streams one phit per cycle
                #    while the held span has buffer slack.
                slack = BUFFER_PHITS * (head - worm.released + 1)
                if injected < total and injected - delivered < slack:
                    worm.injected = injected = injected + 1
                    moved = True
                    if injected == total:
                        self._report_injected(worm.message)

                if moved:
                    # 4. Tail release: after full injection the tail
                    #    advances with the pipe, freeing channels behind
                    #    the span the in-flight phits need.
                    if injected == total:
                        target = head + 1 - -(-(total - delivered)
                                              // BUFFER_PHITS)
                        if worm.released < target:
                            self._release(worm, target)
                    if head == last and worm.reserved:
                        if injected < total:
                            # Streaming: nothing to see until the end
                            # of injection.
                            quiet = total - injected
                            if quiet > 1:
                                worm.wake = c + quiet
                                worm.seen = c
                        else:
                            # Draining: the next tail release (one per
                            # BUFFER_PHITS delivered), else completion;
                            # at least a cycle away.
                            worm.wake = c + (total - delivered - BUFFER_PHITS
                                             * (head - worm.released))
                            worm.seen = c
                if owned:
                    # Blocked by an owner: park under its key.  If the
                    # slack holds the rest of the message, the end of
                    # injection is a timed wake.
                    if injected < total <= slack:
                        worm.wake = c + total - injected
                    else:
                        worm.wake = NEVER
                    worm.seen = c
                    worm.parked = key
                    parked = waiters.get(key)
                    if parked is None:
                        waiters[key] = [worm]
                    else:
                        parked.append(worm)
                    self._n_parked += 1

            if finished:
                for worm in finished:
                    active.remove(worm)
                arrival = c + self.eject_latency
                if arrival < end:
                    end = arrival
            c += 1
            if not active and not staged and not self._pending_count:
                break  # the fabric drained inside the window
            if not visited and c < end:
                # Everyone in the mesh sleeps: nothing can change before
                # the earliest wake or staged release.
                target = min(w.wake for w in active)
                if staged and staged[0][0] < target:
                    target = staged[0][0]
                if target > end:
                    target = end
                if target > c:
                    stats.block_cycles += self._n_parked * (target - c)
                    c = target
                    self._cycle = c - 1
        return c

    def _unpark(self, worm: Worm) -> None:
        """Take a worm out of ``_waiters`` at its timed wake."""
        key = worm.parked
        parked = self._waiters[key]
        if len(parked) > 1:
            parked.remove(worm)
        else:
            del self._waiters[key]
        worm.parked = None
        self._n_parked -= 1

    def _catch_up(self, worm: Worm, now: int) -> None:
        """Apply the cycles ``worm`` slept through, as of the start of
        cycle ``now``, and mark it awake (parked worms must already be
        out of ``_waiters``)."""
        skipped = now - worm.seen - 1
        if skipped > 0:
            head = worm.head
            if head < len(worm.keys) - 1:
                # Blocked every cycle, injecting while the slack lasted
                # (nothing is delivered before the head arrives).
                worm.block_cycles += skipped
                if self._probe is not None:
                    self._probe.record_block(worm.keys[head + 1], False,
                                             skipped)
                worm.injected = min(worm.injected + skipped,
                                    worm.fill_limit())
            else:
                if worm.injected < worm.total_phits:
                    worm.injected += skipped
                worm.delivered += skipped
        worm.wake = AWAKE

    def sync(self) -> None:
        """Bring every worm's fields up to the last simulated cycle.

        A sleeper's ``injected`` / ``delivered`` / ``block_cycles`` and
        its share of the probe are stale between visits.  This wakes
        every sleeper (exact: an early visit just re-decides), so
        afterwards no derived sleep state is left.  Call it between
        cycles before reading worm fields; :meth:`state_dict` and the
        :attr:`probe` getter do.
        """
        boundary = self._cycle + 1
        for worm in self._active:
            if worm.wake >= 0:
                worm.parked = None
                self._catch_up(worm, boundary)
        self._waiters.clear()
        self._n_parked = 0

    def _report_injected(self, message: Message) -> None:
        """The tail left the sending interface: tell the owner, once per
        message (a bounced copy is not the sender's to free)."""
        if (self.on_injected is not None and message.bounce_of is None
                and not message.injection_reported):
            message.injection_reported = True
            self.on_injected(message)

    def _release(self, worm: Worm, stop: int) -> None:
        """Free ``worm``'s channels ``[released, stop)``, all its own:
        the one place a key leaves the owner map, so the one place
        anything waiting on one wakes."""
        owner = self._owner
        waiters = self._waiters
        keys = worm.keys
        index = worm.released
        worm.released = stop
        if index == 0:
            # The injection port: the source's next worm launches at
            # the next cycle's top.
            key = keys[0]
            del owner[key]
            if key in self._port_waiters:
                self._ready.append(self._port_waiters.pop(key))
            index = 1
        while index < stop:
            key = keys[index]
            del owner[key]
            if key in waiters:
                # Visited from this cycle on: later in this walk if they
                # sort after the releaser, else next cycle.
                parked = waiters.pop(key)
                for sleeper in parked:
                    sleeper.wake = self._cycle
                    sleeper.parked = None
                self._n_parked -= len(parked)
            index += 1

    def _retire(self, worm: Worm) -> None:
        """Free every channel ``worm`` still holds (its head is at the
        ejection port) and mark it done."""
        self._release(worm, len(worm.keys))
        worm.done = True

    def _complete(self, worm: Worm, now: int) -> None:
        """Tail arrived: free remaining channels, hand the message over."""
        self._retire(worm)
        arrival = now + self.eject_latency
        original = worm.message.bounce_of
        if original is not None:
            # A returned message reached its sender: retry the original
            # after the interface re-processes it.
            retry_worm = self._make_worm(original, now)
            heapq.heappush(self._staged,
                           (arrival + self.inject_latency, retry_worm.seq,
                            retry_worm))
            return
        if self.chaos is not None:
            verdict = self.chaos.fabric_verdict(worm.message, now)
            if verdict == 1:  # dropped: the message vanishes in transit
                self.stats.drops += 1
                return
            if verdict == 2:  # corrupted: delivered, but checksum-dead
                worm.message.corrupted = True
        if self._probe is not None:
            self._probe.record_completion(worm)
        self.deliver_fn(worm.message.dest, worm.message, arrival)
        self.stats.record_completion(worm, arrival)

    def _bounce(self, worm: Worm, now: int) -> None:
        """Return-to-sender: free the path and send the message back."""
        self._retire(worm)
        self.stats.bounces += 1
        original = worm.message
        returned = Message(
            original.words,
            source=original.dest,
            dest=original.source,
            priority=original.priority,
        )
        returned.bounce_of = original
        returned.trace = original.trace  # one span covers the round trip
        returned.inject_time = now
        bounce_worm = self._make_worm(returned, now)
        heapq.heappush(self._staged, (now + 1, bounce_worm.seq, bounce_worm))

    # ------------------------------------------------------- snapshot contract

    #: Constructor-wired attributes :meth:`state_dict` deliberately does
    #: NOT capture: they belong to whoever built the fabric (the machine
    #: or a harness) and are re-established by fresh construction on
    #: restore.  tests/snapshot/test_contracts.py asserts that captured
    #: + external covers every instance attribute, so a new attribute
    #: cannot silently vanish from checkpoints.
    EXTERNAL_ATTRS = frozenset({
        "mesh", "accept_fn", "deliver_fn", "costs", "inject_latency",
        "eject_latency", "arbitration", "flow_control", "on_injected",
        "_events", "chaos",
    })

    #: Bookkeeping that :meth:`state_dict` does not capture either.
    #: Sleep state, because :meth:`sync` (which it calls first) leaves
    #: it at rest: nobody parked, every ``Worm.wake`` AWAKE.  The
    #: launch queues and the sort flag, because :meth:`load_state`
    #: re-derives them from the pending queues and marks the order
    #: stale.
    DERIVED_ATTRS = frozenset({"_waiters", "_n_parked", "_cycle", "_ready",
                               "_port_waiters", "_unsorted"})

    def state_dict(self) -> dict:
        """Every run-mutable piece of fabric state, picklable.

        Worms are captured by reference (they pickle via ``__slots__``),
        so the sharing structure — one worm appearing as a channel owner,
        in the active list, and in a pending queue — survives the
        round trip through the snapshot's single pickle.  Sleepers are
        woken first, so a capture holds exact worm fields and no sleep
        state.
        """
        self.sync()
        return {
            "owner": dict(self._owner),
            "active": list(self._active),
            "pending": {key: list(queue)
                        for key, queue in self._pending.items()},
            "pending_count": self._pending_count,
            "staged": list(self._staged),
            "route_cache": dict(self._route_cache),
            "route_cache_max": self.route_cache_max,
            "route_cache_hits": self.route_cache_hits,
            "route_cache_misses": self.route_cache_misses,
            "seq": self._seq,
            "stats": self.stats,
            "probe": self._probe,
        }

    def load_state(self, state: dict) -> None:
        """Install a :meth:`state_dict` capture into this fabric.

        The fabric must have been constructed with the same topology and
        wiring as the captured one; everything in
        :data:`EXTERNAL_ATTRS` is left untouched.  Worms, channel owners
        and the route memo go in as captured: the capture holds them
        awake (:meth:`state_dict` syncs first).
        """
        self._owner = dict(state["owner"])
        self._active = list(state["active"])
        self._pending = {key: deque(queue)
                         for key, queue in state["pending"].items() if queue}
        self._pending_count = state["pending_count"]
        self._staged = list(state["staged"])
        self._route_cache = dict(state["route_cache"])
        self.route_cache_max = state["route_cache_max"]
        self.route_cache_hits = state["route_cache_hits"]
        self.route_cache_misses = state["route_cache_misses"]
        self._seq = state["seq"]
        self.stats = state["stats"]
        self._probe = state["probe"]
        self._waiters = {}
        self._n_parked = 0
        self._cycle = -1
        # Every queue tries its port at the next cycle's top; captured
        # order is only sorted as of that capture's last cycle top.
        self._ready = list(self._pending)
        self._port_waiters = {}
        self._unsorted = True

    # ---------------------------------------------------------------- helpers

    def drain(self, now: int) -> int:
        """Step until the network is empty; returns the finishing cycle.

        Only valid when message delivery does not trigger new sends (the
        synthetic micro-benchmarks); machines drive :meth:`step` directly.
        """
        cycle = now
        end = now + DRAIN_MAX_CYCLES
        while self.active and cycle < end:
            self.step(cycle)
            cycle += 1
        if self.active:
            raise ConfigurationError(
                f"network failed to drain in {DRAIN_MAX_CYCLES} cycles")
        return cycle
