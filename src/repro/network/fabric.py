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
from ..core.errors import ConfigurationError, DeadlockError
from ..core.message import Message
from ..core.registers import Priority
from .observatory import FabricProbe
from .routing import ChannelKey, route
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

#: ``Worm.wake`` of a frozen worm: only a release of its parked key
#: wakes it.
NEVER = sys.maxsize

AcceptFn = Callable[[int, Message], bool]
DeliverFn = Callable[[int, Message, int], None]


class Worm:
    """One message in flight: a worm of phits snaking through the mesh."""

    __slots__ = (
        "message", "path", "keys", "hops", "total_phits", "head", "released",
        "injected", "delivered", "reserved", "submit_time", "launch_time",
        "seq", "block_cycles", "crosses_bisection", "done", "pri", "akey",
        "wake", "seen", "parked",
    )

    def __init__(
        self,
        message: Message,
        path: Tuple[ChannelKey, ...],
        keys: Tuple[Tuple[int, int, int, int], ...],
        hops: int,
        total_phits: int,
        crosses_bisection: bool,
        seq: int,
    ) -> None:
        self.message = message
        #: Shared route tuples from the fabric's per-pair cache; worms
        #: must never mutate them.
        self.path = path
        self.keys = keys
        self.hops = hops
        self.total_phits = total_phits
        self.head = -1          # index of furthest acquired channel
        self.released = 0       # channels [0, released) have been freed
        self.injected = 0       # phits that have left the source interface
        self.delivered = 0      # phits absorbed at the destination
        self.reserved = False   # destination queue space reserved
        self.submit_time = 0
        self.launch_time: Optional[int] = None
        self.seq = seq
        self.block_cycles = 0
        self.crosses_bisection = crosses_bisection
        self.done = False
        #: Cached ``int(message.priority)`` (hot in arbitration).
        self.pri = int(message.priority)
        #: Cached fixed-arbitration sort key ``(-pri, through, seq)``;
        #: the through flag flips to 0 when the head leaves the
        #: injection port (see :meth:`Fabric.advance`).
        self.akey = (-self.pri, 1, seq)
        #: Sleep state, derived (see :meth:`Fabric.advance`): the next
        #: cycle the kernel visits this worm (:data:`AWAKE`: every
        #: cycle), the cycle it last did, and — while frozen — the
        #: owned channel key the worm is parked under.  ``injected``,
        #: ``delivered`` and ``block_cycles`` are as of ``seen`` until
        #: :meth:`Fabric.sync`.
        self.wake = AWAKE
        self.seen = 0
        self.parked: Optional[Tuple[int, int, int, int]] = None


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
        self._owner: Dict[Tuple[int, int, int, int], Worm] = {}
        self._active: List[Worm] = []
        self._pending: Dict[Tuple[int, int], Deque[Worm]] = {}
        self._pending_count = 0
        #: Heap of (release_time, seq, worm); seq keeps same-cycle
        #: releases in submission order, matching the old list scan.
        self._staged: List[Tuple[int, int, Worm]] = []
        #: (source, dest, pclass) -> (path, keys, hops, crosses): the
        #: route is a pure function of the pair, so recomputing it per
        #: message is wasted work on all-to-all traffic.
        self._route_cache: Dict[
            Tuple[int, int, int],
            Tuple[Tuple[ChannelKey, ...], Tuple[Tuple[int, int, int, int], ...],
                  int, bool],
        ] = {}
        #: Bound + traffic counters for the per-pair route cache
        #: (exported as ``net.route_cache.*`` by the telemetry wiring).
        self.route_cache_max = 1 << 17
        self.route_cache_hits = 0
        self.route_cache_misses = 0
        self._seq = 0
        self.stats = NetworkStats(mesh)
        #: Optional callback fired once per worm when its tail has fully
        #: left the sending interface (frees the node's send buffer).
        self.on_injected: Optional[Callable[[Message], None]] = None
        #: Deadlock watchdog: if no worm moves a phit for this many
        #: consecutive cycles while worms are active, :meth:`step`
        #: raises with a diagnostic.  0 disables.
        self.watchdog_cycles = 0
        self._stagnant_cycles = 0
        #: Frozen worms by the owned channel key that blocks them, their
        #: number, and the last simulated cycle (what a sleeper's stale
        #: fields are measured against).  All derived: see :meth:`sync`.
        self._waiters: Dict[Tuple[int, int, int, int], List[Worm]] = {}
        self._n_frozen = 0
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
        if not 0 <= message.dest < self.mesh.n_nodes:
            raise ConfigurationError(f"destination {message.dest} outside mesh")
        pclass = int(message.priority)
        cache_key = (message.source, message.dest, pclass)
        entry = self._route_cache.get(cache_key)
        if entry is None:
            self.route_cache_misses += 1
            path = route(self.mesh, message.source, message.dest)
            keys = tuple(
                (node, dim, direction, pclass)
                for (node, dim, direction) in path
            )
            crosses = self.mesh.crosses_x_midplane(message.source, message.dest)
            if len(self._route_cache) >= self.route_cache_max:
                self._route_cache.clear()  # bounded even on huge meshes
            entry = (path, keys, len(path) - 2, crosses)
            self._route_cache[cache_key] = entry
        else:
            self.route_cache_hits += 1
        path, keys, hops, crosses = entry
        total_phits = self.costs.phits_per_word * message.length + FRAMING_PHITS
        worm = Worm(message, path, keys, hops, total_phits, crosses, self._seq)
        self._seq += 1
        worm.submit_time = now
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
                if worm.wake >= 0 and worm.parked is None:
                    # Streaming sleeper: one phit per cycle since.
                    remaining -= cycle - worm.seen
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
                queue = self._pending[queue_key] = deque()
            queue.append(worm)
            self._pending_count += 1
            if probe is not None:
                probe.record_queue_depth(queue_key[0], len(queue))

    def _activate_pending(self, now: int) -> None:
        """Activate queue fronts whose injection port is free.

        Each (source, priority) queue contends only for its own
        injection port, so scan order across queues is immaterial;
        empty queues are pruned so the scan stays proportional to the
        number of *waiting* worms, not of sources ever seen.
        """
        owner = self._owner
        for queue_key in [k for k, q in self._pending.items() if q]:
            queue = self._pending[queue_key]
            worm = queue[0]
            port = worm.keys[0]
            if owner.get(port) is None:
                owner[port] = worm
                worm.head = 0
                worm.launch_time = now
                queue.popleft()
                self._pending_count -= 1
                self._active.append(worm)
            if not queue:
                del self._pending[queue_key]

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
            worms.sort(key=attrgetter("akey"))
        else:
            n = self.mesh.n_nodes
            worms.sort(
                key=lambda w: (-w.pri, (w.message.source - now) % n, w.seq)
            )

    def step(self, now: int) -> None:
        """Advance the network by the one cycle ``now``."""
        self.advance(now, now + 1)

    def can_batch(self) -> bool:
        """May the owner hand :meth:`advance` a multi-cycle window?

        The kernel itself is exact under every feature; the gate is the
        *owner's* side of the quiet-window contract.  Fault injection,
        the stagnation watchdog and return-to-sender bounces all have
        per-cycle effects outside the fabric (chaos ticks, the trip
        cycle, re-staged worms) that a machine skipping its own loop
        iterations would not interleave with, so it keeps those runs on
        one :meth:`step` per loop pass.
        """
        return ((self.chaos is None or self.chaos.inert)
                and self.watchdog_cycles == 0
                and self.flow_control == "block")

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
        the owner or a callback can see (``worm.wake <= cycle``).  Two
        kinds of worm sleep:

        * **Frozen** — the head is blocked by a channel *owner* (not a
          link outage) and no phit moved.  Its state is a fixed point
          until that key leaves the owner map, so it parks under the
          key and :meth:`_release` wakes it.  A worm woken by a release
          is visited this cycle if it sorts after the releaser and next
          cycle if before — what visiting every worm would do; a loser
          of the re-arbitration freezes again.  Each frozen cycle is a
          block cycle: ``stats.block_cycles`` is credited at the top of
          every cycle (owners read ``stats`` between cycles), the
          worm's own count and the probe when it wakes
          (:meth:`_catch_up`).
        * **Streaming** — the head holds the ejection port with the
          reservation granted, so the worm never reads the owner map
          again: it moves one phit in and one out per cycle, and
          nothing visible happens until injection completes, then at
          each tail release and at completion.  It sleeps to the next
          of those cycles and the skipped phits are applied in closed
          form.

        Everything else — routing heads, blocked worms whose buffers
        are still filling, refused worms polling ``accept_fn`` — is
        visited every cycle.  After a cycle that visited nobody the
        window jumps to the earliest wake or staged release.  Sleep is
        derived state: visiting a sleeper early is exact, so
        :meth:`sync` may wake everyone at any cycle boundary.
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
        end = horizon
        c = now
        while c < end:
            self._cycle = c
            if staged and staged[0][0] <= c:
                self._release_staged(c)
            if self._pending_count:
                self._activate_pending(c)
            active = self._active
            if not active:
                # Every injection port is free, so nothing is pending.
                if not staged:
                    return c + 1
                c = min(staged[0][0], end)
                continue
            if self._n_frozen:
                stats.block_cycles += self._n_frozen
            if len(active) > 1:
                self._arbitrate(active, c)
            visited = finished = moved_any = False
            for worm in active:
                if worm.wake > c:
                    continue
                visited = True
                if worm.wake >= 0:
                    self._catch_up(worm, c)
                keys = worm.keys
                last = len(keys) - 1
                head = worm.head
                total = worm.total_phits
                injected = worm.injected
                delivered = worm.delivered
                moved = False
                busy_key = None

                # 1. Head acquisition: one hop per cycle when the next
                #    VC is free *and* the link is up (chaos link outages
                #    hold the head in place exactly like contention, so
                #    backpressure — and, if the outage persists,
                #    deadlock — propagates realistically).
                if head < last:
                    key = keys[head + 1]
                    owned = key in owner
                    if owned or (chaos is not None
                                 and chaos.link_blocked(key, c)):
                        if owned:
                            busy_key = key
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
                            worm.akey = (-worm.pri, 0, worm.seq)
                        moved = True

                # 2. Delivery: once the ejection port is held, stream
                #    phits out.
                if head == last:
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
                            finished = moved_any = True
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
                            finished = moved_any = True
                            continue

                # 3. Injection: the source streams one phit per cycle
                #    while the held span has buffer slack.
                if (injected < total and injected - delivered
                        < BUFFER_PHITS * (head - worm.released + 1)):
                    worm.injected = injected = injected + 1
                    moved = True
                    if injected == total:
                        self._report_injected(worm.message)

                if moved:
                    moved_any = True
                    # 4. Tail release: after full injection the tail
                    #    advances with the pipe, freeing channels behind
                    #    the in-flight span.
                    if injected == total:
                        span_needed = max(
                            1, -(-(total - delivered) // BUFFER_PHITS))
                        target = head - span_needed + 1
                        while worm.released < target:
                            self._release(worm, worm.released)
                            worm.released += 1
                    if head == last and worm.reserved:
                        # Streaming: the next visible cycle is the end
                        # of injection, else the next tail release (one
                        # per BUFFER_PHITS delivered), else completion.
                        if injected < total:
                            quiet = total - injected
                        else:
                            quiet = (total - delivered - BUFFER_PHITS
                                     * (head - worm.released))
                        if quiet > 1:
                            worm.wake = c + quiet
                            worm.seen = c
                elif busy_key is not None:
                    worm.parked = busy_key
                    worm.wake = NEVER
                    worm.seen = c
                    parked = waiters.get(busy_key)
                    if parked is None:
                        waiters[busy_key] = [worm]
                    else:
                        parked.append(worm)
                    self._n_frozen += 1

            if finished:
                self._active = active = [w for w in active if not w.done]
                arrival = c + self.eject_latency
                if arrival < end:
                    end = arrival
            if self.watchdog_cycles:
                # A streaming sleeper moves a phit every cycle.
                if moved_any or any(w.wake > c and w.parked is None
                                    for w in active):
                    self._stagnant_cycles = 0
                else:
                    self._stagnant_cycles += 1
                    if self._stagnant_cycles >= self.watchdog_cycles:
                        self._raise_stagnation(c)
            c += 1
            if not active and not staged and not self._pending_count:
                break  # the fabric drained inside the window
            if not visited and c < end and not self.watchdog_cycles:
                # Everyone in the mesh sleeps: nothing can change before
                # the earliest wake or staged release.
                target = min(w.wake for w in active)
                if staged and staged[0][0] < target:
                    target = staged[0][0]
                if target > end:
                    target = end
                if target > c:
                    stats.block_cycles += self._n_frozen * (target - c)
                    c = target
                    self._cycle = c - 1
        return c

    def _catch_up(self, worm: Worm, now: int) -> None:
        """Apply the cycles ``worm`` slept through, as of the start of
        cycle ``now``, and mark it awake."""
        skipped = now - worm.seen - 1
        key = worm.parked
        if key is not None:
            worm.parked = None
            if worm.wake == now:
                # Woken by a release earlier in this very cycle, whose
                # top-of-cycle credit still counted the worm as frozen;
                # the visit that follows does its own counting.
                self.stats.block_cycles -= 1
            if skipped:
                worm.block_cycles += skipped
                if self._probe is not None:
                    self._probe.record_block(key, False, skipped)
        elif skipped:
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
        cycles before reading worm fields; :meth:`state_dict`, the
        :attr:`probe` getter and the stagnation report do.
        """
        boundary = self._cycle + 1
        for worm in self._active:
            if worm.wake >= 0:
                self._catch_up(worm, boundary)
        self._waiters.clear()
        self._n_frozen = 0

    def _report_injected(self, message: Message) -> None:
        """The tail left the sending interface: tell the owner, once per
        message (a bounced copy is not the sender's to free)."""
        if (self.on_injected is not None and message.bounce_of is None
                and not message.injection_reported):
            message.injection_reported = True
            self.on_injected(message)

    def _release(self, worm: Worm, index: int) -> None:
        key = worm.keys[index]
        if self._owner.get(key) is worm:
            del self._owner[key]
            parked = self._waiters.pop(key, None)
            if parked is not None:
                # Visited from this cycle on: later in this walk if they
                # sort after the releaser, else next cycle.
                for sleeper in parked:
                    sleeper.wake = self._cycle
                self._n_frozen -= len(parked)

    def _retire(self, worm: Worm) -> None:
        """Free every channel ``worm`` still holds and mark it done."""
        for index in range(worm.released, len(worm.keys)):
            self._release(worm, index)
        worm.released = len(worm.keys)
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
        worm.message.arrive_time = arrival
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

    def _raise_stagnation(self, now: int) -> None:
        """Watchdog trip: describe every stuck worm and fail loudly."""
        self.sync()
        details = []
        for worm in self._active[:8]:
            blocker = None
            if worm.head + 1 < len(worm.keys):
                owner = self._owner.get(worm.keys[worm.head + 1])
                blocker = owner.message if owner else None
            details.append(
                f"{worm.message!r} head={worm.head}/{len(worm.path) - 1} "
                f"blocked_by={blocker!r}"
            )
        if self._events is not None:
            self._events.emit("watchdog", now, -1, name="net-stagnation",
                              worms=len(self._active))
        raise DeadlockError(
            f"network made no progress for {self.watchdog_cycles} cycles "
            f"at t={now}; {len(self._active)} worms stuck:\n  "
            + "\n  ".join(details),
            now=now,
            worms_in_flight=len(self._active),
        )

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

    #: Sleep bookkeeping that :meth:`state_dict` does not capture
    #: either, because :meth:`sync` (which it calls first) leaves it at
    #: rest: nobody parked, nobody frozen, every ``Worm.wake`` AWAKE.
    DERIVED_ATTRS = frozenset({"_waiters", "_n_frozen", "_cycle"})

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
            "watchdog_cycles": self.watchdog_cycles,
            "stagnant_cycles": self._stagnant_cycles,
            "probe": self._probe,
        }

    def load_state(self, state: dict) -> None:
        """Install a :meth:`state_dict` capture into this fabric.

        The fabric must have been constructed with the same topology and
        wiring as the captured one; everything in
        :data:`EXTERNAL_ATTRS` is left untouched.  Only the keys
        :meth:`state_dict` writes today are read: a capture from an
        older build may carry keys for since-retired fields, which are
        ignored (the ``version <= FORMAT_VERSION`` rule; docs/SNAPSHOT.md
        §1 lists them).
        """
        self._owner = dict(state["owner"])
        self._active = list(state["active"])
        self._pending = {key: deque(queue)
                         for key, queue in state["pending"].items()}
        self._pending_count = state["pending_count"]
        self._staged = list(state["staged"])
        self._route_cache = dict(state["route_cache"])
        self.route_cache_max = state["route_cache_max"]
        self.route_cache_hits = state["route_cache_hits"]
        self.route_cache_misses = state["route_cache_misses"]
        self._seq = state["seq"]
        self.stats = state["stats"]
        self.stats.mesh = self.mesh
        self.watchdog_cycles = state["watchdog_cycles"]
        self._stagnant_cycles = state["stagnant_cycles"]
        # Absent in pre-observatory captures: restore to un-probed.
        self._probe = state.get("probe")
        # Every captured worm is awake; a capture written before the
        # worm kernel lacks the sleep slots altogether.
        self._waiters = {}
        self._n_frozen = 0
        self._cycle = -1
        for worms in (self._active, *self._pending.values(),
                      (entry[2] for entry in self._staged)):
            for worm in worms:
                worm.wake = AWAKE
                worm.seen = 0
                worm.parked = None

    # ---------------------------------------------------------------- helpers

    def drain(self, now: int, max_cycles: int = 1_000_000) -> int:
        """Step until the network is empty; returns the finishing cycle.

        Only valid when message delivery does not trigger new sends (the
        synthetic micro-benchmarks); machines drive :meth:`step` directly.
        """
        cycle = now
        end = now + max_cycles
        while self.active and cycle < end:
            self.step(cycle)
            cycle += 1
        if self.active:
            raise ConfigurationError(f"network failed to drain in {max_cycles} cycles")
        return cycle
