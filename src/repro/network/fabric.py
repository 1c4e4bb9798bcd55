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
from .vectorize import PyLanes

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

AcceptFn = Callable[[int, Message], bool]
DeliverFn = Callable[[int, Message, int], None]


class Worm:
    """One message in flight: a worm of phits snaking through the mesh."""

    __slots__ = (
        "message", "path", "keys", "hops", "total_phits", "head", "released",
        "injected", "delivered", "reserved", "submit_time", "launch_time",
        "seq", "block_cycles", "crosses_bisection", "done", "pri", "akey",
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
        #: injection port (see :meth:`Fabric.step`).
        self.akey = (-self.pri, 1, seq)


class Fabric:
    """The whole network: channels, arbitration, and worm progression.

    The fabric is cycle stepped: the owner (a machine or a synthetic
    traffic harness) calls :meth:`step` once per simulated cycle while
    :attr:`active` is truthy.  Message hand-off to nodes goes through two
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
        #: Telemetry event bus (installed by repro.telemetry.wiring).
        self._events = None
        #: Fault-injection engine (installed by
        #: :meth:`repro.chaos.ChaosEngine.attach_machine`); None keeps
        #: every injection site on its cheap ``is None`` branch.
        self.chaos = None
        #: Fabric observatory probe
        #: (:class:`~repro.network.observatory.FabricProbe`); None keeps
        #: every accumulation site on its cheap ``is None`` branch so
        #: un-probed runs stay bit-identical.
        self.probe: Optional[FabricProbe] = None

    def attach_probe(self, now: int = 0) -> FabricProbe:
        """Attach (and return) a fresh observatory probe.

        Call before traffic starts so utilization denominators cover the
        whole run; re-attaching discards previous counters.
        """
        self.probe = FabricProbe(opened_at=now)
        return self.probe

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
        for worm in self._active:
            remaining = worm.total_phits - worm.injected
            if remaining > 0 and (best is None or remaining < best):
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
        probe = self.probe
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
        """Advance every worm by one cycle of network time."""
        if self._staged and self._staged[0][0] <= now:
            self._release_staged(now)
        if self._pending_count:
            self._activate_pending(now)
        if not self._active:
            return
        self._arbitrate(self._active, now)
        finished = False
        moved_any = False
        for worm in self._active:
            before = worm.injected + worm.delivered + worm.head
            if self._step_worm(worm, now):
                finished = True
                moved_any = True
            elif worm.injected + worm.delivered + worm.head != before:
                moved_any = True
        if finished:
            self._active = [w for w in self._active if not w.done]
        if self.watchdog_cycles:
            self._stagnant_cycles = 0 if moved_any else self._stagnant_cycles + 1
            if self._stagnant_cycles >= self.watchdog_cycles:
                self._raise_stagnation(now)

    def _step_worm(self, worm: Worm, now: int) -> bool:
        """Advance one worm one cycle; True if it completed delivery."""
        last = len(worm.path) - 1
        moved = False

        # 1. Head acquisition: one hop per cycle when the next VC is free
        #    *and* the link is up (chaos link outages hold the head in
        #    place exactly like contention, so backpressure — and, if the
        #    outage persists, deadlock — propagates realistically).
        if worm.head < last:
            key = worm.keys[worm.head + 1]
            blocked = self._owner.get(key) is not None
            outage = False
            if (not blocked and self.chaos is not None
                    and self.chaos.link_blocked(key, now)):
                blocked = outage = True
            if blocked:
                worm.block_cycles += 1
                self.stats.block_cycles += 1
                if self.probe is not None:
                    self.probe.record_block(key, outage)
            else:
                self._owner[key] = worm
                worm.head += 1
                if worm.head == 1:
                    # Left the injection port: now "through traffic",
                    # which fixed arbitration favours.
                    worm.akey = (-worm.pri, 0, worm.seq)
                moved = True

        # 2. Delivery: once the ejection port is held, stream phits out.
        if worm.head == last:
            if not worm.reserved:
                message = worm.message
                is_bounce = getattr(message, "bounce_of", None) is not None
                if is_bounce or self.accept_fn(message.dest, message):
                    worm.reserved = True
                elif self.flow_control == "return_to_sender":
                    # Refused: turn the worm around instead of blocking
                    # the network (the critique's proposed protocol).
                    self._bounce(worm, now)
                    return True
                else:
                    self.stats.delivery_stall_cycles += 1
                    if self.probe is not None:
                        self.probe.record_backpressure(message.dest)
            if worm.reserved and worm.delivered < min(worm.total_phits, worm.injected):
                worm.delivered += 1
                moved = True
                if worm.delivered == worm.total_phits:
                    self._complete(worm, now)
                    return True

        # 3. Injection: the source streams one phit per cycle while the
        #    held span has buffer slack.
        if worm.head >= 0 and worm.injected < worm.total_phits:
            span = worm.head - worm.released + 1
            if worm.injected - worm.delivered < BUFFER_PHITS * span:
                worm.injected += 1
                moved = True
                if worm.injected == worm.total_phits:
                    self._report_injected(worm.message)

        # 4. Tail release: after full injection the tail advances with the
        #    pipe, freeing channels behind the in-flight span.
        if worm.injected == worm.total_phits and moved:
            in_flight = worm.injected - worm.delivered
            span_needed = max(1, -(-in_flight // BUFFER_PHITS))
            target = worm.head - span_needed + 1
            while worm.released < target:
                self._release(worm, worm.released)
                worm.released += 1
        return False

    def _report_injected(self, message: Message) -> None:
        """The tail left the sending interface: tell the owner, once per
        message (a bounced copy is not the sender's to free)."""
        if (self.on_injected is not None and message.bounce_of is None
                and not message.injection_reported):
            message.injection_reported = True
            self.on_injected(message)

    # ------------------------------------------------------------- batching

    def can_batch(self) -> bool:
        """May :meth:`advance` replace per-cycle :meth:`step` calls?

        Batch eligibility is conservative: any feature whose per-cycle
        hooks observe or perturb the cycle-by-cycle interleaving (fault
        injection, the stagnation watchdog, return-to-sender bounces)
        keeps the fabric on the exact reference path.
        """
        return ((self.chaos is None or self.chaos.inert)
                and self.watchdog_cycles == 0
                and self.flow_control == "block")

    def advance(self, now: int, horizon: int) -> int:
        """Simulate cycles ``[now, end)`` in one call; returns ``end``.

        The caller (the machine's run loop) guarantees a *quiet window*:
        no new sends, no delivery commits, and no processor activity can
        occur before ``horizon``, and ``accept_fn`` is a pure function of
        state that cannot change inside the window.  Under those
        conditions this method is cycle-exact with ``step(now) ..
        step(end - 1)``: identical worm state, owner map, statistics,
        and callback timing.

        Worms are split into a *conflict pool* — any worm sharing a
        channel key with another active, pending, or staged worm — and a
        *solo* rest.  Conflict worms go through :meth:`_step_worm`
        per cycle in exact arbitration order; solo worms advance on
        integer lanes (:class:`~repro.network.vectorize.PyLanes`), touching
        the owner map only on entry/exit of the batch.  The window ends
        early when a completion schedules a delivery commit the machine
        must observe (``completion + eject_latency``).
        """
        # ---- conflict partition over every worm that could touch a channel
        seen: Dict[Tuple[int, int, int, int], Worm] = {}
        conflicted = set()

        def scan(worm: Worm) -> None:
            for key in worm.keys:
                other = seen.get(key)
                if other is None:
                    seen[key] = worm
                else:
                    conflicted.add(other.seq)
                    conflicted.add(worm.seq)

        for w in self._active:
            scan(w)
        for q in self._pending.values():
            for w in q:
                scan(w)
        for _, _, w in self._staged:
            scan(w)
        pool = [w for w in self._active if w.seq in conflicted]
        solo = [w for w in self._active if w.seq not in conflicted]
        lanes = None
        if solo:
            lanes = PyLanes(solo, BUFFER_PHITS, self.accept_fn,
                            track_stalls=self.probe is not None)

        staged = self._staged
        stats = self.stats
        eject = self.eject_latency
        owner = self._owner
        any_finished = False
        end = horizon
        c = now
        while c < end:
            if staged and staged[0][0] <= c:
                self._release_staged(c)
            if self._pending_count:
                before = len(self._active)
                self._activate_pending(c)
                # Fresh worms join the conflict pool: the partition
                # already proved they cannot touch a solo worm (pending
                # and staged footprints were scanned above).
                pool.extend(self._active[before:])
            if pool:
                if len(pool) > 1:
                    self._arbitrate(pool, c)
                finished_here = False
                for w in pool:
                    if self._step_worm(w, c):
                        finished_here = True
                        any_finished = True
                        arrival = c + eject
                        if arrival < end:
                            end = arrival
                if finished_here:
                    pool = [w for w in pool if not w.done]
            if lanes is not None and lanes.alive:
                completed, inj_done, stalls = lanes.cycle()
                if stalls:
                    stats.delivery_stall_cycles += stalls
                if inj_done is not None:
                    for j in inj_done:
                        self._report_injected(solo[j].message)
                if completed is not None:
                    any_finished = True
                    for j in completed:
                        self._finish_solo(solo[j], c)
                    arrival = c + eject
                    if arrival < end:
                        end = arrival
            c += 1
            if (not pool and (lanes is None or not lanes.alive)
                    and not staged and not self._pending_count):
                break  # the fabric drained inside the window

        # Write live solo lanes back and reconcile the owner map: the
        # net effect of the skipped acquisitions/releases is that each
        # worm owns exactly keys[released : head + 1].
        if lanes is not None:
            for w, nh, nr, ni, nd, nres in lanes.alive_states():
                keys = w.keys
                for idx in range(w.head + 1, nh + 1):
                    owner[keys[idx]] = w
                for idx in range(w.released, nr):
                    key = keys[idx]
                    if owner.get(key) is w:
                        del owner[key]
                if nh > 0 and w.head == 0:
                    w.akey = (-w.pri, 0, w.seq)
                w.head = nh
                w.released = nr
                w.injected = ni
                w.delivered = nd
                w.reserved = nres
            if self.probe is not None:
                # Fold the lanes' per-worm refused-at-eject counts into
                # the probe; totals match the per-cycle reference path
                # (order of accumulation is immaterial for counters).
                for j, n in lanes.stall_counts():
                    self.probe.record_backpressure(solo[j].message.dest, n)
        if any_finished:
            self._active = [w for w in self._active if not w.done]
        return c

    def _finish_solo(self, worm: Worm, now: int) -> None:
        """A solo-lane worm delivered its last phit: write the lane's
        end state back, then :meth:`_complete` it.  ``released`` keeps
        its pre-batch value so every channel the worm still holds in
        the owner map (the lanes never touch it) is freed."""
        worm.head = len(worm.path) - 1
        worm.injected = worm.delivered = worm.total_phits
        worm.reserved = True
        self._complete(worm, now)

    def _release(self, worm: Worm, index: int) -> None:
        key = worm.keys[index]
        if self._owner.get(key) is worm:
            del self._owner[key]

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
        original = getattr(worm.message, "bounce_of", None)
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
        if self.probe is not None:
            self.probe.record_completion(worm)
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

    def state_dict(self) -> dict:
        """Every run-mutable piece of fabric state, picklable.

        Worms are captured by reference (they pickle via ``__slots__``),
        so the sharing structure — one worm appearing as a channel owner,
        in the active list, and in a pending queue — survives the
        round trip through the snapshot's single pickle.
        """
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
            "probe": self.probe,
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
        self.probe = state.get("probe")

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
