"""The per-cycle reference loop: the test oracle for the worm kernel.

:class:`ReferenceFabric` is the fabric as it stepped before the worm
kernel: :meth:`step` visits every in-flight worm every cycle through
:meth:`_step_worm`, with no sleeping, no closed-form catch-up and no
window jumps.  It overrides ``step`` only — staging, activation,
arbitration order, release, completion, bounce and the watchdog report
are the shared :class:`~repro.network.fabric.Fabric` code — so a
difference between the two is a difference in *when worms are visited*,
which is exactly what the kernel changes.  The body below is the former
``Fabric.step`` / ``Fabric._step_worm`` verbatim; do not optimise it.
"""

from repro.network.fabric import BUFFER_PHITS, Fabric, Worm


def observable_state(fabric: Fabric, log=()) -> dict:
    """Everything the kernel must agree with the oracle on, as of the
    last simulated cycle: worm fields (after ``sync()``: a sleeper's are
    stale by design), the owner map, every integer statistic, the
    latency histogram, the probe's counters and the callback log."""
    fabric.sync()
    probe = fabric.probe
    return {
        "worms": sorted(
            (w.seq, w.head, w.released, w.injected, w.delivered,
             w.reserved, w.block_cycles, w.akey, w.launch_time)
            for w in fabric._active),
        "owner": sorted((key, w.seq) for key, w in fabric._owner.items()),
        "pending": {key: [w.seq for w in queue]
                    for key, queue in fabric._pending.items()},
        "staged": sorted((at, seq) for at, seq, _ in fabric._staged),
        "stats": {k: v for k, v in vars(fabric.stats).items()
                  if isinstance(v, int)},
        "latency": fabric.stats.latency.snapshot(),
        "probe": probe.to_dict() if probe is not None else None,
        "log": list(log),
    }


class ReferenceFabric(Fabric):
    """Every worm, every cycle."""

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
