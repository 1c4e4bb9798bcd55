"""The run loops' one view of their observers.

Checkpoint policies, live samplers and deadlock watchdogs all watch a
run the same way: wait for a simulated cycle, look at the target, pick
the next cycle to wait for.  Each therefore exposes the same duck-typed
surface — ``arm(now)`` at run start, an integer ``next_due``, and
``poll(target, now, run_limit)`` that does its own due-check, action and
re-arm — and a loop holds one :class:`RunHooks` per poll site, so the
un-observed price of a site is one integer compare::

    if now >= hooks.next_due:
        hooks.fire(now)

A loop states once, above its body, which observers poll at which site;
the body itself never names one (docs/ARCHITECTURE.md, "Run-loop
observers").  :class:`ProgressGauge` is the no-progress window those
observers, and the service's leases, share.
"""

from __future__ import annotations

import sys

__all__ = ["RunHooks", "ProgressGauge"]


class RunHooks:
    """The observers polled at one site of one run, in polling order."""

    def __init__(self, target, now: int, run_limit, *observers) -> None:
        #: What the observers inspect (and, for checkpoints, save).
        self.target = target
        self.run_limit = run_limit
        self.observers = [o for o in observers if o is not None]
        for observer in self.observers:
            observer.arm(now)
        self._rearm()

    def fire(self, now: int) -> None:
        """Poll the observers (each acts only if it is due at ``now``);
        refresh :attr:`next_due`."""
        for observer in self.observers:
            observer.poll(self.target, now, self.run_limit)
        self._rearm()

    def _rearm(self) -> None:
        #: Earliest cycle any observer wants a poll; ``sys.maxsize`` when
        #: nothing is attached, so the loop's compare never passes.
        self.next_due = min((o.next_due for o in self.observers),
                            default=sys.maxsize)


class ProgressGauge:
    """The no-progress window at the heart of every stall detector.

    Feed it a *progress signature* — any value that changes whenever
    real work happens — together with a monotone clock reading, and it
    answers how long the signature has been frozen.  The deadlock
    watchdog (:mod:`repro.chaos.watchdog`) applies the idea to a
    machine's instruction/delivery counters on the simulated clock; the
    live sampler applies it to its frames' counters on the wall clock
    (the ``stalled`` flag); the simulation service's supervisor applies
    it to each worker's relayed ``sim_now`` on the wall clock to catch a
    *hung* worker (heartbeats still arriving, simulation pinned) that
    lease expiry alone would never see.

    The clock is generic: pass cycles and get cycles back, pass wall
    seconds and get seconds back.
    """

    __slots__ = ("_last_signature", "_progress_at")

    def __init__(self, now=0) -> None:
        self._last_signature = None
        self._progress_at = now

    def reset(self, now=0) -> None:
        """Forget history (call between independent runs)."""
        self._last_signature = None
        self._progress_at = now

    def observe(self, signature, now):
        """Record one observation; returns time stalled at ``now``.

        A changed signature counts as progress and returns 0; an
        unchanged one returns ``now`` minus the last change's clock
        reading.  The first observation always counts as progress.
        """
        if self._last_signature is None or \
                signature != self._last_signature:
            self._last_signature = signature
            self._progress_at = now
            return 0
        return now - self._progress_at
