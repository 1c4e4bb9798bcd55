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
observers").
"""

from __future__ import annotations

import sys

__all__ = ["RunHooks"]


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
