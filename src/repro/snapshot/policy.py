"""When to checkpoint: the periodic auto-save policy.

A :class:`CheckpointPolicy` is handed to a simulator via its
``checkpoint`` attribute; the run loops poll it through
:class:`~repro.core.hooks.RunHooks` at their resumable points (the
cycle loop's top, the macro event loop's top).  The policy deliberately
knows nothing about the target beyond its ``save(path, run_limit=...)``
method, so one class serves both levels.
"""

from __future__ import annotations

from typing import Optional

__all__ = ["CheckpointPolicy"]


class CheckpointPolicy:
    """Save to ``path`` every ``every`` simulated cycles.

    ``path`` may contain ``{cycle}``, expanded to the capture cycle so
    successive checkpoints keep distinct files (a plain path is
    overwritten in place — crash-safe, see ``write_snapshot``).

    Run start only arms the clock: a checkpoint at cycle 0 would
    capture the state the caller already has.  Arming also sweeps
    any orphaned ``*.tmp.<pid>`` siblings of ``path`` left by a writer
    that died mid-checkpoint (:func:`~repro.snapshot.format
    .sweep_stale_tmp`) — the policy taking ownership of the path family
    is the one moment such leftovers are provably stale.
    """

    def __init__(self, path: str, every: int = 100_000,
                 meta: Optional[dict] = None) -> None:
        if every <= 0:
            raise ValueError("checkpoint interval must be positive")
        self.path = path
        self.every = every
        #: Extra header metadata stamped into every save (e.g. which
        #: scenario to rebuild before a macro restore).
        self.meta = meta
        self.next_due: Optional[int] = None
        #: Number of checkpoints written, and the last file's path —
        #: what tests and the smoke harness assert on.
        self.saves = 0
        self.last_path: Optional[str] = None
        self.last_header: Optional[dict] = None
        #: Stale temp files removed when the policy armed.
        self.swept: list = []

    def arm(self, now: int) -> None:
        """Start the clock at a run's first cycle (no-op once armed)."""
        if self.next_due is None:
            self.next_due = now + self.every
            from .format import sweep_stale_tmp

            self.swept = sweep_stale_tmp(self.path)

    def due(self, now: int) -> bool:
        """Is a checkpoint due at simulated time ``now``?  O(1)."""
        if self.next_due is None:
            self.arm(now)
            return False
        return now >= self.next_due

    def poll(self, target, now: int, run_limit: Optional[int] = None) -> None:
        """The run-loop hook: save ``target`` if a checkpoint is due."""
        if self.due(now):
            self.save(target, run_limit=run_limit, at=now)

    def save(self, target, run_limit: Optional[int] = None,
             at: Optional[int] = None) -> str:
        """Checkpoint ``target`` (a machine or macro sim) and re-arm.

        ``at`` overrides the cycle the clock re-arms from — the macro
        loop polls at the *next event's* time, since its own clock only
        advances when that event is processed.
        """
        reached = target.now if at is None else at
        path = self.path.format(cycle=reached)
        self.last_header = target.save(path, run_limit=run_limit,
                                       meta=self.meta)
        self.next_due = reached + self.every
        self.saves += 1
        self.last_path = path
        return path
