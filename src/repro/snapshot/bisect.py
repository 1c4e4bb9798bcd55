"""Time-travel debugging: find the first stalled cycle of a deadlock.

A deadlock diagnosis (:class:`~repro.core.errors.DeadlockError`) tells
you where the machine *was found* wedged — typically a full watchdog
window after it actually stopped.  Given a checkpoint from before the
stall, this module replays deterministically and binary-searches for the
moment progress ceased.

The search exploits a monotonicity the watchdog's progress signature
already has: ``(total instructions, messages completed, messages
submitted, deliveries committed)`` is component-wise non-decreasing in
time, and once the machine deadlocks it never changes again.  So
"replayed ``M`` cycles and reached the deadlock signature" is a monotone
predicate in ``M``, and the first stalled cycle is found with
``O(log(window))`` deterministic replays from the checkpoint — each one
a fresh restore, so probes cannot contaminate each other.

The result pairs per-node :class:`~repro.chaos.watchdog.NodeSnapshot`
captures at the stall cycle with the ones from the deadlock itself and
diffs them — the same snapshot type the watchdog raises with, so the
"what changed after the stall" view and the "what was stuck" view are
one vocabulary (usually the diff is empty: the interesting signal is
which nodes still had work and where their IPs parked).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..core.errors import DeadlockError, SnapshotError

__all__ = ["BisectResult", "bisect_deadlock"]

#: Telemetry events shown per implicated node around the stall cycle.
_EVENT_TAIL = 5
#: Cycles the detection run may take before the file counts as one
#: that does not deadlock.
MAX_CYCLES = 10_000_000


@dataclass
class BisectResult:
    """What the time-travel bisection established."""

    path: str                    # the checkpoint replayed from
    start_cycle: int             # checkpoint capture cycle
    deadlock_cycle: int          # where the watchdog/limit caught it
    first_stalled_cycle: int     # first cycle with the final signature
    probes: int                  # deterministic replays performed
    signature: Tuple[int, int, int, int]
    error: str                   # the DeadlockError's first line
    stall_snapshots: list = field(default_factory=list)
    dead_snapshots: list = field(default_factory=list)
    #: node_id -> {field: (at_stall, at_deadlock)}; empty dict = frozen.
    diffs: Dict[int, dict] = field(default_factory=dict)
    #: Last telemetry events at/before the stall cycle, newest last.
    last_events: List[tuple] = field(default_factory=list)

    def format(self) -> str:
        """Human-readable report (what the CLI prints)."""
        lines = [
            f"checkpoint {self.path} @ cycle {self.start_cycle}",
            f"deadlock detected at t={self.deadlock_cycle}: {self.error}",
            f"first stalled cycle: t={self.first_stalled_cycle} "
            f"(found in {self.probes} replays)",
            f"final progress signature: instructions={self.signature[0]} "
            f"completed={self.signature[1]} submitted={self.signature[2]} "
            f"deliveries={self.signature[3]}",
            "",
            f"node state at the stall (t={self.first_stalled_cycle}):",
        ]
        for snap in self.stall_snapshots:
            lines.append(f"  {snap}")
        lines.append("")
        lines.append("drift between stall and detection "
                     "(empty = frozen solid):")
        any_drift = False
        for node_id in sorted(self.diffs):
            delta = self.diffs[node_id]
            if delta:
                any_drift = True
                changes = ", ".join(f"{name}: {a} -> {b}"
                                    for name, (a, b) in sorted(delta.items()))
                lines.append(f"  node {node_id}: {changes}")
        if not any_drift:
            lines.append("  (none — every implicated node is identical at "
                         "both cycles)")
        if self.last_events:
            lines.append("")
            lines.append("last telemetry events before the stall:")
            for ts, kind, node, priority, name, dur, args in self.last_events:
                detail = f" {name}" if name else ""
                lines.append(f"  t={ts} node={node} {kind}{detail}")
        return "\n".join(lines)


def _load(path: str):
    """A fresh, observer-free machine from the checkpoint.

    Every probe replays from disk so no state leaks between replays.
    """
    from .state import load_machine

    machine = load_machine(path)
    machine.checkpoint = None
    machine.watchdog = None
    return machine


def bisect_deadlock(path: str, window: int) -> BisectResult:
    """Replay ``path`` to its deadlock, then bisect to the first stall.

    Raises :class:`SnapshotError` if the replayed run completes within
    :data:`MAX_CYCLES` (no deadlock to find).  ``window`` configures the
    watchdog installed for the initial detection run.
    """
    from ..chaos.watchdog import DeadlockWatchdog, machine_snapshots

    detector = _load(path)
    start = detector.now
    detector.watchdog = DeadlockWatchdog(window=window)
    try:
        detector.run_until_quiescent(max_cycles=MAX_CYCLES)
    except DeadlockError as exc:
        dead_at = exc.now
        dead_snapshots = list(exc.snapshots)
        error = str(exc).split("\n", 1)[0]
    else:
        raise SnapshotError(
            f"{path}: run completed without deadlocking; nothing to bisect")
    signature = detector.progress_signature()

    probes = 0

    def replay(cycles: int):
        """Machine state after exactly ``cycles`` replayed cycles."""
        nonlocal probes
        probes += 1
        machine = _load(path)
        machine.run(max_cycles=cycles)
        return machine

    # Smallest M with signature(M) == final signature.  Monotone:
    # progress counters never decrease and never change again after the
    # stall, so equality holds exactly on [first_stall, infinity).
    lo, hi = 0, dead_at - start
    while lo < hi:
        mid = (lo + hi) // 2
        machine = replay(mid)
        if machine.progress_signature() == signature:
            hi = mid
        else:
            lo = mid + 1
    first_stalled = start + lo

    stalled = replay(lo)
    stall_snapshots = machine_snapshots(stalled)
    stall_by_id = {snap.node_id: snap for snap in stall_snapshots}
    diffs: Dict[int, dict] = {}
    for dead in dead_snapshots:
        at_stall = stall_by_id.get(dead.node_id)
        if at_stall is not None:
            diffs[dead.node_id] = at_stall.diff(dead)
    last_events: List[tuple] = []
    telemetry = stalled.telemetry
    if telemetry is not None and telemetry.events is not None:
        # run-end is the probe's own bookkeeping, not history.
        last_events = [event for event in telemetry.events.events
                       if event[0] <= first_stalled
                       and event[1] != "run-end"][-_EVENT_TAIL:]
    return BisectResult(
        path=path,
        start_cycle=start,
        deadlock_cycle=dead_at,
        first_stalled_cycle=first_stalled,
        probes=probes,
        signature=signature,
        error=error,
        stall_snapshots=stall_snapshots,
        dead_snapshots=dead_snapshots,
        diffs=diffs,
        last_events=last_events,
    )
