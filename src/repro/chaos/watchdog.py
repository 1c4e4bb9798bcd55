"""Machine-level deadlock detection with per-node diagnostics.

:class:`DeadlockWatchdog` is the simulator's one stall detector.  It
watches the whole machine, so it also sees a machine that wedges with an
*empty* network — every node spinning on send faults against a full
buffer, or parked waiting for a message that was dropped.  If no
instruction retires, no message completes, and no delivery commits for a
full window of cycles while work is still outstanding, it raises
:class:`~repro.core.errors.DeadlockError` carrying a
:class:`NodeSnapshot` per implicated node — PC, queue depths, suspended
threads, spill occupancy — and a line per stuck worm naming the worm
that owns the channel it waits for, so a hung run fails with a diagnosis
instead of timing out with a generic error.  On the paper's mesh that
covers every network stall: e-cube routing is deadlock-free, so a chain
of blocked worms always ends at a refusing endpoint or a dead router.

The watchdog is pull-based and cheap: the run loop polls it through
:class:`~repro.core.hooks.RunHooks` (one integer comparison per pass);
the (O(nodes)) progress signature is only computed every ``interval``
cycles.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields
from typing import Dict, List, Optional, Tuple

from ..core.errors import DeadlockError
from ..core.hooks import ProgressGauge
from ..core.registers import Priority

__all__ = ["NodeSnapshot", "DeadlockWatchdog", "snapshot_node",
           "machine_snapshots"]


@dataclass
class NodeSnapshot:
    """One node's state at the moment a deadlock was detected."""

    node_id: int
    ip: int                     # priority-0 program counter
    p0_depth: int               # queued messages, priority 0
    p1_depth: int               # queued messages, priority 1
    suspended: int              # threads parked on presence faults
    runnable: int               # suspended threads made runnable again
    spilled: int                # messages in the software overflow area
    instructions: int           # lifetime instruction count
    send_faults: int            # lifetime send-fault count
    next_tick: Optional[int]    # when the machine would tick it (None=parked)
    has_work: bool

    def __str__(self) -> str:
        state = "runnable" if self.has_work else "parked"
        return (
            f"node {self.node_id:4d}: ip={self.ip:#06x} "
            f"q0={self.p0_depth} q1={self.p1_depth} "
            f"susp={self.suspended} run={self.runnable} "
            f"spill={self.spilled} instr={self.instructions} "
            f"sfaults={self.send_faults} tick={self.next_tick} [{state}]"
        )

    def to_dict(self) -> dict:
        """Plain-dict form (snapshot headers, the ``diff`` CLI)."""
        return asdict(self)

    @staticmethod
    def from_dict(data: dict) -> "NodeSnapshot":
        return NodeSnapshot(**data)

    def diff(self, other: "NodeSnapshot") -> Dict[str, Tuple]:
        """Fields that changed between two captures of the same node.

        Returns ``{field: (self_value, other_value)}``; empty when the
        node did not move.  Used by the time-travel bisector to show
        exactly what a node did (or stopped doing) between the last
        progressing cycle and the deadlock.
        """
        out: Dict[str, Tuple] = {}
        for field in fields(self):
            a = getattr(self, field.name)
            b = getattr(other, field.name)
            if a != b:
                out[field.name] = (a, b)
        return out


def snapshot_node(node) -> NodeSnapshot:
    """Capture one :class:`~repro.machine.node.Node`'s diagnostic state."""
    proc = node.proc
    counters = proc.counters
    return NodeSnapshot(
        node_id=node.node_id,
        ip=proc.registers[Priority.P0].ip,
        p0_depth=len(proc.queues[Priority.P0]),
        p1_depth=len(proc.queues[Priority.P1]),
        suspended=sum(len(ts) for ts in proc._watch.values()),
        runnable=(len(proc._runnable[Priority.P0])
                  + len(proc._runnable[Priority.P1])),
        spilled=len(proc._spill),
        instructions=counters.instructions,
        send_faults=counters.send_faults,
        next_tick=node.next_tick,
        has_work=proc.has_work(),
    )


def machine_snapshots(machine, only_busy: bool = True) -> List[NodeSnapshot]:
    """Snapshot every (by default: every *implicated*) node of a machine.

    ``only_busy`` keeps the report readable on big machines: nodes that
    are parked with nothing queued, suspended, or spilled are omitted
    unless *no* node has work (then everything is included so the report
    is never empty).
    """
    snaps = [snapshot_node(node) for node in machine.nodes]
    if only_busy:
        busy = [s for s in snaps
                if s.has_work or s.suspended or s.spilled
                or s.p0_depth or s.p1_depth]
        if busy:
            return busy
    return snaps


class DeadlockWatchdog:
    """No-progress detector for :class:`~repro.machine.jmachine.JMachine`.

    Progress means any of: an instruction retired anywhere, a message
    completed its network traversal, a new message was submitted, or a
    staged delivery committed.  Blocked cycles, send-fault retries, and
    delivery stalls are *not* progress — they are precisely the activity
    a deadlocked machine keeps burning.

    The polled machine supplies ``progress_signature()`` (those four
    counters) and is the machine diagnosed once the window has passed.

    Args:
        window: cycles without progress before the watchdog trips.
        interval: how often (in cycles) the progress signature is
            recomputed; defaults to ``window // 8`` so detection latency
            stays within ~12% of the window at ~zero polling cost.
    """

    def __init__(self, window: int,
                 interval: Optional[int] = None) -> None:
        if window <= 0:
            raise ValueError("watchdog window must be positive")
        self.window = window
        self.interval = max(1, window // 8) if interval is None else interval
        self.next_due = 0
        self._gauge = ProgressGauge()
        #: Number of times the watchdog has tripped (before raising).
        self.trips = 0

    def arm(self, now: int = 0) -> None:
        """Forget history: every run starts a fresh window."""
        self.next_due = now
        self._gauge.reset(now)

    # -- the hot-path poll ---------------------------------------------------

    def poll(self, target, now: int, run_limit: Optional[int] = None) -> None:
        """Cheap per-pass check; raises :class:`DeadlockError`."""
        if now < self.next_due:
            return
        self.next_due = now + self.interval
        stalled = self._gauge.observe(target.progress_signature(), now)
        if stalled >= self.window:
            self._trip(target, now)

    # -- the trip ------------------------------------------------------------

    def _trip(self, machine, now: int) -> None:
        self.trips += 1
        snapshots = machine_snapshots(machine)
        fabric = machine.fabric
        worms = fabric.worms_in_flight
        telemetry = machine.telemetry
        if telemetry is not None and telemetry.events is not None:
            telemetry.events.emit("watchdog", now, -1, name="deadlock",
                                  worms=worms, nodes=len(snapshots))
        raise DeadlockError(
            "\n  ".join([
                f"no progress for {self.window} cycles at t={now}: "
                f"no instruction retired, no message completed, no "
                f"delivery committed; {worms} worms in flight, "
                f"{len(snapshots)} nodes implicated:",
                *fabric.stuck_worms()]),
            now=now,
            snapshots=snapshots,
            worms_in_flight=worms,
        )
