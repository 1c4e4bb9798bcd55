"""Heartbeat-backed job leases and the fleet watchdog.

A worker never *owns* a job; it holds a **lease** that stays valid only
while the worker proves liveness two ways:

* **heartbeats** — protocol messages on the worker's pipe, every
  ``heartbeat_s``.  Silence past ``timeout_s`` (crash, ``kill -9``,
  wedged interpreter) expires the lease.
* **progress** — each heartbeat carries the worker's simulated clock
  (``sim_now`` from its live sampler).  A worker that heartbeats
  happily while its simulation is pinned — the hung-loop failure mode
  :class:`~repro.chaos.watchdog.DeadlockWatchdog` exists for at the
  *simulated* level — is caught by the same no-progress-window logic
  (:class:`~repro.core.hooks.ProgressGauge`) applied on the wall
  clock: no ``sim_now`` advance for ``progress_window_s`` expires the
  lease even though heartbeats keep arriving.

Expiry is detection only: the supervisor revokes (kills the worker,
requeues the job under the queue's retry budget).  Nothing polls the
table: :meth:`LeaseTable.next_expiry` is the host time the earliest
live lease would expire at, and the supervisor's watchdog sleeps until
then.  Like the queue, the table is externally synchronized by the
supervisor's lock.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Tuple

from ..core.hooks import ProgressGauge

__all__ = ["Lease", "LeaseTable"]


class Lease:
    """One worker's claim on one job."""

    __slots__ = ("digest", "worker", "last_heartbeat", "sim_now",
                 "stalled_s", "heartbeats", "revoked", "_gauge")

    def __init__(self, digest: str, worker: int, now: float) -> None:
        self.digest = digest
        self.worker = worker
        self.last_heartbeat = now
        self.sim_now = 0
        #: Wall seconds the simulated clock has been frozen, as of the
        #: latest heartbeat (0.0 while progressing).
        self.stalled_s = 0.0
        self.heartbeats = 0
        #: Why the watchdog revoked this lease ("" while it is live).  A
        #: revoked lease stays in the table until its worker's pipe
        #: reaches EOF, and must not expire a second time meanwhile.
        self.revoked = ""
        self._gauge = ProgressGauge(now)

    def beat(self, sim_now: int, now: float) -> None:
        self.last_heartbeat = now
        self.sim_now = sim_now
        self.heartbeats += 1
        self.stalled_s = float(self._gauge.observe(sim_now, now))

    def to_dict(self) -> dict:
        return {"digest": self.digest, "worker": self.worker,
                "sim_now": self.sim_now, "heartbeats": self.heartbeats,
                "stalled_s": round(self.stalled_s, 3)}


class LeaseTable:
    """All live leases, keyed by worker id (one job per worker)."""

    def __init__(self, *, timeout_s: float, progress_window_s: float,
                 clock=time.monotonic) -> None:
        if timeout_s <= 0 or progress_window_s <= 0:
            raise ValueError("lease windows must be positive")
        self.timeout_s = timeout_s
        self.progress_window_s = progress_window_s
        self.clock = clock
        self.leases: Dict[int, Lease] = {}
        self.granted = 0
        self.revoked = 0
        self.expiries: Dict[str, int] = {"lost": 0, "stalled": 0}

    def grant(self, digest: str, worker: int) -> Lease:
        assert worker not in self.leases, f"worker {worker} already leased"
        lease = Lease(digest, worker, self.clock())
        self.leases[worker] = lease
        self.granted += 1
        return lease

    def heartbeat(self, worker: int, sim_now: int) -> Optional[Lease]:
        """Record a heartbeat; None if the worker holds no lease
        (a stale message from a just-revoked worker — ignored)."""
        lease = self.leases.get(worker)
        if lease is not None:
            lease.beat(sim_now, self.clock())
        return lease

    def release(self, worker: int) -> Optional[Lease]:
        """Drop a worker's lease (job finished or worker died)."""
        return self.leases.pop(worker, None)

    def expired(self, now: Optional[float] = None
                ) -> List[Tuple[Lease, str]]:
        """Leases the watchdog would revoke right now, with reasons.

        ``"lost"``: no heartbeat within ``timeout_s`` — the worker is
        dead or unreachable.  ``"stalled"``: heartbeats flowing but the
        simulated clock frozen past ``progress_window_s`` — the worker
        is alive and hung.  Detection only; the caller revokes.
        """
        now = self.clock() if now is None else now
        out: List[Tuple[Lease, str]] = []
        for lease in self.leases.values():
            if lease.revoked:
                continue
            silent = now - lease.last_heartbeat
            if silent >= self.timeout_s:
                out.append((lease, "lost"))
            elif self.stalled(lease):
                out.append((lease, "stalled"))
        return out

    def stalled(self, lease: Lease) -> bool:
        """Heartbeating, but its simulated clock has been frozen for the
        whole progress window (as of its latest heartbeat)."""
        return lease.stalled_s >= self.progress_window_s

    def next_expiry(self) -> Optional[float]:
        """When the earliest live lease expires, on this table's clock.

        ``last_heartbeat + timeout_s`` for a lease in good standing; a
        stalled one is due at once (its stall was seen at its last
        heartbeat).  None when no live lease is held.  Heartbeats only
        move the answer later, so a sleeper that wakes at a stale
        answer finds nothing expired and asks again.
        """
        due = [lease.last_heartbeat
               + (0.0 if self.stalled(lease) else self.timeout_s)
               for lease in self.leases.values() if not lease.revoked]
        return min(due, default=None)

    def revoke(self, lease: Lease, reason: str) -> None:
        """Account one expiry and take the lease out of the watch."""
        lease.revoked = reason
        self.note_expiry(reason)

    def note_expiry(self, reason: str) -> None:
        self.expiries[reason] = self.expiries.get(reason, 0) + 1
        self.revoked += 1

    def __len__(self) -> int:
        return len(self.leases)

    def to_dict(self) -> dict:
        return {"active": [lease.to_dict()
                           for lease in self.leases.values()],
                "granted": self.granted, "revoked": self.revoked,
                "expiries": dict(self.expiries)}
