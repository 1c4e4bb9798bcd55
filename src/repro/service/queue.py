"""The bounded job queue: admission, backpressure, and retry budgets.

One :class:`Job` record per distinct spec digest tracks the whole
lifecycle::

    submit ──> queued ──lease──> leased ──result──> done
                  ^                 │
                  └──requeue(+backoff)── worker died / lease revoked
                                    │
                                    └──error / budget exhausted──> failed

Admission is *bounded*: when ``pending`` (queued + leased) reaches the
limit, new work is **shed** with an explicit response instead of
accepted into an ever-growing backlog — the classic load-shedding side
of graceful degradation; the submitter sees ``"shed"`` (HTTP 503) and
owns the retry.  Duplicate submissions of an in-flight digest attach
to the existing record rather than occupying another slot, so a
storm of identical sweeps costs one execution.

A requeue (worker crash, revoked lease) spends one unit of the job's
retry budget and delays re-dispatch by seeded-jitter exponential
backoff (:func:`~repro.runtime.rpc.backoff_delay` — the same helper
the reliable transport uses at simulation level), so a fleet-wide
failure does not thunder straight back onto the replacement workers.

The queue is **externally synchronized**: the supervisor serializes
every call under its own lock, so the queue carries no locking of its
own (and is therefore trivially testable).
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional

from ..runtime.rpc import backoff_delay
from .spec import JobSpec

__all__ = ["Job", "JobQueue", "STATES"]

#: The closed job-state vocabulary.
STATES = ("queued", "leased", "done", "failed", "shed")


def _ms(start: Optional[float], end: Optional[float]) -> Optional[float]:
    if start is None or end is None:
        return None
    return round((end - start) * 1e3, 3)


class Job:
    """One submitted spec's lifecycle record."""

    __slots__ = ("spec", "state", "attempts", "not_before", "result",
                 "error", "cached", "worker", "submitted_at", "leased_at",
                 "finished_at", "exec_s", "requeues")

    def __init__(self, spec: JobSpec, now: float) -> None:
        self.spec = spec
        self.state = "queued"
        #: Execution attempts started (1 = first lease).
        self.attempts = 0
        #: Times the job was returned to the queue after a lease.
        self.requeues = 0
        #: Wall deadline (monotonic) before which it may not be leased.
        self.not_before = now
        self.result: Optional[Dict[str, Any]] = None
        self.error = ""
        self.cached = False
        self.worker: Optional[int] = None
        #: Host-time stamps (the queue's clock) of the lifecycle edges;
        #: ``leased_at`` is the latest lease when there were several.
        self.submitted_at = now
        self.leased_at: Optional[float] = None
        self.finished_at: Optional[float] = None
        #: Wall seconds the worker spent in ``execute_job``, as the
        #: worker reported them beside its result.
        self.exec_s: Optional[float] = None

    @property
    def digest(self) -> str:
        return self.spec.digest

    def to_dict(self) -> Dict[str, Any]:
        """The /jobs/<digest> response body."""
        return {
            "digest": self.digest,
            "app": self.spec.app,
            "n_nodes": self.spec.n_nodes,
            "state": self.state,
            "attempts": self.attempts,
            "requeues": self.requeues,
            "cached": self.cached,
            "worker": self.worker,
            "error": self.error,
            "result": self.result,
            "timing": self.timing(),
        }

    def timing(self) -> Dict[str, Optional[float]]:
        """Where the host time went, in ms; None for a stage not reached.

        ``queued_ms`` runs from submission to the latest lease,
        ``run_ms`` from that lease to the result, and ``exec_ms`` is the
        part of ``run_ms`` the worker spent executing — the rest is
        pipe, JSON and scheduling.  Host time, so never part of
        ``result``, which is the deterministic cached artifact.
        """
        return {
            "queued_ms": _ms(self.submitted_at, self.leased_at),
            "run_ms": _ms(self.leased_at, self.finished_at),
            "exec_ms": _ms(0.0, self.exec_s),
        }


class JobQueue:
    """Bounded FIFO of :class:`Job` records keyed by spec digest."""

    def __init__(self, limit: int = 32, max_retries: int = 3,
                 backoff_s: float = 0.25, backoff_factor: float = 2.0,
                 jitter: float = 0.5, seed: int = 0,
                 clock=time.monotonic) -> None:
        if limit < 1:
            raise ValueError("queue limit must be positive")
        self.limit = limit
        self.max_retries = max_retries
        self.backoff_s = backoff_s
        self.backoff_factor = backoff_factor
        self.jitter = jitter
        self.seed = seed
        self.clock = clock
        #: Every record ever admitted (done/failed stay for /jobs).
        self.jobs: Dict[str, Job] = {}
        #: Dispatch order among queued digests (FIFO by submission,
        #: requeues go to the back).
        self._order: List[str] = []
        self.shed_count = 0

    # -- admission -----------------------------------------------------------

    def pending(self) -> int:
        return sum(1 for job in self.jobs.values()
                   if job.state in ("queued", "leased"))

    def submit(self, spec: JobSpec) -> Job:
        """Admit, deduplicate, or shed one spec; returns its record.

        A shed submission returns a *throwaway* record in state
        ``"shed"`` — it is not retained, so a later resubmission (when
        the queue has drained) is admitted normally.
        """
        now = self.clock()
        existing = self.jobs.get(spec.digest)
        if existing is not None and existing.state != "failed":
            return existing
        if self.pending() >= self.limit:
            self.shed_count += 1
            shed = Job(spec, now)
            shed.state = "shed"
            shed.error = f"queue full ({self.limit} jobs pending)"
            return shed
        job = Job(spec, now)
        self.jobs[spec.digest] = job
        self._order.append(spec.digest)
        return job

    def adopt(self, spec: JobSpec, result: Dict[str, Any]) -> Job:
        """Record a cache hit as a completed job (never queued)."""
        job = self.jobs.get(spec.digest)
        if job is None:
            job = Job(spec, self.clock())
            self.jobs[spec.digest] = job
        job.state = "done"
        job.result = result
        job.cached = True
        job.finished_at = self.clock()
        return job

    # -- dispatch ------------------------------------------------------------

    def next_ready(self, now: Optional[float] = None,
                   retries_only: bool = False) -> Optional[Job]:
        """The first queued job whose backoff deadline has passed.

        ``retries_only`` restricts dispatch to jobs that have already
        held a lease (``attempts > 0``) — the drain path finishes
        interrupted work without starting fresh jobs.
        """
        now = self.clock() if now is None else now
        for digest in self._order:
            job = self.jobs.get(digest)
            if job is None or job.state != "queued":
                continue
            if retries_only and job.attempts == 0:
                continue
            if job.not_before <= now:
                return job
        return None

    def next_not_before(self, retries_only: bool = False
                        ) -> Optional[float]:
        """The earliest backoff deadline still ahead, or None.

        A queued job whose deadline has passed is waiting for a worker,
        not for the clock, so it sets no deadline: whatever frees a
        worker dispatches it.  ``retries_only`` as in :meth:`next_ready`.
        """
        now = self.clock()
        ahead = [job.not_before
                 for job in map(self.jobs.get, self._order)
                 if job is not None and job.state == "queued"
                 and job.not_before > now
                 and not (retries_only and job.attempts == 0)]
        return min(ahead, default=None)

    def lease(self, job: Job, worker: int) -> None:
        assert job.state == "queued", job.state
        job.state = "leased"
        job.attempts += 1
        job.worker = worker
        job.leased_at = self.clock()
        self._order.remove(job.digest)

    # -- outcomes ------------------------------------------------------------

    def complete(self, job: Job, result: Dict[str, Any]) -> None:
        job.state = "done"
        job.result = result
        job.worker = None
        job.finished_at = self.clock()

    def fail(self, job: Job, error: str) -> None:
        job.state = "failed"
        job.error = error
        job.worker = None
        job.finished_at = self.clock()

    def requeue(self, job: Job, reason: str) -> bool:
        """Return a leased job to the queue; False = budget exhausted.

        The re-dispatch delay is seeded-jitter exponential backoff
        keyed by the job digest, so two jobs orphaned by the same
        worker crash come back staggered, not in lockstep.
        """
        assert job.state == "leased", job.state
        job.requeues += 1
        job.worker = None
        if job.requeues > self.max_retries:
            self.fail(job, f"retry budget exhausted after "
                           f"{self.max_retries} requeues (last: {reason})")
            return False
        delay_ms = backoff_delay(self.backoff_s * 1000.0,
                                 self.backoff_factor, job.requeues - 1,
                                 jitter=self.jitter, seed=self.seed,
                                 key=job.digest)
        job.state = "queued"
        job.error = reason
        job.not_before = self.clock() + delay_ms / 1000.0
        self._order.append(job.digest)
        return True

    # -- observation ---------------------------------------------------------

    def counts(self) -> Dict[str, int]:
        out = {state: 0 for state in STATES}
        for job in self.jobs.values():
            out[job.state] += 1
        out["shed"] = self.shed_count
        return out
