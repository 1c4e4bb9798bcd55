"""The supervisor: worker fleet, lease watchdog, cache, and scheduler.

The supervisor owns every moving part of the service::

    submit ──cache hit──> done (free)
       │
       └──> JobQueue ──scheduler──> worker lease ──result──> cache + done
                 ^                        │
                 └── requeue (backoff) ── lease expired / worker died

Failure handling has exactly **one** requeue path: whatever goes wrong
with a worker — crash, ``kill -9``, hung loop, lease expiry — ends
with that worker's pipe reaching EOF (expiry *kills* the worker first),
and the EOF handler requeues the worker's leased job and respawns a
replacement.  Watchdog revocation and natural death therefore cannot
double-requeue the same job, with no extra bookkeeping.

Scheduling is message-driven, as the machine it serves is: a job is
dispatched by the transition that makes a (ready job, idle worker) pair
possible — a spec admitted by :meth:`Supervisor.submit`, a worker's
``result`` / ``error`` / ``ready`` message, a worker's exit — in that
transition, under the lock, not by a loop that looks for pairs.  Only
the two things that happen because *time* passed have a thread: the
watchdog sleeps until the earlier of the next lease expiry
(:meth:`LeaseTable.next_expiry`) and the next backoff deadline
(:meth:`JobQueue.next_not_before`), and is woken early by whatever
moves either one closer.  No wait in this module has a fixed period.

Threading: one lock guards the queue, the lease table, and the worker
map; one condition over that lock is notified at every transition, and
the watchdog, :meth:`Supervisor.drain` and :meth:`Supervisor.wait_job`
are its waiters.  Each worker gets a reader thread (blocking line
reads from its pipe).  Worker heartbeat frames are relayed into the
service's own :class:`~repro.telemetry.live.LiveSampler`, so the
existing ``/metrics`` / ``/snapshot.json`` / ``/stream`` endpoints
observe the whole fleet unchanged.
"""

from __future__ import annotations

import logging
import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

from .cache import ResultCache
from .lease import LeaseTable
from .queue import Job, JobQueue
from .runner import checkpoint_path
from .spec import JobSpec

__all__ = ["ServiceConfig", "Supervisor"]

logger = logging.getLogger("repro.service")


@dataclass
class ServiceConfig:
    """Everything the supervisor needs to run a fleet."""

    workdir: str
    workers: int = 2
    queue_limit: int = 32
    max_retries: int = 3
    backoff_s: float = 0.25
    backoff_factor: float = 2.0
    jitter: float = 0.5
    seed: int = 0
    heartbeat_s: float = 0.25
    lease_timeout_s: float = 2.0
    #: Wall seconds a worker may heartbeat without advancing its
    #: simulated clock before it is declared hung and revoked.
    progress_window_s: float = 10.0
    #: Defaults applied to specs submitted without explicit hints.
    checkpoint_every: int = 500_000
    sample_every: int = 25_000
    extra_env: Dict[str, str] = field(default_factory=dict)


class WorkerHandle:
    """One supervised worker process and its reader thread."""

    def __init__(self, wid: int, proc: subprocess.Popen,
                 log_path: str) -> None:
        self.wid = wid
        self.proc = proc
        self.log_path = log_path
        self.ready = False
        self.reader: Optional[threading.Thread] = None
        #: Last relayed frame identity (job digest, frame seq) — two
        #: heartbeats between samples carry the same frame; relay once.
        self.last_frame: Optional[tuple] = None

    @property
    def pid(self) -> int:
        return self.proc.pid

    def send(self, message: Dict[str, Any]) -> None:
        import json

        self.proc.stdin.write(json.dumps(message,
                                         separators=(",", ":")) + "\n")
        self.proc.stdin.flush()

    @property
    def alive(self) -> bool:
        return self.proc.poll() is None

    def kill(self) -> None:
        if self.alive:
            self.proc.kill()

    def to_dict(self) -> Dict[str, Any]:
        return {"wid": self.wid, "pid": self.pid, "ready": self.ready,
                "alive": self.alive}


class Supervisor:
    """Owns the queue, cache, leases, and the worker fleet."""

    def __init__(self, config: ServiceConfig, sampler=None,
                 clock=time.monotonic) -> None:
        self.config = config
        #: Host clock shared with the queue and the lease table, so one
        #: injected clock moves every deadline (tests/service).
        self.clock = clock
        os.makedirs(config.workdir, exist_ok=True)
        self.cache = ResultCache(os.path.join(config.workdir, "cache"))
        self.queue = JobQueue(limit=config.queue_limit,
                              max_retries=config.max_retries,
                              backoff_s=config.backoff_s,
                              backoff_factor=config.backoff_factor,
                              jitter=config.jitter, seed=config.seed,
                              clock=clock)
        self.leases = LeaseTable(timeout_s=config.lease_timeout_s,
                                 progress_window_s=config.progress_window_s,
                                 clock=clock)
        self.sampler = sampler
        self.workers: Dict[int, WorkerHandle] = {}
        self.lock = threading.RLock()
        #: Notified (under ``lock``) whenever a lease is granted or
        #: released, a job settles or is requeued, a stall is seen, and
        #: on drain and stop: everything a waiter's condition reads.
        self.changed = threading.Condition(self.lock)
        self.draining = False
        self.stopped = threading.Event()
        self.respawns = 0
        #: Leases granted by the transition that made them possible, and
        #: by the watchdog because a backoff deadline passed; and the
        #: times the watchdog's wait returned.  Exact, under the lock.
        self.event_dispatches = 0
        self.deadline_dispatches = 0
        self.watchdog_wakeups = 0
        self._next_wid = 0
        self._watchdog: Optional[threading.Thread] = None
        self._started_at = time.monotonic()

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "Supervisor":
        with self.lock:
            for _ in range(self.config.workers):
                self._spawn_locked()
        self._watchdog = threading.Thread(target=self._watchdog_loop,
                                          daemon=True,
                                          name="service-watchdog")
        self._watchdog.start()
        return self

    def _spawn_locked(self) -> WorkerHandle:
        wid = self._next_wid
        self._next_wid += 1
        logs = os.path.join(self.config.workdir, "logs")
        os.makedirs(logs, exist_ok=True)
        log_path = os.path.join(logs, f"worker-{wid}.log")
        import repro

        src_root = os.path.dirname(os.path.dirname(
            os.path.abspath(repro.__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = src_root + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        env.update(self.config.extra_env)
        log = open(log_path, "a", encoding="utf-8")
        try:
            proc = subprocess.Popen(
                [sys.executable, "-u", "-m", "repro.service", "worker",
                 "--workdir", self.config.workdir,
                 "--heartbeat-s", str(self.config.heartbeat_s)],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                stderr=log, text=True, bufsize=1, env=env)
        finally:
            log.close()  # the child holds its own fd now
        handle = WorkerHandle(wid, proc, log_path)
        self.workers[wid] = handle
        handle.reader = threading.Thread(target=self._read_loop,
                                         args=(handle,), daemon=True,
                                         name=f"service-reader-{wid}")
        handle.reader.start()
        logger.info("worker %d spawned (pid %d)", wid, proc.pid)
        return handle

    # -- worker pipe ---------------------------------------------------------

    def _read_loop(self, handle: WorkerHandle) -> None:
        import json

        try:
            for line in handle.proc.stdout:
                line = line.strip()
                if not line:
                    continue
                try:
                    message = json.loads(line)
                except ValueError:
                    continue  # torn line from a killed worker
                self._dispatch(handle, message)
        except (OSError, ValueError):
            pass
        self._on_worker_exit(handle)

    def _dispatch(self, handle: WorkerHandle, message: Dict[str, Any]
                  ) -> None:
        kind = message.get("type")
        if kind == "ready":
            with self.lock:
                handle.ready = True
                self._dispatch_event_locked()
            return
        if kind == "heartbeat":
            with self.lock:
                lease = self.leases.heartbeat(handle.wid,
                                              int(message.get("sim_now", 0)))
                if lease is not None and not lease.revoked \
                        and self.leases.stalled(lease):
                    # The one heartbeat that moves a deadline *earlier*.
                    self.changed.notify_all()
            if lease is not None and self.sampler is not None:
                frame = message.get("frame")
                if frame:
                    ident = (lease.digest, frame.get("seq"))
                    if ident != handle.last_frame:
                        handle.last_frame = ident
                        self.sampler.ingest(
                            frame,
                            source=f"job:{lease.digest[:8]}/w{handle.wid}")
            return
        if kind in ("result", "error"):
            self._finish(handle, message)
            return

    def _finish(self, handle: WorkerHandle, message: Dict[str, Any]
                ) -> None:
        digest = message.get("job")
        with self.lock:
            job = self.queue.jobs.get(digest) if digest else None
            if job is None or job.state != "leased" \
                    or job.worker != handle.wid:
                return  # stale message from a revoked lease
            self.leases.release(handle.wid)
            job.exec_s = message.get("exec_s")
            if message["type"] == "result":
                result = message["result"]
                self.queue.complete(job, result)
                try:
                    self.cache.put(digest, result, spec=job.spec.to_dict())
                except OSError as exc:
                    # Served from the job record all the same; only a
                    # resubmission after restart recomputes it.  Must
                    # not reach _read_loop, which reads OSError as a
                    # dead pipe and would abandon this live worker.
                    logger.warning("job %s: result not cached (%s)",
                                   digest[:8], exc)
                logger.info("job %s done on worker %d (%s cycles)",
                            digest[:8], handle.wid, result.get("cycles"))
            else:
                # Deterministic failure: retrying would fail identically.
                self.queue.fail(job, message.get("error", "worker error"))
                logger.info("job %s failed: %s", digest[:8], job.error)
            # The worker is idle: its next job leaves before this returns.
            self._dispatch_event_locked()
            self.changed.notify_all()

    def _on_worker_exit(self, handle: WorkerHandle) -> None:
        """The single requeue path: EOF on a worker's pipe."""
        handle.proc.wait()
        with self.lock:
            if self.workers.get(handle.wid) is not handle:
                return  # already handled
            del self.workers[handle.wid]
            handle.ready = False
            lease = self.leases.release(handle.wid)
            if lease is not None:
                self._requeue_locked(
                    lease, f"worker {handle.wid} died "
                           f"(exit {handle.proc.returncode})")
            respawn = not self.draining and not self.stopped.is_set()
            logger.info("worker %d exited (exit %s)%s", handle.wid,
                        handle.proc.returncode,
                        "; respawning" if respawn else "")
            if respawn:
                self.respawns += 1
                self._spawn_locked()
            # A requeue with no backoff left can go to an idle worker now.
            self._dispatch_event_locked()
            self.changed.notify_all()

    def _requeue_locked(self, lease, reason: str) -> None:
        job = self.queue.jobs.get(lease.digest)
        if job is None or job.state != "leased":
            return
        if self.queue.requeue(job, reason):
            logger.info("job %s requeued (%s): attempt %d in %.3f s",
                        job.digest[:8], reason, job.attempts + 1,
                        max(0.0, job.not_before - self.clock()))
        else:
            logger.info("job %s failed (%s): retry budget exhausted",
                        job.digest[:8], reason)

    # -- scheduling ----------------------------------------------------------

    def _dispatch_ready_locked(self) -> int:
        """Lease ready jobs, FIFO, to idle ready workers; returns how many.

        Called by every transition that can make such a pair possible,
        so between transitions none exists (tests/service/
        test_scheduler.py holds it to that after every step).
        """
        if self.stopped.is_set():
            return 0
        granted = 0
        for handle in list(self.workers.values()):
            if not handle.ready or handle.wid in self.leases.leases:
                continue
            job = self.queue.next_ready(retries_only=self.draining)
            if job is None:
                break
            self._assign_locked(job, handle)
            granted += 1
        return granted

    def _dispatch_event_locked(self) -> None:
        self.event_dispatches += self._dispatch_ready_locked()

    def _assign_locked(self, job: Job, handle: WorkerHandle) -> None:
        self.queue.lease(job, handle.wid)
        self.leases.grant(job.digest, handle.wid)
        try:
            handle.send({
                "type": "job",
                "spec": job.spec.to_dict(),
                "ckpt": checkpoint_path(self.config.workdir, job.digest),
            })
        except (OSError, ValueError):
            handle.kill()  # EOF path requeues
        logger.info("job %s leased to worker %d (attempt %d)",
                    job.digest[:8], handle.wid, job.attempts)
        self.changed.notify_all()  # a new lease is a new expiry deadline

    def next_deadline(self) -> Optional[float]:
        """The host time the watchdog has to look again by, or None."""
        with self.lock:
            due = [when for when in (
                self.leases.next_expiry(),
                self.queue.next_not_before(retries_only=self.draining))
                if when is not None]
            return min(due, default=None)

    def check_deadlines(self) -> None:
        """What passing time makes due: revoke expired leases, then
        dispatch the jobs whose backoff has run out."""
        with self.lock:
            for lease, reason in self.leases.expired():
                self.leases.revoke(lease, reason)
                handle = self.workers.get(lease.worker)
                logger.info("lease on %s expired (%s); killing worker %d",
                            lease.digest[:8], reason, lease.worker)
                if handle is not None:
                    # EOF handling requeues the job and respawns.
                    handle.kill()
                else:  # worker record already gone; requeue directly
                    self.leases.release(lease.worker)
                    self._requeue_locked(lease, f"lease {reason}")
                    self.changed.notify_all()
            self.deadline_dispatches += self._dispatch_ready_locked()

    def _watchdog_loop(self) -> None:
        with self.lock:
            while not self.stopped.is_set():
                deadline = self.next_deadline()
                self.changed.wait(None if deadline is None
                                  else max(0.0, deadline - self.clock()))
                if self.stopped.is_set():
                    return
                self.watchdog_wakeups += 1
                self.check_deadlines()

    # -- public operations ---------------------------------------------------

    def submit(self, spec: JobSpec) -> Dict[str, Any]:
        """Admit one job; serves from cache when possible.

        The record comes back ``"leased"`` when a ready worker was idle:
        the job is on that worker's pipe before this returns.
        """
        with self.lock:
            if self.draining:
                return {"digest": spec.digest, "state": "shed",
                        "error": "service is draining"}
            existing = self.queue.jobs.get(spec.digest)
            if existing is not None and existing.state not in ("failed",):
                return existing.to_dict()
            cached = self.cache.get(spec.digest)
            if cached is not None:
                return self.queue.adopt(spec, cached).to_dict()
            job = self.queue.submit(spec)
            if job.state == "queued":
                self._dispatch_event_locked()
            return job.to_dict()

    def wait_job(self, digest: str, timeout_s: float
                 ) -> Optional[Tuple[Dict[str, Any], bool]]:
        """Block until job ``digest`` settles; None for an unknown digest.

        Returns ``(record, pending)``.  ``pending`` is True when the job
        is unsettled but this service can still settle it, i.e. the
        wait merely timed out; False with an unsettled record means it
        never will here — the service stopped, or is draining and the
        job never held a lease (drain finishes interrupted work only).
        """
        with self.lock:
            self.changed.wait_for(
                lambda: not self._pending_locked(digest), timeout_s)
            job = self.queue.jobs.get(digest)
            if job is None:
                return None
            return job.to_dict(), self._pending_locked(digest)

    def _pending_locked(self, digest: str) -> bool:
        """Unsettled, and this service can still settle it."""
        job = self.queue.jobs.get(digest)
        return job is not None and job.state not in ("done", "failed") \
            and not self.stopped.is_set() \
            and not (self.draining and job.attempts == 0)

    def health(self) -> Tuple[bool, str]:
        """(ok, reason): ok when not draining and the whole configured
        fleet is alive and ready to take a job."""
        with self.lock:
            if self.stopped.is_set():
                return False, "stopped"
            if self.draining:
                return False, "draining"
            ready = sum(1 for handle in self.workers.values()
                        if handle.ready and handle.alive)
            if ready < self.config.workers:
                return False, (f"{ready} of {self.config.workers} "
                               f"workers ready")
            return True, ""

    def status(self) -> Dict[str, Any]:
        with self.lock:
            return {
                "uptime_s": round(time.monotonic() - self._started_at, 3),
                "draining": self.draining,
                "queue": self.queue.counts(),
                "leases": self.leases.to_dict(),
                "cache": self.cache.stats(),
                "workers": [handle.to_dict()
                            for handle in self.workers.values()],
                "respawns": self.respawns,
                "scheduler": {
                    "event_dispatches": self.event_dispatches,
                    "deadline_dispatches": self.deadline_dispatches,
                    "watchdog_wakeups": self.watchdog_wakeups,
                },
            }

    def drain(self, timeout_s: float = 60.0) -> Dict[str, Any]:
        """Finish leased (and crash-orphaned) jobs, then stop workers.

        New submissions are shed for the duration; queued-but-never-
        leased jobs stay queued and are reported, not silently dropped.
        """
        with self.lock:
            if not self.draining:
                logger.info("drain started")
            self.draining = True
            self.changed.notify_all()
            self.changed.wait_for(
                lambda: not self.leases and not any(
                    job.state == "queued" and job.attempts > 0
                    for job in self.queue.jobs.values()),
                timeout_s)
        self.stop()
        with self.lock:
            leftover = [job.digest for job in self.queue.jobs.values()
                        if job.state in ("queued", "leased")]
        logger.info("drain ended: %d unfinished", len(leftover))
        return {"drained": not leftover, "unfinished": leftover,
                "counts": self.queue.counts()}

    def stop(self, kill_timeout_s: float = 5.0) -> None:
        """Stop the watchdog and terminate every worker."""
        self.stopped.set()
        with self.lock:
            self.changed.notify_all()
            handles = list(self.workers.values())
        if self._watchdog is not None and self._watchdog.is_alive() \
                and threading.current_thread() is not self._watchdog:
            self._watchdog.join(timeout=2.0)
        for handle in handles:
            try:
                handle.send({"type": "exit"})
            except (OSError, ValueError):
                pass
        deadline = time.monotonic() + kill_timeout_s
        for handle in handles:
            remaining = max(0.0, deadline - time.monotonic())
            try:
                handle.proc.wait(timeout=remaining)
            except subprocess.TimeoutExpired:
                handle.kill()
                handle.proc.wait()
        for handle in handles:
            if handle.reader is not None:
                handle.reader.join(timeout=2.0)
