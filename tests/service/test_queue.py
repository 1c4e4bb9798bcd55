"""Queue admission, leases, retry budgets — all on a fake clock."""

import pytest

from repro.service import JobQueue, JobSpec, LeaseTable
from repro.service.queue import STATES


class FakeClock:
    def __init__(self, start=100.0):
        self.now = start

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def _spec(scale=0.01, **kw):
    return JobSpec("lcs", n_nodes=4, params={"scale": scale}, **kw)


class TestAdmission:
    def test_submit_and_dedup(self):
        queue = JobQueue(clock=FakeClock())
        first = queue.submit(_spec())
        second = queue.submit(_spec())
        assert first is second
        assert queue.pending() == 1

    def test_bounded_queue_sheds_explicitly(self):
        queue = JobQueue(limit=2, clock=FakeClock())
        queue.submit(_spec(0.01))
        queue.submit(_spec(0.02))
        shed = queue.submit(_spec(0.03))
        assert shed.state == "shed"
        assert "full" in shed.error
        assert queue.shed_count == 1
        # the shed record is a throwaway: the digest is not retained,
        # so resubmission after the queue drains is admitted normally
        assert shed.digest not in queue.jobs

    def test_shed_then_drain_then_readmit(self):
        clock = FakeClock()
        queue = JobQueue(limit=1, clock=clock)
        job = queue.submit(_spec(0.01))
        assert queue.submit(_spec(0.02)).state == "shed"
        queue.lease(job, worker=0)
        queue.complete(job, {"cycles": 1})
        admitted = queue.submit(_spec(0.02))
        assert admitted.state == "queued"

    def test_failed_job_can_be_resubmitted(self):
        queue = JobQueue(clock=FakeClock())
        job = queue.submit(_spec())
        queue.lease(job, worker=0)
        queue.fail(job, "boom")
        fresh = queue.submit(_spec())
        assert fresh is not job
        assert fresh.state == "queued"

    def test_adopt_records_cache_hits(self):
        queue = JobQueue(clock=FakeClock())
        job = queue.adopt(_spec(), {"cycles": 42})
        assert job.state == "done"
        assert job.cached is True
        assert queue.counts()["done"] == 1


class TestDispatch:
    def test_fifo_order(self):
        queue = JobQueue(clock=FakeClock())
        first = queue.submit(_spec(0.01))
        queue.submit(_spec(0.02))
        assert queue.next_ready() is first

    def test_lease_removes_from_order(self):
        queue = JobQueue(clock=FakeClock())
        first = queue.submit(_spec(0.01))
        second = queue.submit(_spec(0.02))
        queue.lease(first, worker=0)
        assert first.attempts == 1
        assert first.worker == 0
        assert queue.next_ready() is second

    def test_backoff_deadline_gates_redispatch(self):
        clock = FakeClock()
        queue = JobQueue(backoff_s=1.0, jitter=0.0, clock=clock)
        job = queue.submit(_spec())
        queue.lease(job, worker=0)
        assert queue.requeue(job, "worker died") is True
        assert job.state == "queued"
        assert queue.next_ready() is None  # still backing off
        clock.advance(1.1)
        assert queue.next_ready() is job

    def test_retries_only_filter_for_drain(self):
        clock = FakeClock()
        queue = JobQueue(backoff_s=0.0, jitter=0.0, clock=clock)
        fresh = queue.submit(_spec(0.01))
        retried = queue.submit(_spec(0.02))
        queue.lease(retried, worker=0)
        queue.requeue(retried, "worker died")
        clock.advance(1.0)
        assert queue.next_ready(retries_only=True) is retried
        assert queue.next_ready() is fresh

    def test_next_not_before_is_the_earliest_deadline_still_ahead(self):
        clock = FakeClock()
        queue = JobQueue(backoff_s=1.0, backoff_factor=3.0, jitter=0.0,
                         clock=clock)
        assert queue.next_not_before() is None
        waiting = queue.submit(_spec(0.01))  # ready now: no deadline
        assert queue.next_not_before() is None
        once, twice = queue.submit(_spec(0.02)), queue.submit(_spec(0.03))
        for job, deaths in ((twice, 2), (once, 1)):
            for _ in range(deaths):
                queue.lease(job, worker=0)
                queue.requeue(job, "worker died")
        assert (once.not_before, twice.not_before) == (101.0, 103.0)
        assert queue.next_not_before() == 101.0
        clock.advance(1.0)  # `once` is due: it waits for a worker now
        assert queue.next_ready() is waiting
        assert queue.next_not_before() == 103.0
        queue.lease(twice, worker=0)  # leased jobs set no deadline
        assert queue.next_not_before() is None

    def test_next_not_before_retries_only(self):
        clock = FakeClock()
        queue = JobQueue(backoff_s=1.0, jitter=0.0, clock=clock)
        fresh = queue.submit(_spec(0.01))
        fresh.not_before = 105.0  # however a first attempt got one
        retried = queue.submit(_spec(0.02))
        queue.lease(retried, worker=0)
        queue.requeue(retried, "worker died")
        retried.not_before = 110.0
        assert queue.next_not_before() == 105.0
        assert queue.next_not_before(retries_only=True) == 110.0

    def test_timing_follows_the_lifecycle(self):
        clock = FakeClock()
        queue = JobQueue(backoff_s=0.5, jitter=0.0, clock=clock)
        job = queue.submit(_spec())
        blank = {"queued_ms": None, "run_ms": None, "exec_ms": None}
        assert job.to_dict()["timing"] == blank
        clock.advance(0.25)
        queue.lease(job, worker=0)
        assert job.timing() == dict(blank, queued_ms=250.0)
        queue.requeue(job, "worker died")
        clock.advance(0.75)
        queue.lease(job, worker=1)  # measured to the *latest* lease
        clock.advance(0.125)
        job.exec_s = 0.1
        queue.complete(job, {"cycles": 1})
        assert job.timing() == {"queued_ms": 1000.0, "run_ms": 125.0,
                                "exec_ms": 100.0}
        assert "timing" not in job.result
        cached = queue.adopt(_spec(0.07), {"cycles": 1})
        assert cached.timing() == blank  # a cache hit ran nowhere


class TestRetryBudget:
    def test_budget_exhaustion_fails_the_job(self):
        clock = FakeClock()
        queue = JobQueue(max_retries=2, backoff_s=0.0, jitter=0.0,
                         clock=clock)
        job = queue.submit(_spec())
        for attempt in range(2):
            queue.lease(job, worker=0)
            assert queue.requeue(job, f"death {attempt}") is True
        queue.lease(job, worker=0)
        assert queue.requeue(job, "death 2") is False
        assert job.state == "failed"
        assert "budget" in job.error

    def test_backoff_grows_exponentially(self):
        clock = FakeClock()
        queue = JobQueue(max_retries=5, backoff_s=1.0, backoff_factor=2.0,
                         jitter=0.0, clock=clock)
        job = queue.submit(_spec())
        delays = []
        for _ in range(3):
            queue.lease(job, worker=0)
            queue.requeue(job, "death")
            delays.append(job.not_before - clock.now)
        assert delays == [1.0, 2.0, 4.0]

    def test_jittered_backoff_is_seed_deterministic(self):
        def delays(seed):
            clock = FakeClock()
            queue = JobQueue(max_retries=5, backoff_s=1.0, jitter=0.5,
                             seed=seed, clock=clock)
            job = queue.submit(_spec())
            out = []
            for _ in range(3):
                queue.lease(job, worker=0)
                queue.requeue(job, "death")
                out.append(job.not_before - clock.now)
            return out

        assert delays(7) == delays(7)
        assert delays(7) != delays(8)

    def test_counts_cover_the_state_vocabulary(self):
        queue = JobQueue(clock=FakeClock())
        assert set(queue.counts()) == set(STATES)


class TestLeases:
    def test_heartbeat_tracks_progress(self):
        clock = FakeClock()
        table = LeaseTable(timeout_s=2.0, progress_window_s=5.0,
                           clock=clock)
        lease = table.grant("d" * 64, worker=0)
        clock.advance(1.0)
        table.heartbeat(0, sim_now=500)
        assert lease.sim_now == 500
        assert lease.heartbeats == 1
        assert table.expired() == []

    def test_silence_expires_as_lost(self):
        clock = FakeClock()
        table = LeaseTable(timeout_s=2.0, progress_window_s=50.0,
                           clock=clock)
        lease = table.grant("d" * 64, worker=0)
        clock.advance(2.5)
        assert table.expired() == [(lease, "lost")]

    def test_heartbeats_without_progress_expire_as_stalled(self):
        clock = FakeClock()
        table = LeaseTable(timeout_s=2.0, progress_window_s=5.0,
                           clock=clock)
        lease = table.grant("d" * 64, worker=0)
        table.heartbeat(0, sim_now=100)
        for _ in range(6):  # heartbeats keep flowing, sim_now pinned
            clock.advance(1.0)
            table.heartbeat(0, sim_now=100)
        assert table.expired() == [(lease, "stalled")]

    def test_progress_resets_the_stall_window(self):
        clock = FakeClock()
        table = LeaseTable(timeout_s=2.0, progress_window_s=5.0,
                           clock=clock)
        table.grant("d" * 64, worker=0)
        sim_now = 100
        for _ in range(12):  # always advancing: never stalled
            clock.advance(1.0)
            sim_now += 50
            table.heartbeat(0, sim_now=sim_now)
        assert table.expired() == []

    def test_stale_heartbeat_after_release_is_ignored(self):
        table = LeaseTable(clock=FakeClock())
        table.grant("d" * 64, worker=0)
        table.release(0)
        assert table.heartbeat(0, sim_now=1) is None

    def test_one_lease_per_worker(self):
        table = LeaseTable(clock=FakeClock())
        table.grant("a" * 64, worker=0)
        with pytest.raises(AssertionError):
            table.grant("b" * 64, worker=0)

    def test_next_expiry_is_the_earliest_live_deadline(self):
        clock = FakeClock()
        table = LeaseTable(timeout_s=2.0, progress_window_s=5.0,
                           clock=clock)
        assert table.next_expiry() is None
        table.grant("a" * 64, worker=0)
        clock.advance(1.0)
        silent = table.grant("b" * 64, worker=1)
        assert table.next_expiry() == 102.0
        clock.advance(0.5)
        table.heartbeat(0, sim_now=10)  # only ever moves it later
        assert table.next_expiry() == 103.0
        clock.advance(1.5)
        assert table.expired() == [(silent, "lost")]
        assert table.next_expiry() <= clock.now

    def test_revoked_lease_expires_once(self):
        clock = FakeClock()
        table = LeaseTable(timeout_s=2.0, clock=clock)
        lease = table.grant("d" * 64, worker=0)
        clock.advance(2.0)
        table.revoke(lease, "lost")
        # Still held until its worker's EOF, but no longer watched.
        assert table.leases == {0: lease}
        assert table.expired() == []
        assert table.next_expiry() is None
        assert (table.revoked, table.expiries["lost"]) == (1, 1)

    def test_stalled_lease_is_due_at_once(self):
        clock = FakeClock()
        table = LeaseTable(timeout_s=30.0, progress_window_s=2.0,
                           clock=clock)
        table.grant("d" * 64, worker=0)
        for _ in range(3):
            clock.advance(1.0)
            table.heartbeat(0, sim_now=7)
        assert table.next_expiry() == clock.now

    def test_expiry_accounting(self):
        table = LeaseTable(clock=FakeClock())
        table.note_expiry("lost")
        table.note_expiry("stalled")
        table.note_expiry("stalled")
        assert table.to_dict()["expiries"] == {"lost": 1, "stalled": 2}
        assert table.revoked == 3
