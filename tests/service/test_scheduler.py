"""Message-driven scheduling: every dispatch belongs to a transition.

The supervisor here runs with no worker processes and, in most cases,
no thread and no real time: ``StubHandle`` records what a worker would
have been sent, the messages a worker would have written are fed
straight to ``Supervisor._dispatch``, and one injected clock moves the
queue's backoff deadlines and the lease table's expiry deadlines.  The
watchdog is then a function of that clock — ``_run_watchdog`` does what
its thread does, wake at ``next_deadline()`` and call
``check_deadlines()`` — so what the tests pin is *which transition
dispatched*, not how fast.

The few cases that need the real thread (the condition's timed wait,
``?wait=`` over HTTP, the CLI) still use stub workers, and bound every
wait.
"""

import ast
import errno
import json
import os
import pathlib
import queue as stdlib_queue
import sys
import tempfile
import threading
import time
import urllib.error
import urllib.request

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import repro.service
from repro.service import JobSpec, ServiceConfig, Supervisor
from repro.service import __main__ as cli
from repro.service.http import MAX_WAIT_S, ServiceServer
from repro.service.supervisor import WorkerHandle


class FakeClock:
    def __init__(self, start=100.0):
        self.now = start

    def __call__(self):
        return self.now


class FakeProc:
    """As much of ``subprocess.Popen`` as a ``WorkerHandle`` touches."""

    def __init__(self, pid):
        self.pid = pid
        self.returncode = None

    def poll(self):
        return self.returncode

    def kill(self):
        self.returncode = -9

    def wait(self, timeout=None):
        return self.returncode


class StubHandle(WorkerHandle):
    """A worker that is only its supervisor-side record."""

    def __init__(self, wid):
        super().__init__(wid, FakeProc(pid=40_000 + wid), log_path="")
        self.sent = []
        #: Called with each ``job`` message, for tests that play the worker.
        self.on_job = None

    def send(self, message):
        if not self.alive:
            raise OSError("worker is gone")
        self.sent.append(message)
        if message["type"] == "job" and self.on_job is not None:
            self.on_job(self, message)

    def jobs_sent(self):
        return [m["spec"] for m in self.sent if m["type"] == "job"]


class StubSupervisor(Supervisor):
    """A Supervisor whose (re)spawned workers are ``StubHandle``s."""

    def _spawn_locked(self):
        wid = self._next_wid
        self._next_wid += 1
        handle = self.workers[wid] = StubHandle(wid)
        return handle


def _fleet(workdir, workers=2, clock=None, start=False, **config):
    """A supervisor with ``workers`` stub workers, none ready yet.

    Unstarted (no watchdog thread: the test is the watchdog) unless
    ``start``; ``clock=None`` is real time.
    """
    kwargs = dict(workdir=str(workdir), workers=workers, backoff_s=1.0,
                  jitter=0.0, lease_timeout_s=2.0, progress_window_s=10.0)
    kwargs.update(config)
    supervisor = StubSupervisor(ServiceConfig(**kwargs),
                                clock=clock or time.monotonic)
    if start:
        return supervisor.start()
    with supervisor.lock:
        for _ in range(workers):
            supervisor._spawn_locked()
    return supervisor


def _spec(k=0):
    return JobSpec("ping", n_nodes=4, params={"iterations": k + 1})


def _ready(supervisor, *wids):
    for wid in wids or list(supervisor.workers):
        supervisor._dispatch(supervisor.workers[wid], {"type": "ready"})


def _result(supervisor, handle, digest, exec_s=0.004):
    supervisor._dispatch(handle, {
        "type": "result", "job": digest, "exec_s": exec_s,
        "result": {"cycles": 7, "fingerprint": "f" * 64}})


def _die(supervisor, handle):
    handle.proc.kill()
    supervisor._on_worker_exit(handle)


def _run_watchdog(supervisor, clock, until):
    """Move ``clock`` to ``until`` as the watchdog thread would live it:
    wake at each deadline on the way, and only there.  Returns the
    number of wake-ups."""
    wakeups = 0
    while True:
        deadline = supervisor.next_deadline()
        if deadline is None or deadline > until:
            break
        clock.now = max(clock.now, deadline)
        supervisor.check_deadlines()
        wakeups += 1
        assert wakeups < 100, "the watchdog would spin"
    clock.now = max(clock.now, until)
    return wakeups


def _check_invariants(supervisor, clock):
    with supervisor.lock:
        idle = [handle for handle in supervisor.workers.values()
                if handle.ready and handle.wid not in supervisor.leases.leases]
        for job in supervisor.queue.jobs.values():
            if job.state == "queued" and job.not_before <= clock.now \
                    and not (supervisor.draining and job.attempts == 0):
                assert not idle, (
                    f"job {job.digest[:8]} is ready and worker "
                    f"{idle[0].wid} is idle, and nothing will pair them")
        leased = {job.digest for job in supervisor.queue.jobs.values()
                  if job.state == "leased"}
        assert leased == {lease.digest
                          for lease in supervisor.leases.leases.values()}
        for wid, lease in supervisor.leases.leases.items():
            assert supervisor.queue.jobs[lease.digest].worker == wid
        assert supervisor.event_dispatches \
            + supervisor.deadline_dispatches == supervisor.leases.granted


# ------------------------------------------------ transitions that dispatch


class TestEventDispatch:
    def test_submit_leases_to_an_idle_worker(self, tmp_path):
        clock = FakeClock()
        supervisor = _fleet(tmp_path, clock=clock)
        _ready(supervisor)
        record = supervisor.submit(_spec())
        assert record["state"] == "leased"
        assert record["worker"] == 0
        assert supervisor.workers[0].jobs_sent() == [_spec().to_dict()]
        assert supervisor.status()["scheduler"] == {
            "event_dispatches": 1, "deadline_dispatches": 0,
            "watchdog_wakeups": 0}

    def test_ready_message_takes_the_queued_job(self, tmp_path):
        supervisor = _fleet(tmp_path, clock=FakeClock())
        assert supervisor.submit(_spec())["state"] == "queued"
        _ready(supervisor, 1)
        assert supervisor.queue.jobs[_spec().digest].worker == 1
        assert supervisor.event_dispatches == 1

    def test_finishing_worker_has_its_next_job_before_finish_returns(
            self, tmp_path):
        supervisor = _fleet(tmp_path, workers=1, clock=FakeClock())
        _ready(supervisor)
        first, second = _spec(0), _spec(1)
        assert supervisor.submit(first)["state"] == "leased"
        assert supervisor.submit(second)["state"] == "queued"
        handle = supervisor.workers[0]
        _result(supervisor, handle, first.digest)
        assert handle.jobs_sent() == [first.to_dict(), second.to_dict()]
        assert supervisor.queue.jobs[first.digest].state == "done"
        assert supervisor.queue.jobs[second.digest].state == "leased"

    def test_error_message_frees_the_worker_too(self, tmp_path):
        supervisor = _fleet(tmp_path, workers=1, clock=FakeClock())
        _ready(supervisor)
        first, second = _spec(0), _spec(1)
        supervisor.submit(first)
        supervisor.submit(second)
        supervisor._dispatch(supervisor.workers[0], {
            "type": "error", "job": first.digest, "error": "boom",
            "retryable": False, "exec_s": 0.001})
        assert supervisor.queue.jobs[first.digest].state == "failed"
        assert supervisor.queue.jobs[second.digest].state == "leased"

    def test_fifo_order_is_kept(self, tmp_path):
        supervisor = _fleet(tmp_path, workers=1, clock=FakeClock())
        specs = [_spec(k) for k in range(4)]
        for spec in specs:
            supervisor.submit(spec)
        _ready(supervisor)
        handle = supervisor.workers[0]
        for spec in specs:
            _result(supervisor, handle, spec.digest)
        assert handle.jobs_sent() == [spec.to_dict() for spec in specs]

    def test_worker_exit_with_no_backoff_left_redispatches_at_once(
            self, tmp_path):
        clock = FakeClock()
        supervisor = _fleet(tmp_path, clock=clock, backoff_s=0.0)
        _ready(supervisor)
        spec = _spec()
        supervisor.submit(spec)
        _die(supervisor, supervisor.workers[0])
        job = supervisor.queue.jobs[spec.digest]
        assert (job.state, job.worker, job.attempts) == ("leased", 1, 2)
        assert supervisor.deadline_dispatches == 0
        _check_invariants(supervisor, clock)

    def test_a_dead_pipe_at_dispatch_goes_down_the_eof_path(self, tmp_path):
        supervisor = _fleet(tmp_path, workers=1, clock=FakeClock())
        _ready(supervisor)
        handle = supervisor.workers[0]
        handle.proc.returncode = 1  # died; its EOF has not been read yet
        record = supervisor.submit(_spec())
        assert record["state"] == "leased"  # until the reader sees EOF
        supervisor._on_worker_exit(handle)
        job = supervisor.queue.jobs[_spec().digest]
        assert (job.state, job.requeues) == ("queued", 1)
        assert supervisor.respawns == 1

    def test_a_full_disk_at_cache_put_does_not_orphan_the_worker(
            self, tmp_path, monkeypatch, caplog):
        """ROADMAP 6c: an ``OSError`` from the cache write used to end
        ``_read_loop`` as if the pipe had died — the live worker was
        never read again and the job it finished dispatched nothing."""
        supervisor = _fleet(tmp_path, workers=1, clock=FakeClock())
        handle = supervisor.workers[0]
        read_fd, write_fd = os.pipe()
        handle.proc.stdout = os.fdopen(read_fd, encoding="utf-8")
        handle.reader = threading.Thread(target=supervisor._read_loop,
                                         args=(handle,), daemon=True)
        handle.reader.start()

        def full_disk(*args, **kwargs):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(supervisor.cache, "put", full_disk)
        first, second = _spec(0), _spec(1)
        with os.fdopen(write_fd, "w", encoding="utf-8") as pipe:
            _ready(supervisor)
            supervisor.submit(first)
            supervisor.submit(second)
            with caplog.at_level("WARNING", logger="repro.service"):
                pipe.write(json.dumps({
                    "type": "result", "job": first.digest, "exec_s": 0.004,
                    "result": {"cycles": 7, "fingerprint": "f" * 64}}) + "\n")
                pipe.flush()
                record, _pending = supervisor.wait_job(first.digest, 5.0)
                assert record["state"] == "done"
            assert "not cached" in caplog.text
            assert handle.jobs_sent() == [first.to_dict(), second.to_dict()]
            assert supervisor.queue.jobs[second.digest].worker == handle.wid
            assert handle.reader.is_alive()
            assert supervisor.workers == {handle.wid: handle}
            assert supervisor.respawns == 0
        handle.reader.join(5.0)  # EOF: the pipe's own exit path still works
        assert not handle.reader.is_alive()


# ------------------------------------------- the two deadlines, and no others


class TestDeadlines:
    def test_idle_service_has_no_deadline(self, tmp_path):
        supervisor = _fleet(tmp_path, clock=FakeClock())
        assert supervisor.next_deadline() is None
        _ready(supervisor)
        assert supervisor.next_deadline() is None

    def test_requeue_waits_out_its_backoff_then_needs_no_event(
            self, tmp_path):
        clock = FakeClock()
        supervisor = _fleet(tmp_path, clock=clock)
        _ready(supervisor)
        spec = _spec()
        supervisor.submit(spec)
        _die(supervisor, supervisor.workers[0])
        job = supervisor.queue.jobs[spec.digest]
        assert job.state == "queued"
        assert job.not_before == clock.now + 1.0
        assert supervisor.next_deadline() == job.not_before
        # Worker 1 is idle and ready the whole time: only the clock
        # stands between it and the job.
        assert _run_watchdog(supervisor, clock, job.not_before - 0.001) == 0
        assert job.state == "queued"
        assert _run_watchdog(supervisor, clock, job.not_before) == 1
        assert (job.state, job.worker) == ("leased", 1)
        assert supervisor.deadline_dispatches == 1
        assert supervisor.event_dispatches == 1  # the first attempt

    def test_ready_job_without_a_worker_sets_no_deadline(self, tmp_path):
        clock = FakeClock()
        supervisor = _fleet(tmp_path, workers=1, clock=clock)
        supervisor.submit(_spec())  # the only worker is not ready yet
        # A job that waits for a worker, not for the clock: whatever
        # frees a worker dispatches it, so there is nothing to wake for.
        assert supervisor.next_deadline() is None

    def test_silent_lease_is_revoked_at_its_deadline(self, tmp_path):
        clock = FakeClock()
        supervisor = _fleet(tmp_path, workers=1, clock=clock)
        _ready(supervisor)
        spec = _spec()
        supervisor.submit(spec)
        handle = supervisor.workers[0]
        clock.now += 0.5
        supervisor._dispatch(handle, {"type": "heartbeat", "sim_now": 10})
        deadline = clock.now + 2.0  # last_heartbeat + lease_timeout_s
        assert supervisor.next_deadline() == deadline
        assert _run_watchdog(supervisor, clock, deadline - 0.001) == 0
        assert handle.alive
        assert _run_watchdog(supervisor, clock, deadline) == 1
        assert not handle.alive  # revoked = killed; the EOF path requeues
        assert supervisor.leases.expiries == {"lost": 1, "stalled": 0}
        # The revoked lease stays until EOF but is nobody's deadline.
        assert supervisor.next_deadline() is None
        supervisor._on_worker_exit(handle)
        job = supervisor.queue.jobs[spec.digest]
        assert (job.state, job.requeues) == ("queued", 1)

    def test_heartbeats_push_the_deadline_back(self, tmp_path):
        clock = FakeClock()
        supervisor = _fleet(tmp_path, workers=1, clock=clock)
        _ready(supervisor)
        supervisor.submit(_spec())
        handle = supervisor.workers[0]
        # A heartbeat moves the deadline later and wakes nobody, so the
        # sleeper finds out at the deadline it went to sleep with.
        wakeups, asleep_until = 0, supervisor.next_deadline()
        for beat in range(1, 21):  # 10 s of healthy 0.5 s heartbeats
            clock.now = 100.0 + beat * 0.5
            if asleep_until <= clock.now:
                supervisor.check_deadlines()
                wakeups += 1
                asleep_until = supervisor.next_deadline()
            supervisor._dispatch(handle, {"type": "heartbeat",
                                          "sim_now": beat * 100})
        assert handle.alive
        # One look per lease_timeout_s or so of leased time, however
        # many heartbeats that is.
        assert 4 <= wakeups <= 7

    def test_stalled_heartbeat_is_due_at_once(self, tmp_path):
        clock = FakeClock()
        supervisor = _fleet(tmp_path, workers=1, clock=clock,
                            progress_window_s=1.0, lease_timeout_s=30.0)
        _ready(supervisor)
        supervisor.submit(_spec())
        handle = supervisor.workers[0]
        for _ in range(5):
            clock.now += 0.3
            supervisor._dispatch(handle, {"type": "heartbeat",
                                          "sim_now": 500})
        assert supervisor.next_deadline() <= clock.now
        assert _run_watchdog(supervisor, clock, clock.now) == 1
        assert not handle.alive
        assert supervisor.leases.expiries["stalled"] == 1

    def test_drain_dispatches_retries_only(self, tmp_path):
        clock = FakeClock()
        supervisor = _fleet(tmp_path, clock=clock)
        _ready(supervisor)
        interrupted, fresh = _spec(0), _spec(1)
        supervisor.submit(interrupted)
        _die(supervisor, supervisor.workers[0])
        with supervisor.lock:
            supervisor.draining = True  # drain()'s first step
        assert supervisor.submit(fresh)["state"] == "shed"
        retry = supervisor.queue.jobs[interrupted.digest]
        _run_watchdog(supervisor, clock, retry.not_before)
        assert retry.state == "leased"
        _check_invariants(supervisor, clock)


# ------------------------------------------------------- random interleavings

#: Weighted towards the steps that make work (submit) and move it
#: along (ready, result): a uniform draw mostly pokes an idle service.
OPS = st.one_of(
    st.tuples(st.just("submit"), st.integers(0, 7)),
    st.tuples(st.just("submit"), st.integers(0, 7)),
    st.tuples(st.sampled_from(["ready", "ready", "result", "result",
                               "result", "error", "stale", "heartbeat",
                               "exit"]),
              st.integers(0, 3)),
    st.tuples(st.sampled_from(["ready", "result"]), st.integers(0, 3)),
    st.tuples(st.just("advance"),
              st.sampled_from([0.0, 0.01, 0.3, 0.99, 1.0, 2.5])),
    st.tuples(st.just("drain"), st.just(0)),
)


def _interleave(warm, ops):
    clock = FakeClock()
    with tempfile.TemporaryDirectory() as workdir:
        supervisor = _fleet(workdir, workers=2, clock=clock, max_retries=2,
                            queue_limit=4, progress_window_s=3.0)
        if warm:  # the usual case: the fleet booted before the traffic
            _ready(supervisor)
        for op, arg in ops:
            if op == "submit":
                supervisor.submit(_spec(arg))
            elif op == "advance":
                _run_watchdog(supervisor, clock, clock.now + arg)
                for dead in [h for h in supervisor.workers.values()
                             if not h.alive]:  # revoked: now its EOF
                    supervisor._on_worker_exit(dead)
            elif op == "drain":
                with supervisor.lock:
                    supervisor.draining = True  # drain()'s first step
            elif supervisor.workers:  # a drain respawns nothing
                handles = list(supervisor.workers.values())
                _worker_op(supervisor, op, handles[arg % len(handles)])
            _check_invariants(supervisor, clock)


def _worker_op(supervisor, op, handle):
    lease = supervisor.leases.leases.get(handle.wid)
    if op == "ready":
        _ready(supervisor, handle.wid)
    elif op == "heartbeat":
        supervisor._dispatch(handle, {"type": "heartbeat", "sim_now": 1})
    elif op == "exit":
        _die(supervisor, handle)
    elif op == "stale":  # results for jobs this worker does not hold
        before = supervisor.queue.counts()
        for digest in list(supervisor.queue.jobs) + ["0" * 64]:
            if lease is None or digest != lease.digest:
                _result(supervisor, handle, digest)
        assert supervisor.queue.counts() == before
    elif lease is None:
        pass  # nothing to report on
    elif op == "result":
        _result(supervisor, handle, lease.digest)
    elif op == "error":
        supervisor._dispatch(handle, {
            "type": "error", "job": lease.digest, "error": "boom"})


@settings(deadline=None, max_examples=200,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.booleans(), st.lists(OPS, max_size=40))
def test_no_ready_pair_survives_any_transition(warm, ops):
    _interleave(warm, ops)


@pytest.mark.slow
@settings(deadline=None, max_examples=3000,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.booleans(), st.lists(OPS, max_size=120))
def test_no_ready_pair_survives_any_transition_long(warm, ops):
    _interleave(warm, ops)


# ------------------------------------------------ the real watchdog thread


def _wait_for(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.005)
    raise AssertionError("condition not reached within timeout")


class TestWatchdogThread:
    def test_backoff_deadline_alone_dispatches(self, tmp_path):
        supervisor = _fleet(tmp_path, backoff_s=0.15, start=True)
        try:
            for wid in (0, 1):
                _ready(supervisor, wid)
            spec = _spec()
            supervisor.submit(spec)
            _die(supervisor, supervisor.workers[0])
            job = supervisor.queue.jobs[spec.digest]
            not_before = job.not_before
            # No message, no submission, no heartbeat from here on.
            _wait_for(lambda: job.state == "leased")
            assert job.worker == 1
            assert job.leased_at >= not_before
            status = supervisor.status()["scheduler"]
            assert status["deadline_dispatches"] == 1
            assert status["event_dispatches"] == 1
        finally:
            supervisor.stop()

    def test_silent_lease_is_revoked_once_and_the_watchdog_rests(
            self, tmp_path):
        supervisor = _fleet(tmp_path, workers=1, lease_timeout_s=0.2,
                            start=True)
        try:
            _ready(supervisor)
            started = time.monotonic()
            supervisor.submit(_spec())
            handle = supervisor.workers[0]
            _wait_for(lambda: not handle.alive)
            assert time.monotonic() - started >= 0.2
            # No EOF yet, so the revoked lease is still in the table:
            # it must not keep the watchdog awake.
            time.sleep(0.3)
            status = supervisor.status()
            assert status["leases"]["expiries"]["lost"] == 1
            assert status["scheduler"]["watchdog_wakeups"] <= 4
        finally:
            supervisor.stop()

    def test_concurrent_submitters_and_workers_lose_nothing(self, tmp_path):
        """More threads than cores, a 10 us switch interval: every job
        runs exactly once and every lease is counted exactly once."""
        n_workers, n_clients, per_client = 4, 3, 30
        supervisor = _fleet(tmp_path, workers=n_workers, queue_limit=8,
                            start=True)
        inbox = stdlib_queue.Queue()
        for handle in supervisor.workers.values():
            handle.on_job = lambda h, message: inbox.put((h, message))
        executed, outcomes = [], []

        def play_worker():
            while True:
                item = inbox.get()
                if item is None:
                    return
                handle, message = item
                digest = JobSpec.from_dict(message["spec"]).digest
                executed.append(digest)
                _result(supervisor, handle, digest)

        def client(index):
            for k in range(per_client):
                spec = JobSpec("ping", n_nodes=4, params={
                    "iterations": 1 + index * per_client + k})
                supervisor.submit(spec)
                outcomes.append(supervisor.wait_job(spec.digest, 30.0))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        threads = [threading.Thread(target=play_worker, daemon=True)
                   for _ in range(n_workers)]
        threads += [threading.Thread(target=client, args=(index,),
                                     daemon=True)
                    for index in range(n_clients)]
        try:
            for thread in threads:
                thread.start()
            _ready(supervisor)
            for thread in threads[n_workers:]:
                thread.join(timeout=60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
            for _ in range(n_workers):
                inbox.put(None)
            supervisor.stop()
        total = n_clients * per_client
        assert len(executed) == len(set(executed)) == total
        assert [record["state"] for record, _ in outcomes] == ["done"] * total
        status = supervisor.status()
        assert status["leases"]["granted"] == total
        assert status["scheduler"]["event_dispatches"] == total
        assert status["scheduler"]["deadline_dispatches"] == 0
        assert status["queue"]["done"] == total


# --------------------------------------------------- waiting without polling


class TestWaitJob:
    def test_unknown_digest(self, tmp_path):
        assert _fleet(tmp_path).wait_job("0" * 64, 5.0) is None

    def test_times_out_with_the_unsettled_record(self, tmp_path):
        supervisor = _fleet(tmp_path)
        _ready(supervisor)
        supervisor.submit(_spec())
        started = time.monotonic()
        record, pending = supervisor.wait_job(_spec().digest, 0.1)
        assert time.monotonic() - started >= 0.1
        assert (record["state"], pending) == ("leased", True)

    def test_leased_job_is_waited_for_through_a_drain(self, tmp_path):
        supervisor = _fleet(tmp_path)
        _ready(supervisor)
        spec = _spec()
        supervisor.submit(spec)
        got = []
        waiter = threading.Thread(
            target=lambda: got.append(supervisor.wait_job(spec.digest, 30)))
        drainer = threading.Thread(target=supervisor.drain)
        waiter.start()
        drainer.start()
        _wait_for(lambda: supervisor.draining)
        assert waiter.is_alive()  # drain finishes leased work: keep waiting
        _result(supervisor, supervisor.workers[0], spec.digest)
        for thread in (waiter, drainer):
            thread.join(timeout=10)
            assert not thread.is_alive()
        record, pending = got[0]
        assert (record["state"], pending) == ("done", False)


class TestHttp:
    @pytest.fixture()
    def service(self, tmp_path):
        supervisor = _fleet(tmp_path, start=True)
        server = ServiceServer(supervisor, port=0)
        server.start_background()
        yield server
        supervisor.stop()
        server.stop()

    @staticmethod
    def _get(server, path, timeout=30):
        try:
            with urllib.request.urlopen(server.url + path,
                                        timeout=timeout) as response:
                return response.status, json.loads(response.read())
        except urllib.error.HTTPError as error:
            return error.code, json.loads(error.read())

    def _get_in_thread(self, server, path):
        box = []
        thread = threading.Thread(
            target=lambda: box.append(self._get(server, path)))
        thread.start()
        return thread, box

    def test_wait_returns_when_the_job_settles(self, service):
        supervisor = service.supervisor
        _ready(supervisor)
        spec = _spec()
        supervisor.submit(spec)
        thread, box = self._get_in_thread(
            service, f"/jobs/{spec.digest}?wait=20")
        time.sleep(0.1)
        assert thread.is_alive()  # held, not answered "leased"
        _result(supervisor, supervisor.workers[0], spec.digest,
                exec_s=0.004)
        thread.join(timeout=10)
        assert not thread.is_alive()
        code, record = box[0]
        assert (code, record["state"]) == (200, "done")
        assert record["timing"]["exec_ms"] == 4.0
        assert record["timing"]["queued_ms"] >= 0
        assert record["timing"]["run_ms"] >= 100

    def test_wait_times_out_with_the_unsettled_record(self, service):
        supervisor = service.supervisor
        _ready(supervisor)
        supervisor.submit(_spec())
        started = time.monotonic()
        code, record = self._get(service,
                                 f"/jobs/{_spec().digest}?wait=0.2")
        assert time.monotonic() - started >= 0.2
        assert (code, record["state"]) == (200, "leased")
        assert record["timing"]["run_ms"] is None

    def test_wait_ends_when_a_drain_abandons_the_job(self, service):
        supervisor = service.supervisor
        spec = _spec()
        supervisor.submit(spec)  # queued: no worker is ready
        thread, box = self._get_in_thread(
            service, f"/jobs/{spec.digest}?wait=20")
        time.sleep(0.1)
        assert thread.is_alive()
        report = supervisor.drain(timeout_s=5.0)
        assert report["unfinished"] == [spec.digest]
        thread.join(timeout=10)
        assert not thread.is_alive()
        code, record = box[0]
        assert (code, record["state"]) == (503, "queued")
        # A plain read of the same record is still a 200, as ever.
        assert self._get(service, f"/jobs/{spec.digest}")[0] == 200

    def test_wait_on_an_unknown_digest_is_404_at_once(self, service):
        started = time.monotonic()
        code, _ = self._get(service, "/jobs/" + "0" * 64 + "?wait=20")
        assert code == 404
        assert time.monotonic() - started < 5

    @pytest.mark.parametrize("wait", ["soon", "-1", "nan", "inf"])
    def test_malformed_wait_is_400(self, service, wait):
        service.supervisor.submit(_spec())
        code, body = self._get(service,
                               f"/jobs/{_spec().digest}?wait={wait}")
        assert code == 400
        assert "wait" in body["error"]

    def test_wait_is_capped(self, service, monkeypatch):
        assert MAX_WAIT_S == 30.0
        monkeypatch.setattr("repro.service.http.MAX_WAIT_S", 0.2)
        _ready(service.supervisor)
        service.supervisor.submit(_spec())
        started = time.monotonic()
        code, record = self._get(service,
                                 f"/jobs/{_spec().digest}?wait=3600")
        assert 0.2 <= time.monotonic() - started < 10
        assert (code, record["state"]) == (200, "leased")

    def test_healthz(self, service):
        supervisor = service.supervisor
        code, body = self._get(service, "/healthz")
        assert (code, body) == (503, {"ok": False,
                                      "reason": "0 of 2 workers ready"})
        _ready(supervisor)
        assert self._get(service, "/healthz") == (200, {"ok": True})
        supervisor.workers[1].proc.kill()
        assert self._get(service, "/healthz")[1]["reason"] \
            == "1 of 2 workers ready"
        supervisor.drain(timeout_s=1.0)
        assert self._get(service, "/healthz")[0] == 503

    def test_submit_wait_is_two_requests(self, service, monkeypatch, capsys):
        supervisor = service.supervisor
        for handle in supervisor.workers.values():
            # The job "runs" for 50 ms on whichever worker gets it.
            handle.on_job = lambda h, message: threading.Timer(
                0.05, _result, (supervisor, h, JobSpec.from_dict(
                    message["spec"]).digest)).start()
        _ready(supervisor)
        requests = []
        real_get, real_post = cli._get, cli._post
        monkeypatch.setattr(cli, "_get", lambda url, path, **kw: (
            requests.append(("GET", path)), real_get(url, path, **kw))[1])
        monkeypatch.setattr(cli, "_post", lambda url, path, body, **kw: (
            requests.append(("POST", path)),
            real_post(url, path, body, **kw))[1])
        code = cli.main(["submit", "--url", service.url, "--app", "ping",
                         "--nodes", "4", "--param", "iterations=1",
                         "--wait", "20"])
        assert code == 0
        assert [method for method, _ in requests] == ["POST", "GET"]
        assert requests[0][1] == "/submit"
        assert requests[1][1].startswith(f"/jobs/{_spec().digest}?wait=")
        first, last = capsys.readouterr().out.split("}\n{")
        assert '"state": "leased"' in first
        assert '"state": "done"' in last


# ------------------------------------------------------------- no fixed wait


def test_service_package_never_sleeps():
    """Every wait in ``repro.service`` is an event or a computed
    deadline; ``time.sleep`` is how a fixed period gets back in."""
    package = pathlib.Path(repro.service.__file__).parent
    sleeps = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "attr", getattr(node.func, "id", ""))
                if name == "sleep":
                    sleeps.append(f"{path.name}:{node.lineno}")
    assert sleeps == []
    assert not [name for name in ServiceConfig.__dataclass_fields__
                if "tick" in name or "poll" in name]
