"""Fault recovery: kill -9 a worker mid-job, get the *same answer*.

The PR's headline guarantee, as a test: a job whose worker is killed
outright completes on retry with a telemetry digest equal to an
undisturbed run's, and the retry resumes from the dead worker's last
checkpoint rather than replaying the whole run.
"""

import os
import signal
import time
from types import SimpleNamespace

import pytest

from repro.apps.scenario import run_scenario
from repro.service import JobSpec, ServiceConfig, Supervisor
from repro.service.runner import checkpoint_path, execute_job
from repro.snapshot import CheckpointPolicy, FORMAT_VERSION
from repro.telemetry import Telemetry
from repro.telemetry.live import LiveSampler
from tests.util import relabel_snapshot

pytestmark = pytest.mark.skipif(os.name != "posix",
                                reason="SIGKILL semantics required")

#: Big enough to checkpoint mid-run, small enough for CI (~1 s).
SPEC_KW = dict(app="lcs", n_nodes=4, params={"scale": 0.05},
               checkpoint_every=5_000, sample_every=1_000)


def _wait_for(predicate, timeout=90.0, interval=0.01):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        value = predicate()
        if value:
            return value
        time.sleep(interval)
    raise AssertionError("condition not reached within timeout")


def test_sigkill_mid_job_recovers_with_equal_digest(tmp_path):
    # Reference: the undisturbed run, executed in-process.
    reference = execute_job(JobSpec(**SPEC_KW))
    assert reference["resumed_from"] == 0

    workdir = str(tmp_path / "work")
    # The resumed leg is ~40 ms of simulation (plus, on a cold worker,
    # however long importing the app takes): the heartbeat period must
    # be well under that for a sample frame to be relayed at all.
    config = ServiceConfig(workdir=workdir, workers=1, heartbeat_s=0.01,
                           lease_timeout_s=1.5, backoff_s=0.05)
    supervisor = Supervisor(config, sampler=LiveSampler()).start()
    try:
        spec = JobSpec(**SPEC_KW)
        supervisor.submit(spec)
        ckpt = checkpoint_path(workdir, spec.digest)

        # Wait for a lease *and* a first checkpoint, then kill -9.
        def armed():
            with supervisor.lock:
                job = supervisor.queue.jobs[spec.digest]
                if job.state == "leased" and os.path.exists(ckpt):
                    return supervisor.workers[job.worker].pid
            return None

        victim = _wait_for(armed)
        os.kill(victim, signal.SIGKILL)

        def settled():
            with supervisor.lock:
                job = supervisor.queue.jobs[spec.digest]
                return job if job.state in ("done", "failed") else None

        job = _wait_for(settled)
        assert job.state == "done", job.error

        # One kill, one requeue, two attempts.
        assert job.requeues == 1
        assert job.attempts == 2

        # The recovered run is indistinguishable from the undisturbed
        # one: same telemetry digest, same cycle count, same output.
        assert job.result["fingerprint"] == reference["fingerprint"]
        assert job.result["cycles"] == reference["cycles"]
        assert job.result["output"] == reference["output"]

        # ...and it *resumed*: the retry replayed strictly fewer cycles
        # than a cold restart would have.
        resumed_from = job.result["resumed_from"]
        assert resumed_from > 0
        assert reference["cycles"] - resumed_from < reference["cycles"]

        # The lease expiry was accounted, a replacement worker spawned,
        # and heartbeat frames were relayed into the fleet sampler.
        status = supervisor.status()
        assert status["respawns"] >= 1
        assert supervisor.sampler.samples >= 1

        # Success cleaned the checkpoint up.
        assert not os.path.exists(ckpt)
    finally:
        supervisor.stop()

    # No worker processes survive stop().
    for handle_pids in [w["pid"] for w in supervisor.status()["workers"]]:
        with pytest.raises(ProcessLookupError):
            os.kill(handle_pids, 0)


@pytest.mark.parametrize("damage", ["corrupt", "older-version"])
def test_an_unreadable_checkpoint_is_dropped_and_the_job_runs_cold(
        tmp_path, damage):
    """A job's checkpoint this build cannot read — bit rot, or a file the
    previous snapshot format version wrote — is deleted and the job runs
    cold to the undisturbed fingerprint, rather than failing (and failing
    every resubmission of the spec) on the same file."""
    spec = JobSpec(app="ping", n_nodes=8, checkpoint_every=500)
    reference = execute_job(spec)
    ckpt = checkpoint_path(str(tmp_path), spec.digest)
    os.makedirs(os.path.dirname(ckpt))
    # A genuine mid-run checkpoint of this job, as a dead worker leaves it.
    policy = CheckpointPolicy(ckpt, every=spec.checkpoint_every,
                              meta={"job": spec.digest})
    run_scenario(spec.app, spec.n_nodes, spec.params, telemetry=Telemetry(),
                 checkpoint=policy)
    assert policy.saves >= 1
    if damage == "corrupt":
        with open(ckpt, "r+b") as fh:
            fh.seek(-5, os.SEEK_END)
            fh.write(b"\x00" * 5)
    else:
        relabel_snapshot(ckpt, FORMAT_VERSION - 1)

    result = execute_job(spec, ckpt_path=ckpt)
    assert result["resumed_from"] == 0
    assert result["fingerprint"] == reference["fingerprint"]
    assert result["cycles"] == reference["cycles"]
    assert not os.path.exists(ckpt)


def test_hung_worker_is_detected_and_revoked(tmp_path):
    """A worker that heartbeats but makes no progress is 'stalled':
    the lease expires on the progress window, not the silence timeout.

    Simulated by a worker whose job loops forever at the simulated
    level: a chaos-free lcs run with an artificially pinned clock is
    hard to fake from outside, so this exercises the LeaseTable path
    through the supervisor's watchdog with a synthetic lease instead:
    the heartbeat messages arrive as a worker's would, and the one that
    carries the stall past the window is what wakes the watchdog —
    nothing looks at the lease in between.
    """
    config = ServiceConfig(workdir=str(tmp_path / "work"), workers=0,
                           progress_window_s=0.2, lease_timeout_s=30.0)
    supervisor = Supervisor(config).start()
    try:
        spec = JobSpec(**SPEC_KW)
        with supervisor.lock:
            job = supervisor.queue.submit(spec)
            supervisor.queue.lease(job, worker=99)
            supervisor.leases.grant(spec.digest, worker=99)
        # Heartbeats flow, sim_now never moves.
        ghost = SimpleNamespace(wid=99, last_frame=None)
        for _ in range(8):
            supervisor._dispatch(ghost, {"type": "heartbeat",
                                         "sim_now": 12345})
            time.sleep(0.05)

        def revoked():
            with supervisor.lock:
                return supervisor.leases.expiries.get("stalled", 0) > 0 \
                    and supervisor.queue.jobs[spec.digest].state \
                    == "queued"

        _wait_for(revoked, timeout=30.0)
        with supervisor.lock:
            assert supervisor.queue.jobs[spec.digest].requeues == 1
    finally:
        supervisor.stop()
