"""Supervisor + HTTP API integration: the happy paths, in-process.

Timing note: these tests run real worker subprocesses with tight
heartbeat intervals; assertions poll with generous deadlines so a
loaded CI box cannot flake them.
"""

import json
import time
import urllib.error
import urllib.request

import pytest

from repro.service import JobSpec, ServiceConfig, Supervisor
from repro.service.http import ServiceServer
from repro.telemetry.live import LiveSampler


def _config(tmp_path, **overrides):
    kwargs = dict(workdir=str(tmp_path / "work"), workers=1,
                  heartbeat_s=0.05, lease_timeout_s=1.5, backoff_s=0.05)
    kwargs.update(overrides)
    return ServiceConfig(**kwargs)


def _wait_for(predicate, timeout=60.0, interval=0.05):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        value = predicate()
        if value:
            return value
        time.sleep(interval)
    raise AssertionError("condition not reached within timeout")


def _await_job(supervisor, digest, timeout=60.0):
    def settled():
        with supervisor.lock:
            job = supervisor.queue.jobs.get(digest)
            return job if job is not None \
                and job.state in ("done", "failed") else None

    return _wait_for(settled, timeout=timeout)


PING = dict(app="ping", n_nodes=4, params={"iterations": 10})


def test_serve_without_flags_runs_the_config_defaults(monkeypatch):
    """Every ``serve`` flag takes its default from ``ServiceConfig``:
    no flags means ``ServiceConfig(workdir="service-work")``, whose
    hung-worker window is 10 s."""
    from repro.service import __main__ as cli
    from repro.service import supervisor

    built = []

    class Built(Exception):
        pass

    def capture(config, sampler=None):
        built.append(config)
        raise Built

    monkeypatch.setattr(supervisor, "Supervisor", capture)
    with pytest.raises(Built):
        cli.main(["serve"])
    assert built == [ServiceConfig(workdir="service-work")]
    assert built[0].progress_window_s == 10.0


class TestSupervisor:
    def test_submit_executes_and_caches(self, tmp_path):
        supervisor = Supervisor(_config(tmp_path)).start()
        try:
            # Once the worker has reported ready it is idle, so the
            # submission itself leases the job: no scheduler pass between.
            _wait_for(lambda: supervisor.health()[0])
            spec = JobSpec(**PING)
            record = supervisor.submit(spec)
            assert record["state"] == "leased"
            assert record["worker"] is not None
            job = _await_job(supervisor, spec.digest)
            assert job.state == "done"
            assert job.result["cycles"] > 0
            assert len(job.result["fingerprint"]) == 64
            assert supervisor.cache.get(spec.digest) is not None
        finally:
            supervisor.stop()

    def test_cache_hit_skips_execution(self, tmp_path):
        config = _config(tmp_path)
        first = Supervisor(config).start()
        try:
            spec = JobSpec(**PING)
            first.submit(spec)
            reference = _await_job(first, spec.digest).result
        finally:
            first.stop()
        # A fresh supervisor over the same workdir: the resubmission
        # must be served from the content-addressed cache, not re-run.
        second = Supervisor(config)  # not even started: no workers
        record = second.submit(JobSpec(**PING))
        assert record["state"] == "done"
        assert record["cached"] is True
        assert record["result"]["fingerprint"] \
            == reference["fingerprint"]
        assert second.cache.hits == 1

    def test_deterministic_failure_is_not_retried(self, tmp_path):
        supervisor = Supervisor(_config(tmp_path)).start()
        try:
            # nqueens with a fault plan but no reliable transport: the
            # run dies deterministically on an unrecoverable drop.
            spec = JobSpec("nqueens", n_nodes=4,
                           params={"n": 6, "tasks_per_node": 2},
                           plan={"seed": 2, "specs": [
                               {"kind": "drop", "rate": 0.6}]})
            supervisor.submit(spec)
            job = _await_job(supervisor, spec.digest)
            assert job.state == "failed"
            assert job.requeues == 0  # no budget spent on determinism
            assert job.error
        finally:
            supervisor.stop()

    def test_chaos_job_with_reliable_transport_completes(self, tmp_path):
        supervisor = Supervisor(_config(tmp_path)).start()
        try:
            spec = JobSpec("lcs", n_nodes=4, params={"scale": 0.01},
                           plan={"seed": 2, "specs": [
                               {"kind": "drop", "rate": 0.05}]},
                           reliable=True)
            supervisor.submit(spec)
            job = _await_job(supervisor, spec.digest)
            assert job.state == "done", job.error
            assert job.result["reliable"]["acked"] > 0
            assert job.result["chaos"]["drops"] >= 0
        finally:
            supervisor.stop()

    def test_drain_finishes_leased_work(self, tmp_path):
        supervisor = Supervisor(_config(tmp_path)).start()
        try:
            spec = JobSpec("lcs", n_nodes=4, params={"scale": 0.02})
            supervisor.submit(spec)
            _wait_for(lambda: supervisor.queue.jobs[spec.digest]
                      .state != "queued")
            report = supervisor.drain(timeout_s=60.0)
            assert report["drained"] is True
            assert supervisor.queue.jobs[spec.digest].state == "done"
            assert len(supervisor.workers) == 0 or all(
                handle.proc.poll() is not None
                for handle in supervisor.workers.values())
        finally:
            supervisor.stop()

    def test_status_shape(self, tmp_path):
        supervisor = Supervisor(_config(tmp_path)).start()
        try:
            status = supervisor.status()
            assert set(status) >= {"uptime_s", "draining", "queue",
                                   "leases", "cache", "workers",
                                   "respawns"}
            assert len(status["workers"]) == 1
        finally:
            supervisor.stop()


class TestHttpApi:
    @pytest.fixture()
    def service(self, tmp_path):
        supervisor = Supervisor(_config(tmp_path),
                                sampler=LiveSampler()).start()
        server = ServiceServer(supervisor, port=0)
        server.start_background()
        yield server
        supervisor.stop()
        server.stop()

    @staticmethod
    def _get(server, path):
        try:
            with urllib.request.urlopen(server.url + path,
                                        timeout=10) as r:
                return r.status, json.loads(r.read())
        except urllib.error.HTTPError as error:
            return error.code, json.loads(error.read())

    @staticmethod
    def _post(server, path, body):
        request = urllib.request.Request(
            server.url + path, data=json.dumps(body).encode(),
            headers={"Content-Type": "application/json"})
        try:
            with urllib.request.urlopen(request, timeout=60) as r:
                return r.status, json.loads(r.read())
        except urllib.error.HTTPError as error:
            return error.code, json.loads(error.read())

    def test_submit_status_jobs_round_trip(self, service):
        code, record = self._post(service, "/submit", dict(PING))
        assert code == 200
        digest = record["digest"]
        _wait_for(lambda: self._get(service, f"/jobs/{digest}")[1]
                  ["state"] == "done")
        code, listing = self._get(service, "/jobs")
        assert code == 200
        assert [job["digest"] for job in listing["jobs"]] == [digest]
        code, status = self._get(service, "/status")
        assert status["queue"]["done"] == 1

    def test_malformed_spec_is_400(self, service):
        code, body = self._post(service, "/submit", {"app": "nope"})
        assert code == 400
        assert "nope" in body["error"]

    def test_shed_is_503_with_retry_after(self, tmp_path):
        supervisor = Supervisor(
            _config(tmp_path, queue_limit=1, workers=1)).start()
        server = ServiceServer(supervisor, port=0)
        server.start_background()
        try:
            self._post(server, "/submit",
                       dict(app="lcs", n_nodes=4,
                            params={"scale": 0.02}))
            code, record = self._post(server, "/submit", dict(PING))
            assert code == 503
            assert record["state"] == "shed"
        finally:
            supervisor.stop()
            server.stop()

    def test_unknown_job_is_404(self, service):
        code, body = self._get(service, "/jobs/" + "0" * 64)
        assert code == 404

    def test_live_endpoints_still_served(self, service):
        with urllib.request.urlopen(service.url + "/metrics",
                                    timeout=10) as response:
            assert response.status == 200
        code, snap = self._get(service, "/snapshot.json")
        assert code == 200
