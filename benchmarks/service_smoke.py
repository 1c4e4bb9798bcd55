"""Service smoke: boot, sweep, kill a worker, recover, cache, drain.

The ``make service-smoke`` entry point (chained into ``make check``).
It drives the fault-tolerant service end to end, as a real client —
everything through ``python -m repro.service`` subprocesses and the
HTTP API, nothing in-process:

1. **boot** a service with 2 workers on an ephemeral port;
2. **sweep**: submit a small LCS grid (3 scales) plus one ping job;
   while the biggest job is leased, ``kill -9`` its worker and assert
   the job still completes — recovered on a retry that *resumed* from
   the dead worker's checkpoint (``resumed_from > 0``) — and that
   the scheduler got there by messages and deadlines, not by looking
   (``/status["scheduler"]``, by count: every first attempt leased by
   the transition that made it possible, the retry by its backoff
   deadline, and a watchdog that woke a bounded number of times);
3. **drain** the service and assert every worker process is gone and
   no ``*.tmp.<pid>`` litter survives anywhere in the workdir;
4. **re-boot** a fresh service on the same workdir and resubmit the
   identical grid: every job must come back instantly from the
   content-addressed cache (100% hits, zero executions), with
   fingerprints equal to the first pass — the determinism contract
   doing real work.  This one is taken down by ``POST /drain``: the
   client gets its report *and* the process follows the drain down.

Usage::

    PYTHONPATH=src python benchmarks/service_smoke.py --smoke
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import time
import urllib.error
import urllib.request

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
sys.path.insert(0, SRC)

#: The sweep: three LCS scales + one ping.  The 0.05 job is long
#: enough (~1 s, several checkpoints) to be killed mid-run.
GRID = [
    {"app": "lcs", "n_nodes": 4, "params": {"scale": 0.01},
     "checkpoint_every": 5_000, "sample_every": 1_000},
    {"app": "lcs", "n_nodes": 4, "params": {"scale": 0.02},
     "checkpoint_every": 5_000, "sample_every": 1_000},
    {"app": "lcs", "n_nodes": 4, "params": {"scale": 0.05},
     "checkpoint_every": 5_000, "sample_every": 1_000},
    {"app": "ping", "n_nodes": 4, "params": {"iterations": 10}},
]
VICTIM = 2  # index of the job whose worker gets killed
LEASE_TIMEOUT_S = 1.5


def _get(url: str, path: str, timeout: float = 15):
    with urllib.request.urlopen(url + path, timeout=timeout) as response:
        return json.loads(response.read())


def _post(url: str, path: str, body: dict):
    request = urllib.request.Request(
        url + path, data=json.dumps(body).encode(),
        headers={"Content-Type": "application/json"})
    try:
        with urllib.request.urlopen(request, timeout=120) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def _boot(workdir: str, workers: int = 2) -> tuple:
    """Start a service subprocess; returns (proc, url)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    proc = subprocess.Popen(
        [sys.executable, "-u", "-m", "repro.service", "serve",
         "--workdir", workdir, "--workers", str(workers), "--port", "0",
         "--heartbeat-s", "0.05",
         "--lease-timeout-s", str(LEASE_TIMEOUT_S)],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        env=env)
    deadline = time.monotonic() + 30
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        match = re.search(r"on (http://[\d.:]+) ", line)
        if match:
            return proc, match.group(1)
    raise AssertionError("service never printed its URL")


def _wait_job(url: str, digest: str, timeout: float = 120.0) -> dict:
    # The server does the waiting (and holds one request 30 s at most).
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        record = _get(url, f"/jobs/{digest}?wait=30", timeout=45)
        if record["state"] in ("done", "failed"):
            return record
    raise AssertionError(f"job {digest[:8]} never settled")


def _assert_no_tmp_litter(workdir: str) -> None:
    litter = []
    for root, _dirs, files in os.walk(workdir):
        litter += [os.path.join(root, name) for name in files
                   if ".tmp." in name]
    assert not litter, f"orphaned tmp files after drain: {litter}"


def _assert_message_driven(status: dict, requeues: int) -> None:
    """The scheduler's own counts: who granted each lease, and how often
    the watchdog looked.  Counts, not times, so a slow box changes
    nothing here."""
    scheduler = status["scheduler"]
    granted = status["leases"]["granted"]
    assert granted == len(GRID) + requeues, status["leases"]
    # First attempts are leased by submit / ready / result, in passing;
    # only a retry waits for the clock, and only the watchdog serves it.
    assert scheduler["event_dispatches"] == len(GRID), scheduler
    assert scheduler["deadline_dispatches"] == requeues, scheduler
    # The watchdog is woken by a lease granted or a job requeued (its
    # deadlines moved), looks once per lease_timeout_s or so while a
    # lease is held, and the constant covers the few settles that left
    # a worker idle, which wake it for nothing.  A loop ticking at
    # 20 Hz is past this bound in half a second.
    bound = (granted + requeues
             + status["uptime_s"] / LEASE_TIMEOUT_S + 4)
    assert scheduler["watchdog_wakeups"] <= bound, (scheduler, bound)
    print(f"service-smoke: {scheduler['event_dispatches']} event + "
          f"{scheduler['deadline_dispatches']} deadline dispatches, "
          f"watchdog woke {scheduler['watchdog_wakeups']}x in "
          f"{status['uptime_s']:.1f} s (bound {bound:.0f})")


def _shutdown(proc: subprocess.Popen, worker_pids, drain_url=None) -> None:
    """SIGTERM the service — or, given its URL, ``POST /drain`` and take
    the report; assert it drains, exits, and leaves no orphans."""
    if drain_url is None:
        proc.send_signal(signal.SIGTERM)
    else:
        code, report = _post(drain_url, "/drain", {"timeout_s": 60})
        assert (code, report["drained"]) == (200, True), report
    out, _ = proc.communicate(timeout=120)
    assert proc.returncode == 0, out
    assert "shut down cleanly" in out, out
    for pid in worker_pids:
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            continue
        raise AssertionError(f"worker {pid} survived the drain")


def run_smoke(workdir: str) -> None:
    # ---- pass 1: execute the grid, killing one worker mid-run -------------
    proc, url = _boot(workdir)
    digests, fingerprints = [], {}
    try:
        status = _get(url, "/status")
        assert len(status["workers"]) == 2
        for spec in GRID:
            code, record = _post(url, "/submit", spec)
            assert code == 200, record
            digests.append(record["digest"])
        victim_digest = digests[VICTIM]

        # Kill the victim job's worker once it is leased and has
        # checkpointed (resumed_from > 0 below proves the checkpoint).
        ckpt = os.path.join(workdir, "ckpt", f"{victim_digest}.ckpt")
        deadline = time.monotonic() + 60
        victim_pid = None
        while time.monotonic() < deadline:
            status = _get(url, "/status")
            wid = next((lease["worker"] for lease
                        in status["leases"]["active"]
                        if lease["digest"] == victim_digest), None)
            if wid is not None and os.path.exists(ckpt):
                victim_pid = next(w["pid"] for w in status["workers"]
                                  if w["wid"] == wid)
                break
            if _get(url, f"/jobs/{victim_digest}")["state"] == "done":
                break  # too fast to kill; accept (but see assert below)
            time.sleep(0.01)
        killed = victim_pid is not None
        if killed:
            os.kill(victim_pid, signal.SIGKILL)
            print(f"service-smoke: killed worker pid {victim_pid} "
                  f"holding {victim_digest[:8]}")

        for spec, digest in zip(GRID, digests):
            record = _wait_job(url, digest)
            assert record["state"] == "done", record
            fingerprints[digest] = record["result"]["fingerprint"]
        assert killed, "victim job finished before it could be killed; " \
            "grow its scale so the recovery path is actually exercised"
        victim = _get(url, f"/jobs/{victim_digest}")
        assert victim["requeues"] == 1, victim
        assert victim["result"]["resumed_from"] > 0, \
            "retry restarted cold instead of resuming from checkpoint"
        print(f"service-smoke: recovered {victim_digest[:8]} on attempt "
              f"{victim['attempts']}, resumed from cycle "
              f"{victim['result']['resumed_from']}")

        status = _get(url, "/status")
        assert status["leases"]["revoked"] >= 0  # EOF path, not watchdog
        assert status["respawns"] >= 1
        worker_pids = [w["pid"] for w in status["workers"]]
        _assert_message_driven(status, requeues=victim["requeues"])
    except BaseException:
        proc.kill()
        proc.communicate()
        raise
    _shutdown(proc, worker_pids)
    _assert_no_tmp_litter(workdir)
    print(f"service-smoke: pass 1 done — {len(GRID)} jobs, "
          f"1 worker killed, drained clean")

    # ---- pass 2: same grid, fresh service — 100% cache hits ---------------
    proc, url = _boot(workdir)
    try:
        t0 = time.monotonic()
        for spec, digest in zip(GRID, digests):
            code, record = _post(url, "/submit", spec)
            assert code == 200
            assert record["state"] == "done", \
                f"{digest[:8]} was not served from cache: {record}"
            assert record["cached"] is True
            assert record["result"]["fingerprint"] == fingerprints[digest]
        elapsed = time.monotonic() - t0
        status = _get(url, "/status")
        assert status["cache"]["hits"] == len(GRID), status["cache"]
        assert status["cache"]["misses"] == 0, status["cache"]
        assert status["queue"]["leased"] == 0
        worker_pids = [w["pid"] for w in status["workers"]]
    except BaseException:
        proc.kill()
        proc.communicate()
        raise
    _shutdown(proc, worker_pids, drain_url=url)
    _assert_no_tmp_litter(workdir)
    print(f"service-smoke: pass 2 done — {len(GRID)}/{len(GRID)} cache "
          f"hits in {elapsed * 1000:.0f} ms, fingerprints equal")
    print("service-smoke: OK")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--smoke", action="store_true",
                        help="run the smoke (the only mode; flag kept "
                             "for Makefile symmetry)")
    parser.add_argument("--workdir", default=None,
                        help="service state dir (default: a fresh "
                             "temporary directory, removed afterwards)")
    args = parser.parse_args()
    workdir = args.workdir or tempfile.mkdtemp(prefix="service-smoke-")
    try:
        run_smoke(workdir)
    finally:
        if args.workdir is None:
            shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
