"""``service_sweep``: ``python -m repro.service serve --workers 2`` as a
subprocess, driven over HTTP.

Each pass submits 24 fresh specs (cache misses) in a closed loop from 2
client threads — one per worker, so the queue never holds more than the
fleet can lease and nothing is shed — then resubmits them 10 times from
one client (cache hits).  Jobs are short on purpose: queue, lease, pipe
and cache set the numbers, not simulation.

A phase's time is its request count x the median round trip (cold: per
client), not its wall-clock: on the reference box single requests stall
for 10-50 ms whenever the host is unsteady, which moved the hit phase's
wall by 3x between passes while its median round trip held (ten runs:
wall spread 7.6 %, this 4.4 %).  The wall feeds ``service.jobs_per_s``.

Set-up is the client's own: generate the run's whole spec grid and
canonicalise it, so that every cold job is known to be a cache miss.
The service boots after it, untimed by ``setup_s``: three Python
processes starting moved 29 % between two sets of runs of identical
code on the reference box, more than any bound the benchmark contract
allows, so boot time is the per-layer ``service.boot_s`` only.
"""

from __future__ import annotations

import atexit
import http.client
import json
import os
import random
import re
import signal
import subprocess
import sys
import threading
import time
from typing import Any, Dict, List

from harness import Results, Unit, Workload, median, percentile, ratio

JOBS_PER_PASS = 24
CLIENTS = 2
POLL_S = 0.002
#: Ping specs come in pairs of 50 +/- d iterations so every pass does
#: the same work under distinct digests; d runs out at 49.
MAX_PASSES = 49


def _specs(base_seed: int, index: int) -> List[Dict[str, Any]]:
    """The ``index``-th batch: same work every time, digests never seen."""
    specs: List[Dict[str, Any]] = []
    for k in range(14):
        specs.append({"app": "lcs", "n_nodes": 8, "params": {
            "scale": 0.02 if k % 2 else 0.01,
            "seed": base_seed + index * 100 + k}})
    for k in range(8):
        # An empty fault plan is inert; its name only makes the digest new.
        specs.append({"app": "nqueens", "n_nodes": 8,
                      "params": {"n": 7 + k % 2},
                      "plan": {"name": f"none-{index}-{k}", "seed": 0,
                               "specs": []}})
    for sign in (-1, 1):
        specs.append({"app": "ping", "n_nodes": 8,
                      "params": {"iterations": 50 + sign * (index + 1)}})
    random.Random(base_seed + index).shuffle(specs)
    return specs


class _Service:
    """The service subprocess and a minimal HTTP client for it."""

    def __init__(self, workdir: str, src: str) -> None:
        self.workdir, self.src = workdir, src
        self.proc = None
        self.boot_s = self.drain_s = 0.0

    def boot(self) -> None:
        """Start the service; returns once every worker reports ready."""
        env = dict(os.environ)
        env["PYTHONPATH"] = self.src
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-u", "-m", "repro.service", "serve",
             "--workdir", self.workdir, "--workers", str(CLIENTS),
             "--port", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            env=env)
        try:
            match = None
            while match is None:
                line = self.proc.stdout.readline()
                if not line:
                    raise RuntimeError("service exited before announcing "
                                       "its URL")
                match = re.search(r"on http://([\d.]+):(\d+) ", line)
            self.host, self.port = match.group(1), int(match.group(2))
            deadline = time.monotonic() + 60
            while not all(w["ready"] for w in self.get("/status")["workers"]):
                if time.monotonic() > deadline:
                    raise RuntimeError("service workers never became ready")
                time.sleep(0.01)
        except BaseException:
            self.proc.kill()
            self.proc.communicate()
            raise
        self.boot_s = time.perf_counter() - started
        # Whatever goes wrong later, no service outlives the benchmark.
        atexit.register(self.stop)

    def _request(self, method: str, path: str, body=None):
        connection = http.client.HTTPConnection(self.host, self.port,
                                                timeout=60)
        try:
            payload = None if body is None else json.dumps(body)
            connection.request(method, path, body=payload, headers={
                "Content-Type": "application/json"})
            response = connection.getresponse()
            return response.status, json.loads(response.read())
        finally:
            connection.close()

    def get(self, path: str) -> Dict[str, Any]:
        return self._request("GET", path)[1]

    def submit(self, spec: Dict[str, Any]):
        return self._request("POST", "/submit", spec)

    def round_trip(self, spec: Dict[str, Any]):
        """/submit, then poll /jobs/<digest> until it settles."""
        started = time.perf_counter()
        status, record = self.submit(spec)
        while status == 200 and record["state"] not in ("done", "failed"):
            time.sleep(POLL_S)
            record = self.get(f"/jobs/{record['digest']}")
        return time.perf_counter() - started, status, record

    def stop(self) -> None:
        """SIGTERM: the service drains, stops its workers, and exits."""
        if self.proc is None or self.proc.poll() is not None:
            return
        started = time.perf_counter()
        self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
        self.drain_s = time.perf_counter() - started


def setup(seed: int, scale: float, ctx) -> Workload:
    import repro
    from repro.service.spec import JobSpec

    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    base_seed = random.Random(f"{seed}/service_sweep").getrandbits(24) * 10_000
    hit_rounds = max(2, int(10 * scale))
    # Every cold job must be a cache miss, so every digest this run can
    # submit has to be distinct: checked here, not discovered mid-run.
    grid = [_specs(base_seed, index) for index in range(MAX_PASSES)]
    digests = {JobSpec.from_dict(spec).digest
               for batch in grid for spec in batch}
    if len(digests) != MAX_PASSES * JOBS_PER_PASS:
        raise RuntimeError("service_sweep generated colliding specs")
    batches = iter(grid)
    service = _Service(
        os.path.join(ctx.tmpdir, f"service-{time.monotonic_ns()}"), src)
    #: Per executed phase, in order: round-trip seconds of each job.
    cold_runs: List[List[float]] = []
    hit_runs: List[List[float]] = []
    #: spec digest -> fingerprint of the batch most recently run cold.
    state: Dict[str, Any] = {"specs": [], "fingerprints": {}}

    def next_batch():
        try:
            return next(batches)
        except StopIteration:
            raise RuntimeError(f"service_sweep has fresh specs for "
                               f"{MAX_PASSES} passes per run only") from None

    def run_cold(specs):
        state["specs"] = specs
        todo = list(enumerate(specs))
        lock = threading.Lock()
        records: List[Any] = [None] * len(specs)

        def client():
            while True:
                with lock:
                    if not todo:
                        return
                    index, spec = todo.pop(0)
                records[index] = service.round_trip(spec)

        threads = [threading.Thread(target=client) for _ in range(CLIENTS)]
        started = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return time.perf_counter() - started, records

    def cold_stats(result):
        wall, records = result
        failed = sum(1 for _, status, record in records
                     if status != 200 or record["state"] != "done"
                     or record["cached"])
        done = [record for _, status, record in records
                if status == 200 and record["state"] == "done"]
        state["fingerprints"] = {record["digest"]:
                                 record["result"]["fingerprint"]
                                 for record in done}
        latencies = [latency for latency, _, _ in records]
        cold_runs.append(latencies)
        return {"jobs": len(records), "failed_ops": failed, "wall_s": wall,
                "typical_s": len(records) / CLIENTS * median(latencies),
                "cycles": sum(r["result"]["cycles"] for r in done),
                "requeues": sum(r["requeues"] for r in done)}

    def run_hit(_):
        # The batch most recently run cold, whichever order the pass
        # takes the two phases in.
        out = []
        for _round in range(hit_rounds):
            for spec in state["specs"]:
                started = time.perf_counter()
                status, record = service.submit(spec)
                out.append((time.perf_counter() - started, status, record))
        return out

    def hit_stats(records):
        fingerprints = state["fingerprints"]
        failed = sum(
            1 for _, status, record in records
            if status != 200 or record["state"] != "done"
            or record["result"]["fingerprint"]
            != fingerprints.get(record["digest"]))
        latencies = [latency for latency, _, _ in records]
        hit_runs.append(latencies)
        return {"jobs": len(records), "failed_ops": failed,
                "typical_s": len(records) * median(latencies)}

    units = [
        Unit("cold_phase", next_batch, run_cold, cold_stats,
             ops=JOBS_PER_PASS, calibrate=False, repeats=False),
        Unit("hit_phase", lambda: None, run_hit, hit_stats,
             ops=JOBS_PER_PASS * hit_rounds, calibrate=False, repeats=False),
    ]
    exec_latencies: List[float] = []
    micro_reps = max(20, int(400 * scale))
    if ctx.layers:
        def prepare_exec():
            from repro.service.runner import checkpoint_path, execute_job

            # What a worker does with one cold batch, checkpoint policy
            # included; digests are irrelevant in-process.
            specs = [JobSpec.from_dict(spec) for spec in grid[0]]
            return execute_job, [
                (spec, checkpoint_path(ctx.tmpdir, spec.digest))
                for spec in specs]

        def run_exec(prepared):
            execute_job, jobs = prepared
            del exec_latencies[:]
            for spec, ckpt in jobs:
                started = time.perf_counter()
                execute_job(spec, ckpt_path=ckpt)
                exec_latencies.append(time.perf_counter() - started)
            return len(jobs)

        def run_digest(specs):
            for i in range(micro_reps):
                digest = JobSpec.from_dict(specs[i % len(specs)]).digest
            return digest

        def prepare_cache():
            from repro.service.cache import ResultCache

            cache = ResultCache(os.path.join(ctx.tmpdir, "cache-direct"))
            result = {"cycles": 1, "fingerprint": "0" * 64, "n_events": 1}
            return cache, result

        def run_cache_put(prepared):
            cache, result = prepared
            for i in range(micro_reps):
                cache.put(f"{i:064x}", result)
            return cache

        def run_cache_get(cache):
            return sum(cache.get(f"{i:064x}") is not None
                       for i in range(micro_reps))

        def run_status(_):
            for _i in range(micro_reps // 8):
                status = service.get("/status")
            return status

        units += [
            Unit("exec_inproc", prepare_exec, run_exec,
                 lambda n: {"jobs": n}, e2e=False),
            Unit("spec_digest", lambda: grid[0], run_digest,
                 lambda digest: {"digest_len": len(digest)}, e2e=False),
            Unit("cache_put", prepare_cache, run_cache_put,
                 lambda cache: {"entries": len(cache)}, e2e=False),
            Unit("cache_get", lambda: run_cache_put(prepare_cache()),
                 run_cache_get, lambda hits: {"hits": hits}, e2e=False),
            Unit("status_rtt", lambda: None, run_status,
                 lambda status: {"shed": status["queue"]["shed"],
                                 "respawns": status["respawns"]},
                 e2e=False, repeats=False),
        ]

    def layer_metrics(r: Results):
        # Pooled over the timed passes; entry 0 of each list is the
        # warm-up and the last the traced pass.
        timed = slice(1, 1 + len(r.passes))
        cold = [latency for run in cold_runs[timed] for latency in run]
        hit = [latency for run in hit_runs[timed] for latency in run]
        cold_wall = median([p.samples["cold_phase"].stats["wall_s"]
                            for p in r.passes])
        cold_p50 = median(cold)
        exec_s = r.seconds("exec_inproc")
        exec_p50 = median(exec_latencies) if exec_latencies else None
        return {
            "service.jobs_per_s": JOBS_PER_PASS / cold_wall,
            "service.cold_latency_p50_s": cold_p50,
            "service.cold_latency_p90_s": percentile(cold, 0.90),
            "service.hit_latency_p50_ms": median(hit) * 1e3,
            "service.hit_latency_p95_ms": percentile(hit, 0.95) * 1e3,
            "service.boot_s": service.boot_s,
            "service.exec_s": exec_s,
            "service.overhead_per_job_ms":
                None if exec_p50 is None else (cold_p50 - exec_p50) * 1e3,
            "service.worker_util": ratio(exec_s, CLIENTS * cold_wall),
            "service.spec_digest_us":
                ratio(r.seconds("spec_digest"), micro_reps / 1e6),
            "service.cache_put_us":
                ratio(r.seconds("cache_put"), micro_reps / 1e6),
            "service.cache_get_us":
                ratio(r.seconds("cache_get"), micro_reps / 1e6),
            "service.status_rtt_ms":
                ratio(r.seconds("status_rtt"), (micro_reps // 8) / 1e3),
            "service.shed_count": r.stat("status_rtt", "shed"),
            "service.requeues": sum(
                p.samples["cold_phase"].stats["requeues"] for p in r.passes),
            "service.drain_s": service.drain_s,
        }

    return Workload(units, layer_metrics, start=service.boot,
                    close=service.stop, multi_process=True, profiled=frozenset({"exec_inproc"}))
