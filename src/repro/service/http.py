"""The service's HTTP face: job endpoints layered over the live ones.

:class:`ServiceServer` extends the telemetry
:class:`~repro.telemetry.serve.LiveServer`, so a running service
exposes **both** APIs on one port:

inherited (fleet-wide live telemetry, relayed from worker heartbeats)
    ``GET /metrics``, ``GET /snapshot.json``, ``GET /fabric.json``,
    ``GET /stream`` — fabric-observatory payloads sampled in a worker
    ride its heartbeat frames, so ``/fabric.json`` relays fleet-wide
    exactly like ``/snapshot.json``

service
    ``GET  /status``          — queue counts, leases, cache, workers,
    scheduler counters
    ``GET  /healthz``         — 200 ``{"ok": true}`` while the whole
    configured fleet is alive and ready and the service is not
    draining; otherwise 503 with the reason
    ``GET  /jobs``            — every job record, newest first
    ``GET  /jobs/<digest>``   — one job (state, attempts, result,
    timing); with ``?wait=<seconds>`` the request blocks until the job
    settles or the wait (at most :data:`MAX_WAIT_S`) runs out, and then
    answers 200 with the record as it stands — or 503 if this service
    will not run the job at all (stopped, or draining and never leased)
    ``POST /submit``          — body: a JobSpec dict; 200 on admit /
    dedup / cache hit, **503 + Retry-After** when the bounded queue
    sheds (backpressure is explicit, not an ever-growing backlog),
    400 on a malformed spec
    ``POST /drain``           — finish in-flight work, stop workers;
    blocks until drained (body ``{"timeout_s": ...}`` optional), then
    sets :attr:`ServiceServer.stop_requested`

Everything is stdlib ``http.server``; handler threads only touch the
supervisor through its lock-guarded public methods.
"""

from __future__ import annotations

import json
import math
import threading
from typing import Any, Dict, Optional
from urllib.parse import parse_qs, urlsplit

from ..core.errors import SimulationError
from ..telemetry.live import HOST
from ..telemetry.serve import LiveServer, _Handler
from .spec import JobSpec
from .supervisor import DRAIN_TIMEOUT_S, Supervisor

__all__ = ["ServiceServer", "MAX_WAIT_S"]

#: Longest one ``GET /jobs/<digest>?wait=`` request is held, whatever it
#: asks for: short enough for any client or proxy timeout, long enough
#: that waiting for a job costs a request per half minute, not per poll.
MAX_WAIT_S = 30.0


class _ServiceHandler(_Handler):
    """Service routes first, then the inherited live-telemetry routes."""

    server: "ServiceServer"

    def _send_json(self, status: int, payload: Dict[str, Any],
                   retry_after: Optional[float] = None) -> None:
        body = json.dumps(payload, sort_keys=True).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if retry_after is not None:
            self.send_header("Retry-After", str(retry_after))
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self) -> None:  # noqa: N802 - stdlib casing
        supervisor = self.server.supervisor
        url = urlsplit(self.path)
        path = url.path
        if path == "/status":
            self._send_json(200, supervisor.status())
        elif path == "/healthz":
            ok, reason = supervisor.health()
            if ok:
                self._send_json(200, {"ok": True})
            else:
                self._send_json(503, {"ok": False, "reason": reason})
        elif path == "/jobs":
            with supervisor.lock:
                jobs = [job.to_dict()
                        for job in supervisor.queue.jobs.values()]
            jobs.reverse()
            self._send_json(200, {"jobs": jobs})
        elif path.startswith("/jobs/"):
            digest = path[len("/jobs/"):]
            try:
                wait_s = float(parse_qs(url.query).get("wait", ["0"])[-1])
            except ValueError:
                wait_s = math.nan
            if not 0.0 <= wait_s < math.inf:
                self._send_json(400, {"error": "wait wants a number of "
                                               "seconds, zero or more"})
                return
            # wait=0 (the default) is a plain read: the first look at
            # the job answers it, with no waiting.
            outcome = supervisor.wait_job(digest, min(wait_s, MAX_WAIT_S))
            if outcome is None:
                self._send_json(404, {"error": f"no job {digest!r}"})
                return
            record, pending = outcome
            gave_up = wait_s > 0 and not pending \
                and record["state"] not in ("done", "failed")
            self._send_json(503 if gave_up else 200, record)
        else:
            super().do_GET()

    def do_POST(self) -> None:  # noqa: N802 - stdlib casing
        supervisor = self.server.supervisor
        path = self.path.split("?", 1)[0]
        length = int(self.headers.get("Content-Length") or 0)
        raw = self.rfile.read(length) if length else b"{}"
        try:
            body = json.loads(raw.decode("utf-8")) if raw.strip() else {}
        except ValueError:
            self._send_json(400, {"error": "body is not valid JSON"})
            return
        if path == "/submit":
            try:
                spec = JobSpec.from_dict(body)
            except (SimulationError, TypeError) as exc:
                self._send_json(400, {"error": str(exc)})
                return
            record = supervisor.submit(spec)
            if record.get("state") == "shed":
                self._send_json(503, record,
                                retry_after=supervisor.config.backoff_s)
            else:
                self._send_json(200, record)
        elif path == "/drain":
            timeout_s = float(body.get("timeout_s", DRAIN_TIMEOUT_S))
            report = supervisor.drain(timeout_s=timeout_s)
            self._send_json(200, report)
            # The handler keeps serving status/jobs after a drain; the
            # process owner decides when to stop the listener itself,
            # and is told here, with the report already on the wire.
            self.server.stop_requested.set()
        else:
            self._send_json(404, {"error": f"no POST route {path!r}"})


class ServiceServer(LiveServer):
    """One port serving both the job API and fleet live telemetry."""

    def __init__(self, supervisor: Supervisor, host: str = HOST,
                 port: int = 0, verbose: bool = False) -> None:
        self.supervisor = supervisor
        #: What the process owner waits on before taking the listener
        #: down: set here once a ``POST /drain`` has been *answered*
        #: (stopping any sooner cuts the report off), and by the owner
        #: itself for its own reasons (``serve``: SIGTERM / SIGINT).
        self.stop_requested = threading.Event()
        sampler = supervisor.sampler
        if sampler is None:
            from ..telemetry.live import LiveSampler

            sampler = LiveSampler()
            supervisor.sampler = sampler
        super().__init__(sampler, host=host, port=port, verbose=verbose,
                         handler_cls=_ServiceHandler)
