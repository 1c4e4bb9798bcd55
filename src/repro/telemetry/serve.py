"""Streaming endpoints over a :class:`~repro.telemetry.live.LiveSampler`.

A stdlib-only HTTP server (``http.server.ThreadingHTTPServer`` — no
third-party dependency, per the house toolchain rule) exposing the live
sample ring on three endpoints:

``/metrics``
    The latest frame in Prometheus text exposition format 0.0.4, so a
    stock Prometheus scraper (or ``curl``) can poll a running
    simulation.  See :func:`prometheus_name` for how dotted metric
    names map onto the Prometheus data model.
``/snapshot.json``
    The latest :class:`~repro.telemetry.live.SamplePoint` as JSON
    (``{"samples": 0}`` before the first frame).  Every frame carries
    the event-stream health (``events.collected``/``events.dropped``)
    and the sampler's own health (``live.samples``,
    ``live.sample_cost_us``, ``live.ring_dropped``), so a truncated or
    overloaded stream is visible live.
``/stream``
    Server-sent events: one ``data: <frame-json>`` message per sample
    frame, starting with the retained backlog, then following new
    frames as they land; a comment keepalive is emitted while idle.
``/fabric.json``
    The latest frame's fabric-observatory payload (per-link loads,
    stall-cause split, queue-occupancy summaries — see
    :class:`~repro.network.observatory.FabricReport`).  ``{}`` unless
    the sampled fabric has a probe attached.

Thread-safety contract: HTTP handler threads only ever read
sampler-captured frames (taken on the simulation thread at its safe
poll sites) — they never touch the metrics registry or the simulator,
so serving cannot perturb a run or crash on concurrently-mutated state.

Entry points: :class:`LiveServer` in-process, or
``python -m repro.telemetry serve`` for the demo workloads.
:func:`iter_sse` is the matching stdlib client, used by
``python -m repro.telemetry watch --url``.
"""

from __future__ import annotations

import json
import re
import selectors
import socket
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, Iterator, Optional, Tuple

from .live import HOST, LiveSampler, SamplePoint

__all__ = ["LiveServer", "prometheus_name", "render_prometheus", "iter_sse"]

_INVALID = re.compile(r"[^a-zA-Z0-9_]")
_NODE = re.compile(r"^node\.(\d+)\.(.+)$")
_HANDLER = re.compile(r"^handler\.([^.]+)\.([^.]+)$")


def _clean(part: str) -> str:
    return _INVALID.sub("_", part)


def prometheus_name(dotted: str) -> Tuple[str, Dict[str, str]]:
    """Map a dotted metric name to ``(prometheus_name, labels)``.

    The dotted schema's positional components become labels where they
    identify an instance rather than a quantity:

    * ``node.<i>.<rest>``      → ``jm_node_<rest>{node="<i>"}``
    * ``handler.<h>.<field>``  → ``jm_handler_<field>{handler="<h>"}``
    * anything else            → ``jm_<name with dots as underscores>``

    Remaining dots and invalid characters become underscores; every
    name carries the ``jm_`` namespace prefix.  The mapping is
    documented in docs/OBSERVABILITY.md §7 and pinned by
    tests/telemetry/test_serve.py.
    """
    match = _NODE.match(dotted)
    if match:
        return "jm_node_" + _clean(match.group(2).replace(".", "_")), \
            {"node": match.group(1)}
    match = _HANDLER.match(dotted)
    if match:
        return "jm_handler_" + _clean(match.group(2)), \
            {"handler": match.group(1)}
    return "jm_" + _clean(dotted.replace(".", "_")), {}


def render_prometheus(point: Optional[SamplePoint]) -> str:
    """One sample frame as Prometheus text exposition format 0.0.4."""
    if point is None:
        return "# no samples yet\n"
    by_name: Dict[str, list] = {}
    pairs = list(point.metrics.items())
    pairs += [(f"live.{key}", value) for key, value in point.derived.items()
              if isinstance(value, (int, float))]
    pairs += [("live.sim_now", point.sim_now),
              ("live.wall_s", point.wall_s),
              ("live.seq", point.seq)]
    for dotted, value in pairs:
        name, labels = prometheus_name(dotted)
        by_name.setdefault(name, []).append((labels, value))
    lines = []
    for name in sorted(by_name):
        lines.append(f"# TYPE {name} gauge")
        for labels, value in by_name[name]:
            label_str = ""
            if labels:
                inner = ",".join(f'{k}="{v}"'
                                 for k, v in sorted(labels.items()))
                label_str = "{" + inner + "}"
            lines.append(f"{name}{label_str} {value}")
    return "\n".join(lines) + "\n"


class _Handler(BaseHTTPRequestHandler):
    """Routes /metrics, /snapshot.json, /fabric.json, /stream; reads
    frames only."""

    protocol_version = "HTTP/1.1"
    server: "LiveServer"

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        if self.server.verbose:
            super().log_message(format, *args)

    def _send(self, status: int, content_type: str, body: bytes) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self) -> None:  # noqa: N802 - stdlib casing
        sampler = self.server.sampler
        path = self.path.split("?", 1)[0]
        if path == "/metrics":
            body = render_prometheus(sampler.latest()).encode()
            self._send(200, "text/plain; version=0.0.4; charset=utf-8", body)
        elif path == "/snapshot.json":
            point = sampler.latest()
            payload = point.to_dict() if point is not None else {"samples": 0}
            self._send(200, "application/json",
                       json.dumps(payload).encode())
        elif path == "/fabric.json":
            point = sampler.latest()
            payload = (point.fabric if point is not None
                       and point.fabric is not None else {})
            self._send(200, "application/json",
                       json.dumps(payload).encode())
        elif path == "/stream":
            self._stream(sampler)
        else:
            self._send(404, "text/plain", b"not found\n")

    def _stream(self, sampler: LiveSampler) -> None:
        self.send_response(200)
        self.send_header("Content-Type", "text/event-stream")
        self.send_header("Cache-Control", "no-cache")
        self.end_headers()
        last_seq = -1
        try:
            while not self.server.stopping:
                frames = sampler.wait_for_frame(last_seq, timeout=0.5)
                if not frames:
                    # SSE comment keepalive: lets the client (and any
                    # proxy) distinguish an idle run from a dead one.
                    self.wfile.write(b": keepalive\n\n")
                    self.wfile.flush()
                    continue
                for point in frames:
                    data = json.dumps(point.to_dict())
                    self.wfile.write(f"data: {data}\n\n".encode())
                    last_seq = point.seq
                self.wfile.flush()
        except (BrokenPipeError, ConnectionResetError):
            pass  # client went away; nothing to clean up


class LiveServer(ThreadingHTTPServer):
    """Serve a sampler's frame ring; start with :meth:`start_background`.

    ``port=0`` binds an ephemeral port (the resolved one is in
    :attr:`server_address`); the default host is loopback-only —
    exposing a wider bind is the caller's explicit choice.
    """

    daemon_threads = True
    #: The serving loop's ``select()`` timeout.  :meth:`stop` does not
    #: wait this out — it wakes the loop itself — so this only bounds a
    #: stop whose wake-up could not connect.
    wake_fallback_s = 0.5

    def __init__(self, sampler: LiveSampler, host: str = HOST,
                 port: int = 0, verbose: bool = False,
                 handler_cls: type = _Handler) -> None:
        self.sampler = sampler
        self.verbose = verbose
        self.stopping = False
        super().__init__((host, port), handler_cls)
        self._thread: Optional[threading.Thread] = None

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    def start_background(self) -> str:
        """Serve from a daemon thread; returns the base URL."""
        self._thread = threading.Thread(target=self._serve,
                                        name="live-server", daemon=True)
        self._thread.start()
        return self.url

    def _serve(self) -> None:
        # ``serve_forever`` minus its shutdown handshake, which can only
        # be requested and waited for in one call: no room to wake the
        # loop *after* the request, so a stop costs up to a poll period.
        with selectors.DefaultSelector() as selector:
            selector.register(self, selectors.EVENT_READ)
            while not self.stopping:
                if selector.select(self.wake_fallback_s):
                    self._handle_request_noblock()

    def stop(self) -> None:
        self.stopping = True
        # The serving thread is asleep in select(): a throw-away
        # connection wakes it now, and it sees ``stopping`` (set first).
        host, port = self.server_address[:2]
        try:
            socket.create_connection((host, port), timeout=1.0).close()
        except OSError:
            pass  # it wakes at its own timeout instead
        if self._thread is not None:
            self._thread.join(timeout=5)
        self.server_close()


def iter_sse(url: str, timeout: float = 10.0) -> Iterator[dict]:
    """Yield decoded ``data:`` frames from an SSE endpoint (stdlib only).

    Comment keepalives are skipped; the iterator ends when the server
    closes the stream or a read times out.
    """
    import urllib.request  # a client's import: servers never load it

    request = urllib.request.Request(url, headers={"Accept":
                                                   "text/event-stream"})
    with urllib.request.urlopen(request, timeout=timeout) as response:
        buffer = []
        for raw in response:
            line = raw.decode("utf-8").rstrip("\n").rstrip("\r")
            if line.startswith(":"):
                continue
            if line == "":
                if buffer:
                    yield json.loads("\n".join(buffer))
                    buffer = []
                continue
            if line.startswith("data:"):
                buffer.append(line[5:].lstrip())
