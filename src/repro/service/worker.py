"""The worker process: one supervised executor on a JSON-lines pipe.

The supervisor launches ``python -m repro.service worker`` with the
protocol on stdin/stdout and diagnostics on stderr.  Messages are one
JSON object per line:

supervisor → worker::

    {"type": "job", "spec": {...}, "ckpt": "/path/or/null"}
    {"type": "exit"}

worker → supervisor::

    {"type": "ready", "pid": 1234}
    {"type": "heartbeat", "job": "<digest>", "sim_now": 48200,
     "frame": {...} | null}            # every heartbeat_s while running
    {"type": "result", "job": "<digest>", "result": {...},
     "exec_s": 0.0093}
    {"type": "error", "job": "<digest>", "error": "...",
     "retryable": false, "exec_s": 0.0021}

``exec_s`` is the wall time of ``execute_job`` in this process: host
time, so it travels *beside* ``result`` — the deterministic artifact
the cache stores — never inside it.

Protocol hygiene: the worker *dups* the real stdout for the protocol
and points ``sys.stdout`` at stderr before importing any simulation
code, so a stray ``print`` anywhere in the stack can never corrupt a
message frame.  Heartbeats come from a daemon thread reading the
worker's own :class:`~repro.telemetry.live.LiveSampler` — the
simulation loop is never blocked by, and never aware of, the
supervision traffic.

A :class:`~repro.core.errors.SimulationError` raised by a job is
*deterministic* — retrying the same spec would fail identically — so
it is reported ``retryable: false`` and the supervisor fails the job
without spending retry budget.  Anything that kills the process
(crash, ``kill -9``, OOM) surfaces to the supervisor as pipe EOF /
heartbeat silence, which is what the lease machinery exists for.
"""

from __future__ import annotations

import json
import os
import sys
import threading
import time
import traceback
from typing import Any, Dict, Optional, TextIO

__all__ = ["worker_main"]


class _ProtocolWriter:
    """Line-framed JSON writer with a lock (heartbeat thread + main)."""

    def __init__(self, stream: TextIO) -> None:
        self._stream = stream
        self._lock = threading.Lock()

    def send(self, message: Dict[str, Any]) -> None:
        line = json.dumps(message, separators=(",", ":"))
        with self._lock:
            self._stream.write(line + "\n")
            self._stream.flush()


class _Heartbeat:
    """Daemon thread: relay the sampler's latest frame every interval."""

    def __init__(self, out: _ProtocolWriter, sampler,
                 interval_s: float) -> None:
        self._out = out
        self._sampler = sampler
        self._interval_s = interval_s
        self._stop = threading.Event()
        self._job: Optional[str] = None
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name="service-heartbeat")

    def start(self) -> None:
        self._thread.start()

    def begin_job(self, digest: str) -> None:
        self._job = digest

    def end_job(self) -> None:
        self._job = None

    def stop(self) -> None:
        self._stop.set()

    def _run(self) -> None:
        while not self._stop.wait(self._interval_s):
            digest = self._job
            if digest is None:
                continue
            point = self._sampler.latest()
            try:
                self._out.send({
                    "type": "heartbeat",
                    "job": digest,
                    "sim_now": point.sim_now if point is not None else 0,
                    "frame": point.to_dict() if point is not None else None,
                })
            except (OSError, ValueError):
                return  # supervisor gone; the process is about to die too


def worker_main(workdir: str, heartbeat_s: float) -> int:
    """Run the worker loop until EOF or an ``exit`` message."""
    # Claim the protocol channel before any simulation code can print.
    proto_fd = os.dup(1)
    os.dup2(2, 1)
    proto = _ProtocolWriter(os.fdopen(proto_fd, "w", encoding="utf-8"))
    sys.stdout = sys.stderr

    from ..core.errors import SimulationError
    from ..telemetry.live import LiveSampler, SamplePolicy
    from .runner import checkpoint_path, execute_job
    from .spec import JobSpec

    proto.send({"type": "ready", "pid": os.getpid()})
    sampler: Optional[LiveSampler] = None
    beat: Optional[_Heartbeat] = None

    for line in sys.stdin:
        line = line.strip()
        if not line:
            continue
        message = json.loads(line)
        kind = message.get("type")
        if kind == "exit":
            break
        if kind != "job":
            proto.send({"type": "error", "job": None,
                        "error": f"unknown message type {kind!r}",
                        "retryable": False})
            continue
        spec = JobSpec.from_dict(message["spec"])
        # A fresh sampler per job: frames must never leak across jobs,
        # and the heartbeat thread reads it lock-free via latest().
        sampler = LiveSampler(
            SamplePolicy(every_cycles=spec.sample_every), ring=64)
        if beat is None:
            beat = _Heartbeat(proto, _SamplerProxy(), heartbeat_s)
            beat.start()
        beat._sampler.target = sampler
        ckpt = message.get("ckpt")
        if ckpt is None:
            ckpt = checkpoint_path(workdir, spec.digest)
        beat.begin_job(spec.digest)
        started = time.perf_counter()
        try:
            result = execute_job(spec, ckpt_path=ckpt, sampler=sampler)
        except Exception as exc:  # report it and stay alive
            if not isinstance(exc, SimulationError):
                traceback.print_exc()  # not a verdict on the spec: a bug
            outcome = {"type": "error", "job": spec.digest,
                       "error": f"{type(exc).__name__}: {exc}",
                       "retryable": False}
        else:
            outcome = {"type": "result", "job": spec.digest,
                       "result": result}
        outcome["exec_s"] = round(time.perf_counter() - started, 6)
        beat.end_job()
        proto.send(outcome)
    if beat is not None:
        beat.stop()
    return 0


class _SamplerProxy:
    """Swappable sampler handle so one heartbeat thread spans jobs."""

    __slots__ = ("target",)

    def __init__(self) -> None:
        self.target = None

    def latest(self):
        sampler = self.target
        return sampler.latest() if sampler is not None else None
