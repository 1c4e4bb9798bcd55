"""Graceful shutdown of ``repro.telemetry serve``: SIGTERM == SIGINT.

Before PR 9, SIGTERM killed the process in a daemon thread without
closing SSE streams or releasing the port; only Ctrl-C (SIGINT →
KeyboardInterrupt) took the clean path.  Both signals now funnel into
one exit path: stop the HTTP server (which ends every ``/stream``
loop), release the socket, and exit 0.

``LiveServer.stop()`` itself must not wait for the serving thread's
next look at its ``stopping`` flag: it wakes the thread.
"""

import os
import re
import signal
import subprocess
import sys
import time
import urllib.request

import pytest

pytestmark = pytest.mark.skipif(os.name != "posix",
                                reason="POSIX signals required")


def _spawn_serve(*extra):
    # -u: the child must flush its URL line before we can proceed.
    return subprocess.Popen(
        [sys.executable, "-u", "-m", "repro.telemetry", "serve",
         "--workload", "lcs", "--nodes", "4", "--scale", "0.02",
         "--port", "0", *extra],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )


def _await_url(proc, timeout=30.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        match = re.search(r"on (http://[\d.:]+) ", line)
        if match:
            return match.group(1)
    raise AssertionError("serve never printed its URL")


@pytest.mark.parametrize("signum", [signal.SIGTERM, signal.SIGINT])
def test_signal_shuts_serve_down_cleanly(signum):
    proc = _spawn_serve()
    try:
        url = _await_url(proc)
        # The server is actually serving before the signal arrives.
        with urllib.request.urlopen(url + "/snapshot.json",
                                    timeout=10) as response:
            assert response.status == 200
        proc.send_signal(signum)
        out, err = proc.communicate(timeout=30)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    assert proc.returncode == 0, err
    assert "shut down cleanly" in out


def test_port_released_after_sigterm():
    proc = _spawn_serve()
    try:
        url = _await_url(proc)
        port = int(url.rsplit(":", 1)[1])
        proc.send_signal(signal.SIGTERM)
        proc.communicate(timeout=30)
        # Rebinding the exact port proves the socket was closed, not
        # abandoned to a dying daemon thread.
        import socket

        with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as sock:
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            sock.bind(("127.0.0.1", port))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()


def test_stop_wakes_the_serving_thread(monkeypatch):
    """With the serving thread's own timeout out of the picture, only
    stop()'s wake-up connection can end the loop this fast."""
    from repro.telemetry.live import LiveSampler
    from repro.telemetry.serve import LiveServer

    monkeypatch.setattr(LiveServer, "wake_fallback_s", 60.0)
    for _ in range(3):
        server = LiveServer(LiveSampler())
        url = server.start_background()
        with urllib.request.urlopen(url + "/snapshot.json",
                                    timeout=10) as response:
            assert response.status == 200
        thread = server._thread
        started = time.monotonic()
        server.stop()
        # Generous: the wake-up takes about a millisecond; without it
        # stop() gives up on the join after 5 s with the thread alive.
        assert time.monotonic() - started < 2.0
        assert not thread.is_alive()
