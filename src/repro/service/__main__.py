"""CLI for the fault-tolerant simulation service.

Usage::

    python -m repro.service serve --workers 2 --port 8124
    python -m repro.service submit --url http://127.0.0.1:8124 \\
        --app lcs --nodes 8 --param scale=0.05
    python -m repro.service status --url http://127.0.0.1:8124
    python -m repro.service drain  --url http://127.0.0.1:8124

``serve`` runs the supervisor + worker fleet + HTTP API in the
foreground and drains cleanly on SIGTERM/SIGINT (finish leased jobs,
checkpoint, stop workers, release the port).  ``submit``/``status``/
``drain`` are thin stdlib HTTP clients for a running server.

There is also a hidden ``worker`` subcommand — the supervisor's spawn
target, never run by hand (its stdin/stdout are a JSON-lines protocol,
see :mod:`repro.service.worker`).
"""

from __future__ import annotations

import argparse
import json
import sys
import urllib.error
import urllib.request
from typing import Any, Dict, List, Optional

from .spec import APPS


def _post(url: str, path: str, body: Dict[str, Any],
          timeout: float = 120.0) -> Dict[str, Any]:
    request = urllib.request.Request(
        url.rstrip("/") + path,
        data=json.dumps(body).encode("utf-8"),
        headers={"Content-Type": "application/json"}, method="POST")
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return json.loads(response.read().decode("utf-8"))
    except urllib.error.HTTPError as exc:
        return json.loads(exc.read().decode("utf-8"))


def _get(url: str, path: str, timeout: float = 10.0) -> Dict[str, Any]:
    with urllib.request.urlopen(url.rstrip("/") + path,
                                timeout=timeout) as response:
        return json.loads(response.read().decode("utf-8"))


def _wait_for_job(url: str, digest: str, wait_s: float
                  ) -> Optional[Dict[str, Any]]:
    """The job's record once it settles or the service gives it up
    (``GET /jobs/<digest>?wait=``: the *server* does the waiting, one
    request per ``MAX_WAIT_S``); None when ``wait_s`` runs out first."""
    import time

    from .http import MAX_WAIT_S

    deadline = time.monotonic() + wait_s
    while True:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            return None
        hold = min(remaining, MAX_WAIT_S)
        try:
            record = _get(url, f"/jobs/{digest}?wait={hold:.3f}",
                          timeout=hold + 30.0)
        except urllib.error.HTTPError as exc:
            if exc.code != 503:
                raise
            return json.loads(exc.read().decode("utf-8"))
        if record["state"] in ("done", "failed"):
            return record


def _parse_params(pairs: List[str]) -> Dict[str, Any]:
    params: Dict[str, Any] = {}
    for pair in pairs:
        if "=" not in pair:
            raise SystemExit(f"--param wants name=value, got {pair!r}")
        name, value = pair.split("=", 1)
        try:
            params[name] = json.loads(value)
        except ValueError:
            params[name] = value
    return params


def _cmd_serve(args: argparse.Namespace) -> int:
    import logging
    import signal

    from ..telemetry.live import LiveSampler
    from .http import ServiceServer
    from .supervisor import ServiceConfig, Supervisor

    logging.basicConfig(
        stream=sys.stderr, format="%(asctime)s %(name)s: %(message)s",
        level=logging.INFO if args.verbose else logging.WARNING)
    config = ServiceConfig(
        workdir=args.workdir, workers=args.workers,
        queue_limit=args.queue_limit, max_retries=args.max_retries,
        heartbeat_s=args.heartbeat_s, lease_timeout_s=args.lease_timeout_s,
        progress_window_s=args.progress_window_s, seed=args.seed)
    supervisor = Supervisor(config, sampler=LiveSampler()).start()
    server = ServiceServer(supervisor, host=args.host, port=args.port,
                           verbose=args.verbose)
    # Same single-exit-path discipline as ``repro.telemetry serve``:
    # both signals set one event; the drain below finishes leased jobs
    # (checkpoints mean an interrupted retry resumes, not restarts),
    # stops the workers, closes SSE streams, and releases the port.
    # A POST /drain stops the supervisor from a handler thread and the
    # process must follow it down exactly as if it had been signalled
    # (docs/SERVICE.md §6), so the event is the server's: it sets it
    # when that request has been answered.
    # Handlers go in before the URL is announced: a client that signals
    # the moment it sees the URL must never hit the default handlers.
    stop = server.stop_requested
    previous = {}
    for signum in (signal.SIGTERM, signal.SIGINT):
        previous[signum] = signal.signal(
            signum, lambda _signum, _frame: stop.set())
    url = server.start_background()
    print(f"service: {args.workers} workers on {url} "
          f"(/submit /status /healthz /jobs /drain + /metrics "
          f"/snapshot.json /stream); Ctrl-C or SIGTERM to drain and stop",
          flush=True)
    try:
        stop.wait()
    except KeyboardInterrupt:
        pass
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)
        report = supervisor.drain(timeout_s=args.drain_timeout_s)
        server.stop()
        print(f"service: drained={report['drained']} "
              f"counts={report['counts']}; shut down cleanly", flush=True)
    return 0


def _cmd_worker(args: argparse.Namespace) -> int:
    from .worker import worker_main

    return worker_main(args.workdir, heartbeat_s=args.heartbeat_s)


def _cmd_submit(args: argparse.Namespace) -> int:
    spec: Dict[str, Any] = {"app": args.app, "n_nodes": args.nodes,
                            "params": _parse_params(args.param)}
    if args.plan is not None:
        with open(args.plan, "r", encoding="utf-8") as fh:
            spec["plan"] = json.load(fh)
    if args.reliable:
        spec["reliable"] = True
    record = _post(args.url, "/submit", spec)
    print(json.dumps(record, indent=1, sort_keys=True))
    if record.get("state") == "shed":
        return 1
    if not args.wait:
        return 0
    digest = record["digest"]
    if record["state"] not in ("done", "failed"):
        record = _wait_for_job(args.url, digest, args.wait)
        if record is None:
            print(f"timed out waiting for {digest}", file=sys.stderr)
            return 1
    print(json.dumps(record, indent=1, sort_keys=True))
    if record["state"] not in ("done", "failed"):
        print(f"the service will not run {digest} (stopped or draining)",
              file=sys.stderr)
    return 0 if record["state"] == "done" else 1


def _cmd_status(args: argparse.Namespace) -> int:
    print(json.dumps(_get(args.url, "/status"), indent=1, sort_keys=True))
    return 0


def _cmd_drain(args: argparse.Namespace) -> int:
    report = _post(args.url, "/drain", {"timeout_s": args.timeout_s},
                   timeout=args.timeout_s + 30.0)
    print(json.dumps(report, indent=1, sort_keys=True))
    return 0 if report.get("drained") else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="Fault-tolerant simulation job service.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    serve = sub.add_parser(
        "serve", help="run the supervisor, worker fleet, and HTTP API")
    serve.add_argument("--workdir", default="service-work",
                       help="state directory: cache/, ckpt/, logs/ "
                            "(default: ./service-work)")
    serve.add_argument("--workers", type=int, default=2,
                       help="worker processes (default: 2)")
    serve.add_argument("--queue-limit", type=int, default=32,
                       help="max queued+leased jobs before submissions "
                            "are shed with 503 (default: 32)")
    serve.add_argument("--max-retries", type=int, default=3,
                       help="requeues per job before it fails "
                            "(default: 3)")
    serve.add_argument("--heartbeat-s", type=float, default=0.25,
                       help="worker heartbeat interval (default: 0.25)")
    serve.add_argument("--lease-timeout-s", type=float, default=2.0,
                       help="heartbeat silence that expires a lease "
                            "(default: 2.0)")
    serve.add_argument("--progress-window-s", type=float, default=10.0,
                       help="wall seconds without simulated progress "
                            "before a worker counts as hung "
                            "(default: 10)")
    serve.add_argument("--seed", type=int, default=0,
                       help="backoff jitter seed (default: 0)")
    serve.add_argument("--drain-timeout-s", type=float, default=60.0,
                       help="max wait for leased jobs on shutdown "
                            "(default: 60)")
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default: loopback only)")
    serve.add_argument("--port", type=int, default=8124,
                       help="port (default: 8124; 0 = ephemeral)")
    serve.add_argument("--verbose", action="store_true",
                       help="log scheduling decisions (the repro.service "
                            "logger at INFO) and HTTP requests")
    serve.set_defaults(fn=_cmd_serve)

    worker = sub.add_parser("worker")  # hidden: the spawn target
    worker.add_argument("--workdir", required=True)
    worker.add_argument("--heartbeat-s", type=float, default=0.25)
    worker.set_defaults(fn=_cmd_worker)

    def _client_args(sub_parser):
        sub_parser.add_argument("--url", default="http://127.0.0.1:8124",
                                help="service base URL "
                                     "(default: http://127.0.0.1:8124)")

    submit = sub.add_parser("submit", help="submit one job")
    _client_args(submit)
    submit.add_argument("--app", required=True, choices=APPS)
    submit.add_argument("--nodes", type=int, default=8,
                        help="machine size (default: 8)")
    submit.add_argument("--param", action="append", default=[],
                        metavar="NAME=VALUE",
                        help="app parameter, repeatable (e.g. scale=0.05)")
    submit.add_argument("--plan", default=None,
                        help="fault-plan JSON file to run the job under")
    submit.add_argument("--reliable", action="store_true",
                        help="run with the reliable transport")
    submit.add_argument("--wait", type=float, default=0.0, metavar="S",
                        help="wait until done/failed, up to S seconds")
    submit.set_defaults(fn=_cmd_submit)

    status = sub.add_parser("status", help="print service status JSON")
    _client_args(status)
    status.set_defaults(fn=_cmd_status)

    drain = sub.add_parser(
        "drain", help="finish in-flight jobs and stop the workers")
    _client_args(drain)
    drain.add_argument("--timeout-s", type=float, default=60.0,
                       help="max wait for in-flight jobs (default: 60)")
    drain.set_defaults(fn=_cmd_drain)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
