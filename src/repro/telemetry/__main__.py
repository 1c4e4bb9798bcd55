"""CLI for inspecting run reports, live monitoring, and trace analysis.

Usage::

    python -m repro.telemetry report run.json            # print a report
    python -m repro.telemetry report a.json b.json       # diff two runs
    python -m repro.telemetry report run.json --json     # machine-readable
    python -m repro.telemetry report run.json --top 5 --suffix cycles
    python -m repro.telemetry report a.json b.json --fabric  # + link diff
    python -m repro.telemetry fabric run.json            # congestion heatmap
    python -m repro.telemetry fabric run.json --json --top 12
    python -m repro.telemetry critical-path events.jsonl # causal analysis
    python -m repro.telemetry critical-path events.jsonl --steps 10
    python -m repro.telemetry serve --workload lcs       # HTTP endpoints
    python -m repro.telemetry watch --workload lcs       # ANSI dashboard
    python -m repro.telemetry watch --url http://host:port   # remote SSE
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from ..core.costs import DEFAULT_COSTS
from .live import HOST
from .report import SimReport
from .trace import CausalGraph


def _fabric_of(report: SimReport):
    """The embedded FabricReport of a run artifact, or ``None``."""
    payload = report.meta.get("fabric")
    if not payload:
        return None
    from ..network.observatory import FabricReport

    return FabricReport.from_dict(payload)


def _cmd_report(args: argparse.Namespace) -> int:
    report = SimReport.load(args.run)
    if args.baseline is not None:
        baseline = SimReport.load(args.baseline)
        a, b = ((baseline, report) if args.swap else (report, baseline))
        fab_a, fab_b = (_fabric_of(a), _fabric_of(b)) if args.fabric \
            else (None, None)
        if args.json:
            payload = {
                "kind": "diff",
                "a": {"path": args.run if not args.swap else args.baseline,
                      "meta": a.meta},
                "b": {"path": args.baseline if not args.swap else args.run,
                      "meta": b.meta},
                "diff": {name: list(pair)
                         for name, pair in a.diff(b).items()},
            }
            if args.fabric:
                payload["fabric_diff"] = (
                    {name: list(pair)
                     for name, pair in fab_a.diff(fab_b).items()}
                    if fab_a is not None and fab_b is not None else None)
            print(json.dumps(payload, indent=1, sort_keys=True))
            return 0
        print(f"# diff: a={args.run}  b={args.baseline}")
        print(a.format_diff(b))
        if args.fabric:
            print()
            if fab_a is None or fab_b is None:
                print("# fabric: not embedded in both reports "
                      "(run with fabric_probe=True)")
            else:
                print("# fabric diff (per-link phits, a vs b)")
                print(fab_a.format_diff(fab_b))
        return 0
    if args.json:
        payload = report.to_dict()
        payload["kind"] = "report"
        if args.top:
            payload["top"] = report.top(
                _dotted(args.prefix, True), _dotted(args.suffix, False),
                args.top)
        print(json.dumps(payload, indent=1, sort_keys=True))
        return 0
    if args.top:
        prefix = _dotted(args.prefix, True)
        suffix = _dotted(args.suffix, False)
        print(f"# top {args.top} by {prefix}*{suffix}")
        for name, value in report.top(prefix, suffix, args.top):
            print(f"{value:>14}  {name}")
        return 0
    print(report.format(limit=args.limit))
    if args.fabric:
        fab = _fabric_of(report)
        print()
        if fab is None:
            print("# fabric: not embedded in this report "
                  "(run with fabric_probe=True)")
        else:
            print(fab.format())
    return 0


def _cmd_fabric(args: argparse.Namespace) -> int:
    from ..network.observatory import FabricReport

    if args.calibrate:
        from ..jsim.calibrate import calibrate

        result = calibrate()
        if args.json:
            print(json.dumps({
                "kind": "calibration",
                "scale": result.scale,
                "default_scale": result.default_scale,
                "points": [vars(p) for p in result.points],
            }, indent=1, sort_keys=True))
        else:
            print(result.format())
        return 0
    if args.run is None:
        print("fabric: a run/report JSON is required unless --calibrate",
              file=sys.stderr)
        return 2
    with open(args.run, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if isinstance(data, dict) and "links" in data:
        fab = FabricReport.from_dict(data)  # a saved FabricReport
    else:
        fab = _fabric_of(SimReport(data.get("metrics", {}),
                                   data.get("meta", {})))
    if fab is None:
        print(f"{args.run}: no fabric payload — pass a FabricReport JSON "
              "or a SimReport from a fabric_probe=True run",
              file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(fab.to_dict(), indent=1, sort_keys=True))
        return 0
    if args.z is not None:
        print(fab.heatmap(dim=args.dim, z=args.z, direction=args.dir))
        return 0
    print(fab.format(top=args.top, dim=args.dim, direction=args.dir))
    return 0


def _dotted(part: str, is_prefix: bool) -> str:
    if is_prefix:
        return part if part.endswith(".") else part + "."
    return part if part.startswith(".") else "." + part


def _cmd_serve(args: argparse.Namespace) -> int:
    import signal
    import threading

    from .demo import start_demo
    from .serve import LiveServer

    run = start_demo(workload=args.workload, n_nodes=args.nodes,
                     scale=args.scale, every_cycles=args.every_cycles,
                     every_wall_s=None if args.every_cycles
                     else args.interval)
    server = LiveServer(run.sampler, host=args.host, port=args.port,
                        verbose=args.verbose)
    # Graceful shutdown on SIGTERM as well as SIGINT: the server used to
    # die in its daemon thread on SIGTERM, never closing SSE streams or
    # releasing the port.  Both signals now set one event; the single
    # exit path below closes streams (server.stop flips ``stopping``,
    # which ends every /stream loop) and releases the socket.  Handlers
    # go in before the URL is announced: a client that signals the
    # moment it sees the URL must never hit the default handlers.
    stop = threading.Event()
    previous = {}
    for signum in (signal.SIGTERM, signal.SIGINT):
        previous[signum] = signal.signal(
            signum, lambda _signum, _frame: stop.set())
    url = server.start_background()
    print(f"serving {args.workload} on {url} "
          f"(/metrics /snapshot.json /stream); Ctrl-C to stop",
          flush=True)
    try:
        while not run.done() and not stop.wait(0.1):
            pass  # a signal mid-workload still exits promptly
        if run.done() and not stop.is_set():
            run.join()  # surfaces a workload error, if any
            print(f"workload finished after {run.sampler.samples} "
                  f"samples; still serving final frames", flush=True)
            stop.wait(args.linger_s)  # None = until a signal arrives
    except KeyboardInterrupt:
        pass
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)
        server.stop()
        print("serve: shut down cleanly", flush=True)
    return 0


def _cmd_watch(args: argparse.Namespace) -> int:
    from .watch import watch_sampler, watch_sse

    if args.url:
        shown = watch_sse(args.url, plain=args.plain,
                          max_frames=args.frames)
        print(f"\nstream ended after {shown} frames")
        return 0
    from .demo import start_demo

    run = start_demo(workload=args.workload, n_nodes=args.nodes,
                     scale=args.scale, every_cycles=args.every_cycles,
                     every_wall_s=None if args.every_cycles
                     else args.interval)
    try:
        shown = watch_sampler(run.sampler, done=run.done,
                              plain=args.plain, max_frames=args.frames)
    except KeyboardInterrupt:
        return 0
    run.join()
    print(f"\n{args.workload} finished; {shown} frames rendered, "
          f"{run.sampler.samples} samples taken")
    return 0


def _cmd_critical_path(args: argparse.Namespace) -> int:
    graph = CausalGraph.from_jsonl(args.events)
    print(graph.summary())
    if not graph.spans:
        print("no traced spans in this stream — was the run made with "
              "Telemetry(trace=True)?")
        return 1
    path = graph.critical_path(dispatch_cycles=args.dispatch_cycles)
    print(path.format(limit=args.steps))
    return 0 if path.connected and path.acyclic else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.telemetry",
        description="Inspect and diff SimReport run artifacts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    report = sub.add_parser("report", help="print or diff run reports")
    report.add_argument("run", help="a SimReport JSON file")
    report.add_argument("baseline", nargs="?", default=None,
                        help="second report to diff against")
    report.add_argument("--limit", type=int, default=None,
                        help="show at most N metrics")
    report.add_argument("--top", type=int, default=0,
                        help="rank the N largest metrics matching "
                             "--prefix/--suffix instead of listing all")
    report.add_argument("--prefix", default="handler.",
                        help="name prefix for --top (default: handler.)")
    report.add_argument("--suffix", default=".cycles",
                        help="name suffix for --top (default: .cycles)")
    report.add_argument("--swap", action="store_true",
                        help="diff with the baseline as the left column")
    report.add_argument("--json", action="store_true",
                        help="machine-readable JSON output (report or "
                             "diff) for service-level tooling")
    report.add_argument("--fabric", action="store_true",
                        help="also show the embedded fabric-observatory "
                             "section (per-link diff in diff mode)")
    report.set_defaults(fn=_cmd_report)

    fabric = sub.add_parser(
        "fabric",
        help="congestion heatmap and hotspot table from a run artifact "
             "(a SimReport with an embedded fabric section, or a saved "
             "FabricReport JSON)",
    )
    fabric.add_argument("run", nargs="?", default=None,
                        help="run/report JSON file (omit with --calibrate)")
    fabric.add_argument("--calibrate", action="store_true",
                        help="run the flit-level load sweep and fit the "
                             "macro LatencyModel's contention scale "
                             "(prints model-vs-measured residuals)")
    fabric.add_argument("--top", type=int, default=8,
                        help="hot links to list (default: 8)")
    fabric.add_argument("--dim", type=int, default=0, choices=(0, 1, 2),
                        help="heatmap dimension: 0=x 1=y 2=z (default: 0)")
    fabric.add_argument("--dir", type=int, default=1, choices=(-1, 1),
                        help="heatmap link direction (default: +1)")
    fabric.add_argument("--z", type=int, default=None,
                        help="print only the Z=<n> slice's heatmap grid")
    fabric.add_argument("--json", action="store_true",
                        help="dump the FabricReport as JSON")
    fabric.set_defaults(fn=_cmd_fabric)

    from .demo import WORKLOADS

    def _live_args(sub_parser):
        sub_parser.add_argument("--workload", choices=WORKLOADS,
                                default="lcs",
                                help="demo workload to run "
                                     "(default: %(default)s)")
        sub_parser.add_argument("--nodes", type=int, default=64,
                                help="machine size (default: %(default)s)")
        sub_parser.add_argument("--scale", type=float, default=0.25,
                                help="problem-size factor; 1.0 = the "
                                     "paper's size (default: %(default)s)")
        sub_parser.add_argument("--interval", type=float, default=0.5,
                                help="wall seconds between samples "
                                     "(default: %(default)s)")
        sub_parser.add_argument("--every-cycles", type=int, default=None,
                                help="sample every N simulated cycles "
                                     "instead of by wall clock")

    serve = sub.add_parser(
        "serve",
        help="run a sampled demo workload and serve /metrics, "
             "/snapshot.json, and /stream over HTTP",
    )
    _live_args(serve)
    serve.add_argument("--host", default=HOST,
                       help="bind address (default: loopback only)")
    serve.add_argument("--port", type=int, default=8123,
                       help="port (default: %(default)s; 0 = ephemeral)")
    serve.add_argument("--linger-s", type=float, default=None,
                       help="after the workload ends, keep serving this "
                            "long then exit (default: until Ctrl-C)")
    serve.add_argument("--verbose", action="store_true",
                       help="log HTTP requests")
    serve.set_defaults(fn=_cmd_serve)

    watch = sub.add_parser(
        "watch",
        help="ANSI terminal dashboard over a demo workload (in-process) "
             "or a remote /stream endpoint (--url)",
    )
    _live_args(watch)
    watch.add_argument("--url", default=None,
                       help="follow a remote serve endpoint's SSE stream "
                            "instead of running a demo workload")
    watch.add_argument("--plain", action="store_true",
                       help="no ANSI clearing: print frames sequentially "
                            "(headless/CI mode)")
    watch.add_argument("--frames", type=int, default=None,
                       help="stop after N frames")
    watch.set_defaults(fn=_cmd_watch)

    critical = sub.add_parser(
        "critical-path",
        help="rebuild the causal graph from a traced JSONL event stream "
             "and report its critical path",
    )
    critical.add_argument("events", help="a write_jsonl event file from a "
                                         "Telemetry(trace=True) run")
    critical.add_argument("--steps", type=int, default=0,
                          help="also show the N longest path steps")
    critical.add_argument("--dispatch-cycles", type=int,
                          default=DEFAULT_COSTS.dispatch,
                          help="hardware dispatch cost assumed for "
                               "cycle-level spans (default: %(default)s)")
    critical.set_defaults(fn=_cmd_critical_path)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
