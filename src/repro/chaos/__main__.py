"""Command-line interface: replay and inspect fault plans.

::

    python -m repro.chaos replay plan.json [--app lcs] [--nodes 8]
                                           [--twice] [--json]
    python -m repro.chaos show plan.json
    python -m repro.chaos example [--rate 0.01] [--seed 7] [-o plan.json]

``replay`` runs the saved plan against a reference macro benchmark with
the reliable transport enabled and prints the outcome: completion,
cycles, injected-fault counters, retry counts, and the event-stream
fingerprint.  ``--twice`` runs it twice and fails (exit 1) unless both
runs produce the identical fingerprint — the determinism contract as a
shell command.
"""

from __future__ import annotations

import argparse
import json
import sys

from .harness import APPS, run_app_under_plan
from .plan import FaultPlan, FaultSpec


def _cmd_replay(args: argparse.Namespace) -> int:
    plan = FaultPlan.load(args.plan)
    runs = 2 if args.twice else 1
    results = [
        run_app_under_plan(plan, app=args.app, n_nodes=args.nodes,
                           scale=args.scale)
        for _ in range(runs)
    ]
    first = results[0]
    if args.json:
        print(json.dumps(first.to_dict(), indent=2, sort_keys=True))
    else:
        status = "completed" if first.completed else f"FAILED ({first.error})"
        print(f"plan {plan.name!r} (seed={plan.seed}, "
              f"{len(plan.specs)} specs) x {args.app} on {args.nodes} nodes: "
              f"{status}")
        if first.completed:
            print(f"  cycles: {first.cycles}")
        if first.chaos:
            print("  injected: "
                  + ", ".join(f"{k}={v}" for k, v in first.chaos.items()))
        if first.reliable:
            print("  transport: "
                  + ", ".join(f"{k}={v}" for k, v in first.reliable.items()))
        print(f"  events: {first.n_events}  "
              f"fingerprint: {first.fingerprint[:16]}")
    if args.twice:
        second = results[1]
        if first.fingerprint != second.fingerprint:
            print("DETERMINISM VIOLATION: replays produced different "
                  "event streams", file=sys.stderr)
            print(f"  run 1: {first.fingerprint}", file=sys.stderr)
            print(f"  run 2: {second.fingerprint}", file=sys.stderr)
            return 1
        if not args.json:
            print("  replayed twice: event streams identical")
    return 0 if (first.completed or args.allow_failure) else 1


def _cmd_show(args: argparse.Namespace) -> int:
    plan = FaultPlan.load(args.plan)
    print(json.dumps(plan.to_dict(), indent=2, sort_keys=True))
    return 0


def _cmd_example(args: argparse.Namespace) -> int:
    plan = FaultPlan(
        seed=args.seed,
        name="example",
        specs=(
            FaultSpec(kind="drop", rate=args.rate),
            FaultSpec(kind="delay", rate=args.rate, delay=200),
        ),
    )
    if args.output:
        plan.save(args.output)
        print(f"wrote {args.output}")
    else:
        print(json.dumps(plan.to_dict(), indent=2, sort_keys=True))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.chaos",
        description="Replay and inspect fault-injection plans.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    replay = sub.add_parser("replay", help="run a saved plan")
    replay.add_argument("plan", help="path to a FaultPlan JSON file")
    replay.add_argument("--app", choices=APPS, default="lcs")
    replay.add_argument("--nodes", type=int, default=8)
    replay.add_argument("--scale", type=float, default=None,
                        help="LCS problem scale (fraction of the paper's; "
                             "default: the catalogue's)")
    replay.add_argument("--twice", action="store_true",
                        help="replay twice and verify identical event "
                             "streams")
    replay.add_argument("--json", action="store_true",
                        help="machine-readable output")
    replay.add_argument("--allow-failure", action="store_true",
                        help="exit 0 even if the run did not complete")
    replay.set_defaults(fn=_cmd_replay)

    show = sub.add_parser("show", help="pretty-print a plan")
    show.add_argument("plan")
    show.set_defaults(fn=_cmd_show)

    example = sub.add_parser("example", help="emit a sample plan")
    example.add_argument("--rate", type=float, default=0.01)
    example.add_argument("--seed", type=int, default=7)
    example.add_argument("-o", "--output", default=None)
    example.set_defaults(fn=_cmd_example)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
