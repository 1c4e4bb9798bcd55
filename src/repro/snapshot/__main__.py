"""CLI for checkpoint files: ``python -m repro.snapshot <command>``.

Commands:

* ``info <path>`` — print a snapshot's header without unpickling it;
* ``save`` — run a catalogue entry (:mod:`repro.apps.scenario`) with
  periodic checkpointing; the header records ``scenario``, ``n_nodes``
  and ``params`` so ``resume`` can rebuild a macro-level run;
* ``resume <path>`` — restore and run to completion, printing the final
  cycle and the sha256 telemetry event-stream digest (compare it with
  an uninterrupted run's to verify bit-identity);
* ``diff <a> <b>`` — compare two cycle-level snapshots node by node;
* ``bisect <path>`` — replay to a deadlock and binary-search for the
  first stalled cycle (time-travel debugging; see docs/ROBUSTNESS.md).
"""

from __future__ import annotations

import argparse
import json
import sys

from ..apps.scenario import CATALOGUE, run_scenario, validate
from ..core.errors import SimulationError
from ..telemetry import Telemetry
from . import (CheckpointPolicy, bisect_deadlock, load_machine, read_header)

#: The instances ``save`` runs where the catalogue default is not the
#: one wanted: LCS at the paper's 1024 x 4096.
_CLI_PARAMS = {"lcs": {"scale": 1.0}}


def _digest(telemetry) -> str:
    if telemetry is None or telemetry.events is None:
        return "(no telemetry)"
    return telemetry.events.fingerprint()


def _cmd_info(args) -> int:
    header = read_header(args.path)
    print(json.dumps(header, indent=2, sort_keys=True))
    return 0


def _cmd_save(args) -> int:
    params = validate(args.scenario, _CLI_PARAMS.get(args.scenario))
    policy = CheckpointPolicy(
        args.out, every=args.every,
        meta={"scenario": args.scenario, "params": params})
    run = run_scenario(args.scenario, args.nodes, params,
                       telemetry=Telemetry(), checkpoint=policy)
    print(f"{args.scenario} ran to t={run.cycles} (output {run.output}); "
          f"{policy.saves} checkpoint(s), last: {policy.last_path}")
    print(f"final digest: {_digest(run.target.telemetry)}")
    return 0


def _cmd_resume(args) -> int:
    header = read_header(args.path)
    meta = header.get("meta") or {}
    if header["kind"] == "cycle":
        machine = load_machine(args.path)
        limit = args.limit if args.limit is not None else meta.get(
            "run_limit")
        if limit is not None:
            machine.run(max_cycles=limit - machine.now)
        else:
            machine.run_until_quiescent()
        print(f"resumed t={meta.get('now')} -> t={machine.now}")
        print(f"final digest: {_digest(machine.telemetry)}")
        return 0
    # Macro snapshots restore *into* a prepared app (handlers are
    # closures; see docs/SNAPSHOT.md), so resume rebuilds the run the
    # header names.
    scenario = meta.get("scenario")
    if scenario not in CATALOGUE:
        raise SimulationError(
            f"cannot resume a macro snapshot for scenario {scenario!r}; "
            "re-run your application with restore_from=, or use "
            f"`save --scenario` checkpoints ({', '.join(CATALOGUE)})")
    if "params" not in meta:
        raise SimulationError(f"macro snapshot header names {scenario!r} "
                              "but no 'params': capture with `save`")
    run = run_scenario(scenario, meta["n_nodes"], meta["params"],
                       telemetry=Telemetry(), restore_from=args.path)
    print(f"resumed t={meta.get('now')} -> t={run.cycles} "
          f"(output {run.output})")
    print(f"final digest: {_digest(run.target.telemetry)}")
    return 0


def _cmd_diff(args) -> int:
    from ..chaos.watchdog import machine_snapshots

    headers = []
    snaps = []
    for path in (args.a, args.b):
        header = read_header(path)
        if header["kind"] != "cycle":
            raise SimulationError(
                f"{path} is a {header['kind']!r} snapshot; diff works on "
                "cycle-level snapshots")
        headers.append(header)
        machine = load_machine(path)
        snaps.append({snap.node_id: snap
                      for snap in machine_snapshots(machine,
                                                    only_busy=False)})
    a_meta, b_meta = (h.get("meta") or {} for h in headers)
    print(f"a: {args.a} @ t={a_meta.get('now')}")
    print(f"b: {args.b} @ t={b_meta.get('now')}")
    same = True
    for node_id in sorted(snaps[0]):
        delta = snaps[0][node_id].diff(snaps[1][node_id])
        if delta:
            same = False
            changes = ", ".join(f"{name}: {a} -> {b}"
                                for name, (a, b) in sorted(delta.items()))
            print(f"node {node_id}: {changes}")
    if same:
        print("no per-node differences")
    return 0 if same else 1


def _cmd_bisect(args) -> int:
    result = bisect_deadlock(args.path, window=args.window)
    print(result.format())
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.snapshot",
        description=__doc__.split("\n", 1)[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("info", help="print a snapshot's header")
    p.add_argument("path")
    p.set_defaults(fn=_cmd_info)

    p = sub.add_parser("save",
                       help="run a built-in scenario with checkpointing")
    p.add_argument("--scenario", choices=tuple(CATALOGUE), default="ping")
    p.add_argument("--out", default="snapshot_{cycle}.ckpt",
                   help="checkpoint path; {cycle} expands per save")
    p.add_argument("--every", type=int, default=10_000,
                   help="checkpoint interval in simulated cycles")
    p.add_argument("--nodes", type=int, default=16)
    p.set_defaults(fn=_cmd_save)

    p = sub.add_parser("resume", help="restore and run to completion")
    p.add_argument("path")
    p.add_argument("--limit", type=int, default=None,
                   help="cycle limit override (default: the saved one)")
    p.set_defaults(fn=_cmd_resume)

    p = sub.add_parser("diff", help="compare two cycle-level snapshots")
    p.add_argument("a")
    p.add_argument("b")
    p.set_defaults(fn=_cmd_diff)

    p = sub.add_parser("bisect",
                       help="find a deadlock's first stalled cycle")
    p.add_argument("path")
    p.add_argument("--window", type=int, default=50_000,
                   help="watchdog no-progress window for detection")
    p.set_defaults(fn=_cmd_bisect)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (SimulationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
