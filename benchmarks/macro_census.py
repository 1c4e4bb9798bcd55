"""What a message costs the macro engine: a census of bytecodes and calls.

    PYTHONPATH=src python benchmarks/macro_census.py [--seed 1993]

(``make census``.)  Runs three ``macro_apps`` units of the repo
benchmark at full size — the 16-node relay chain, ``radix64`` and
``radix512``, with the same parameters and per-seed instances as
``benchmarks/e2e`` but built here from ``repro.*`` alone — and prints
for each the Python bytecodes executed and the Python calls made per
message sent, split by function.

Only ``MacroSimulator.run`` is counted (the app's set-up and its
answer check are not): ``run`` is wrapped for the duration of the
census and counts under ``sys.settrace`` with ``f_trace_opcodes`` set on
every frame, so the figures repeat exactly from process to process and
do not depend on the host's load, unlike wall time.  A call is a Python
frame entered (a generator resumed counts again); functions written in
C are not frames and are not counted.  The source is not instrumented
and simulated results are unaffected.  Gates nothing.
"""

from __future__ import annotations

import argparse
import random
import sys
from collections import Counter
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Tuple

from repro.apps import radix_sort
from repro.jsim.sim import MacroSimulator

#: Rows printed per unit; the rest are summed into one "other" row.
TOP = 12


def _relay(hops: int) -> MacroSimulator:
    """``relay16``: one message passed ``hops`` times round 16 nodes;
    each node counts what it saw."""
    sim = MacroSimulator(16)

    def relay(ctx, remaining):
        ctx.charge(instructions=10)
        ctx.state["seen"] = ctx.state.get("seen", 0) + 1
        if remaining:
            ctx.send((ctx.node_id + 1) % 16, "relay", remaining - 1)

    sim.register("relay", relay)
    sim.inject(0, "relay", hops)
    sim.run()
    return sim


def instances(seed: int) -> List[Tuple[str, Callable[[], MacroSimulator]]]:
    """The units at the benchmark's full size for ``seed``, each a call
    that runs it and returns its simulator."""
    rng = random.Random(f"{seed}/macro_apps")
    rng.getrandbits(31)  # the LCS instance's seed
    radix64 = radix_sort.RadixParams(n_keys=64 * 32, seed=rng.getrandbits(31))
    radix512 = radix_sort.RadixParams(n_keys=512 * 6, seed=rng.getrandbits(31))
    return [
        ("relay16", lambda: _relay(10_000)),
        ("radix64", lambda: radix_sort.run_parallel(64, radix64).sim),
        ("radix512", lambda: radix_sort.run_parallel(512, radix512).sim),
    ]


@contextmanager
def counting(ops: Counter, calls: Counter) -> Iterator[None]:
    """Count, per code object, the bytecodes executed and the frames
    entered inside every ``MacroSimulator.run`` call."""
    def local(frame, event, arg):
        if event == "opcode":
            ops[frame.f_code] += 1
        return local

    def tracer(frame, event, arg):
        calls[frame.f_code] += 1
        frame.f_trace_opcodes = True
        return local

    original = MacroSimulator.run

    def run(self, *args, **kwargs):
        sys.settrace(tracer)
        try:
            return original(self, *args, **kwargs)
        finally:
            sys.settrace(None)

    MacroSimulator.run = run
    try:
        yield
    finally:
        MacroSimulator.run = original


def census(build: Callable[[], MacroSimulator]) -> Tuple[int, Dict]:
    """Run one unit; returns its messages and ``{function: (bytecodes,
    calls)}`` over the counted runs."""
    ops: Counter = Counter()
    calls: Counter = Counter()
    with counting(ops, calls):
        sim = build()
    by_name: Dict[str, List[int]] = {}
    for code in ops.keys() | calls.keys():
        row = by_name.setdefault(code.co_qualname, [0, 0])
        row[0] += ops[code]
        row[1] += calls[code]
    return sim.messages_sent, by_name


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1993,
                        help="benchmark seed the instances derive from "
                             "(default: the benchmark's default, 1993)")
    args = parser.parse_args(argv)
    for name, build in instances(args.seed):
        messages, by_name = census(build)
        rows = sorted(by_name.items(), key=lambda item: -item[1][0])
        shown, rest = rows[:TOP], rows[TOP:]
        if rest:
            shown.append(("(other)", [sum(r[1][0] for r in rest),
                                      sum(r[1][1] for r in rest)]))
        total_ops = sum(r[1][0] for r in rows)
        total_calls = sum(r[1][1] for r in rows)
        print(f"{name}: {messages} messages, per message "
              f"{total_ops / messages:.0f} bytecodes, "
              f"{total_calls / messages:.2f} calls")
        print(f"  {'function':<44}{'bytecodes':>10}{'calls':>8}")
        for function, (count, entered) in shown:
            print(f"  {function[-44:]:<44}{count / messages:>10.1f}"
                  f"{entered / messages:>8.2f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
