"""What a message costs the cycle machine: a census of bytecodes and calls.

    PYTHONPATH=src python benchmarks/cycle_census.py [--seed 1993]

(``make census``.)  Runs the five ``cycle_apps`` units of the repo
benchmark at full size — ``ping64``, ``barrier64``, ``ring16``,
``lcs8_cycle`` and ``radix64_cycle``, with the same parameters and
per-seed instances as ``benchmarks/e2e``, built here from ``repro.*``
alone (:func:`run_ahead_census.instances`) — and prints for each the
Python bytecodes executed and the Python calls made per fabric message
(a ``Fabric.send``) and per run, split by function.

Each unit runs once uncounted first, so its blocks are generated and
bound as in the benchmark's timed passes; then only ``JMachine.run``
of the second run is counted: ``run`` is wrapped for the duration of
the census and counts under ``sys.settrace`` with ``f_trace_opcodes``
set on every frame (as ``macro_census.py`` does), so the figures repeat
exactly from process to process and do not depend on the host's load,
unlike wall time.  A call is a Python frame entered; functions written
in C are not frames and are not counted.  The source is not
instrumented and simulated results are unaffected.  Gates nothing.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Tuple

from repro.machine.jmachine import JMachine

from run_ahead_census import WORKLOADS, instances

#: Rows printed per unit; the rest are summed into one "other" row.
TOP = 14


@contextmanager
def counting(ops: Counter, calls: Counter, sent: List[int]) -> Iterator[None]:
    """Count, per code object, the bytecodes executed and the frames
    entered inside every ``JMachine.run`` call, and into ``sent[0]`` the
    messages its fabric took."""
    def local(frame, event, arg):
        if event == "opcode":
            ops[frame.f_code] += 1
        return local

    def tracer(frame, event, arg):
        calls[frame.f_code] += 1
        frame.f_trace_opcodes = True
        return local

    original = JMachine.run

    def run(self, *args, **kwargs):
        before = self.fabric.stats.submitted
        sys.settrace(tracer)
        try:
            return original(self, *args, **kwargs)
        finally:
            sys.settrace(None)
            sent[0] += self.fabric.stats.submitted - before

    JMachine.run = run
    try:
        yield
    finally:
        JMachine.run = original


def census(unit: Callable[[], object]) -> Tuple[int, Dict[str, List[int]]]:
    """Run ``unit`` twice, counting the second run; returns its fabric
    messages and ``{function: [bytecodes, calls]}``."""
    unit()
    ops: Counter = Counter()
    calls: Counter = Counter()
    sent = [0]
    with counting(ops, calls, sent):
        unit()
    by_name: Dict[str, List[int]] = {}
    for code in ops.keys() | calls.keys():
        row = by_name.setdefault(code.co_qualname, [0, 0])
        row[0] += ops[code]
        row[1] += calls[code]
    return sent[0], by_name


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1993,
                        help="benchmark seed the instances derive from "
                             "(default: the benchmark's default, 1993)")
    args = parser.parse_args(argv)
    units = dict(instances(args.seed))
    for name in WORKLOADS["cycle_apps"]:
        messages, by_name = census(units[name])
        rows = sorted(by_name.items(), key=lambda item: -item[1][0])
        shown, rest = rows[:TOP], rows[TOP:]
        if rest:
            shown.append(("(other)", [sum(r[1][0] for r in rest),
                                      sum(r[1][1] for r in rest)]))
        total_ops = sum(r[1][0] for r in rows)
        total_calls = sum(r[1][1] for r in rows)
        per = max(messages, 1)
        print(f"{name}: {messages} messages; per run "
              f"{total_ops / 1e6:.2f} M bytecodes, {total_calls / 1e3:.0f} k "
              f"calls; per message {total_ops / per:.0f} bytecodes, "
              f"{total_calls / per:.1f} calls")
        print(f"  {'function':<44}{'bytecodes':>10}{'calls':>8}")
        for function, (count, entered) in shown:
            print(f"  {function[-44:]:<44}{count / per:>10.1f}"
                  f"{entered / per:>8.2f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
