"""Run an MDP assembly program on a simulated J-Machine.

Usage::

    python -m repro.machine PROGRAM.s [options]

Options::

    --nodes N          machine size (default 8)
    --start LABEL      start LABEL as node 0's background thread
                       (default: label 'main' if present, else first label)
    --inject NODE:LABEL[:ARG,...]
                       send a message invoking LABEL on NODE with integer
                       arguments (repeatable)
    --max-cycles N     simulation budget (default 1,000,000)
    --trace NODE       print an instruction trace of one node
    --dump BASE:COUNT  after the run, print COUNT words of node 0's
                       memory starting at BASE

The run ends at quiescence, HALT, or the cycle budget; machine-wide
counters are always printed.
"""

from __future__ import annotations

import argparse
import sys
from typing import List

from ..asm.assembler import assemble
from ..core.errors import ConfigurationError
from ..core.trace import Tracer
from ..core.word import Word
from .config import MachineConfig
from .jmachine import JMachine


def _parse_inject(spec: str):
    parts = spec.split(":")
    if len(parts) < 2:
        raise argparse.ArgumentTypeError(
            "--inject needs NODE:LABEL[:ARG,...]"
        )
    node = int(parts[0])
    label = parts[1]
    args = [int(v) for v in parts[2].split(",")] if len(parts) > 2 else []
    return node, label, args


def _parse_dump(spec: str):
    base, sep, count = spec.partition(":")
    if not sep:
        raise argparse.ArgumentTypeError("--dump needs BASE:COUNT")
    return int(base), int(count)


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.machine",
        description="Run MDP assembly on a simulated J-Machine.",
    )
    parser.add_argument("program", help="assembly source file")
    parser.add_argument("--nodes", type=int, default=8)
    parser.add_argument("--start", default=None, metavar="LABEL")
    parser.add_argument("--inject", action="append", type=_parse_inject,
                        default=[], metavar="NODE:LABEL[:ARGS]")
    parser.add_argument("--max-cycles", type=int, default=1_000_000)
    parser.add_argument("--trace", type=int, default=None, metavar="NODE")
    parser.add_argument("--dump", type=_parse_dump, default=None,
                        metavar="BASE:COUNT")
    options = parser.parse_args(argv)
    try:
        config = MachineConfig.for_nodes(options.nodes)
    except ConfigurationError as exc:
        parser.error(str(exc))
    nodes = [node for node, _label, _args in options.inject]
    if options.trace is not None:
        nodes.append(options.trace)
    for node in nodes:
        if not 0 <= node < config.n_nodes:
            parser.error(f"node {node} is not on the {config.n_nodes}-node "
                         f"machine")

    with open(options.program) as handle:
        program = assemble(handle.read())

    machine = JMachine(config)
    machine.load(program)

    # Convenience runtime setup: every node gets a 32-word scratch
    # segment just after the program, reachable as [A0+k] from any
    # priority level.
    from ..core.registers import Priority

    scratch = program.end + 16
    for node in machine.nodes:
        for priority in Priority:
            node.proc.registers[priority].write(
                "A0", Word.segment(scratch, 32)
            )
    print(f"; scratch segment: [A0] -> words {scratch}..{scratch + 31}")

    tracer = None
    if options.trace is not None:
        tracer = Tracer.attach(machine.node(options.trace).proc)

    started = False
    if options.start or (not options.inject):
        label = options.start
        if label is None:
            label = "main" if "main" in program.labels else \
                sorted(program.labels, key=program.labels.get)[0]
        machine.start_background(0, program.entry(label))
        print(f"; background thread '{label}' started on node 0")
        started = True
    for node, label, args in options.inject:
        machine.inject(node, program.entry(label),
                       [Word.from_int(v) for v in args])
        print(f"; injected {label}({args}) to node {node}")

    end = machine.run(max_cycles=options.max_cycles)
    print(f"; finished at cycle {end} "
          f"({end * 80 / 1000:.1f} us at 12.5 MHz)")
    print(f"; instructions: {machine.total_instructions()}, "
          f"busy cycles: {machine.total_busy_cycles()}")

    if tracer is not None:
        print(tracer.format())
    if options.dump:
        base, count = options.dump
        memory = machine.node(0).proc.memory
        for offset in range(count):
            word = memory.peek(base + offset)
            print(f"  [{base + offset}] {word!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
