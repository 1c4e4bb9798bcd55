"""What bounds compiled-block run-ahead: a census of ``Mdp.tick`` calls.

    PYTHONPATH=src python benchmarks/run_ahead_census.py [--seed 1993]

(``make census``.)  Builds every machine instance of the repo
benchmark's ``cycle_apps`` and ``cycle_compute`` workloads at full size
(the same parameters and per-seed instances as ``benchmarks/e2e``, but
constructed here from ``repro.*`` alone) and runs each once, printing
per instance:

* ``ticks`` — ``Mdp.tick`` calls (one block chain each on the fast path);
* ``passes`` — run-loop passes (``JMachine._commit_deliveries`` calls);
* ``binds`` — blocks bound to a node (``machine.codegen.blocks_bound``);
* ``at_deadline`` / ``at_op`` — ticks whose returned next-ready cycle
  reached the deadline they were given, versus ticks that ended on an
  op of their own (a send, suspend, fault, watched store or park).

Nothing in the hot loop is instrumented: ``Mdp.tick`` and
``_commit_deliveries`` are wrapped for the duration of the census and
restored afterwards.  Simulated results are unaffected.
"""

from __future__ import annotations

import argparse
import random
from typing import Callable, Dict, List, Tuple

from repro.apps.lcs import LcsParams
from repro.apps.lcs_cycle import run_cycle_lcs
from repro.apps.radix_cycle import run_cycle_radix
from repro.apps.radix_sort import RadixParams, generate_keys
from repro.asm.assembler import assemble
from repro.core import fastpath
from repro.core.processor import Mdp
from repro.core.registers import Priority
from repro.core.word import Word
from repro.machine.config import MachineConfig
from repro.machine.jmachine import JMachine
from repro.runtime.barrier import run_barrier_experiment
from repro.runtime.rpc import run_ping

#: Compute grid (``cycle_compute``): count down, send one message to the
#: +1 neighbour.  A0+0 = iterations, A0+1 = peer, A0+2 = done flag.
WORK = """
work:
    MOVE  [A0+0], R0
loop:
    ADD   R0, #-1, R0
    GT    R0, #0, R1
    BT    R1, loop
    SEND  [A0+1]
    SEND  #IP:fin
    SENDE [A0+1]
    SUSPEND
fin:
    MOVE  #1, [A0+2]
    SUSPEND
"""

#: Token ring (``cycle_apps``): decrement the hop count, forward to +1.
RING = """
relay:
    MOVE  [A3+1], R1
    BF    R1, done
    SUB   R1, #1, R1
    MOVEID R2
    ADD   R2, #1, R2
    MOD   R2, #{nodes}, R2
    SEND  R2
    SEND2E #IP:relay, R1
done:
    SUSPEND
"""


def _grid(n_nodes: int, iters: int) -> None:
    machine = JMachine(MachineConfig.for_nodes(n_nodes))
    program = assemble(WORK)
    machine.load(program)
    base = program.end + 4
    for i, node in enumerate(machine.nodes):
        node.proc.memory.poke(base, Word.from_int(iters))
        node.proc.memory.poke(base + 1, Word.from_int((i + 1) % n_nodes))
        node.proc.registers[Priority.P0].write("A0", Word.segment(base, 4))
    for i in range(n_nodes):
        machine.inject(i, program.entry("work"), source=i)
    machine.run_until_quiescent(max_cycles=100_000_000)
    done = sum(node.proc.memory.peek(base + 2).value for node in machine.nodes)
    assert done == n_nodes, f"grid: {done}/{n_nodes} nodes done"


def _ring(dims: Tuple[int, int, int], tokens: int, hops: int) -> None:
    n_nodes = dims[0] * dims[1] * dims[2]
    machine = JMachine(MachineConfig(dims=dims))
    program = assemble(RING.format(nodes=n_nodes))
    machine.load(program)
    for token in range(tokens):
        machine.inject(token % n_nodes, program.entry("relay"),
                       [Word.from_int(hops)])
    machine.run_until_quiescent(max_cycles=100_000_000)
    assert machine.total_instructions() == tokens * (hops * 9 + 3)


def instances(seed: int) -> List[Tuple[str, Callable[[], object]]]:
    """(name, run) for every machine unit of ``cycle_apps`` and
    ``cycle_compute`` at full size, as ``benchmarks/e2e/wl_cycle.py``
    derives them from ``seed``."""
    rng = random.Random(f"{seed}/cycle_apps")
    lcs = LcsParams(a_len=32, b_len=64, seed=rng.getrandbits(31))
    radix_keys = generate_keys(RadixParams(n_keys=128, key_bits=4,
                                           digit_bits=2,
                                           seed=rng.getrandbits(31)))

    def machine64():
        return JMachine(MachineConfig(dims=(4, 4, 4)))

    return [
        ("ping64", lambda: run_ping(machine64(), 0, 63, iterations=400)),
        ("barrier64", lambda: run_barrier_experiment(machine64(), barriers=3)),
        ("ring16", lambda: _ring((4, 4, 1), 8, 250)),
        ("lcs8_cycle", lambda: run_cycle_lcs(8, lcs)),
        ("radix64_cycle", lambda: run_cycle_radix(64, radix_keys, n_digits=2)),
        ("grid64", lambda: _grid(64, 1_400)),
        ("grid512", lambda: _grid(512, 150)),
    ]


def census(run: Callable[[], object]) -> Dict[str, int]:
    """Run ``run()`` once with ``Mdp.tick`` and the run-loop pass
    counted; return the counts."""
    counts = dict.fromkeys(("ticks", "passes", "binds", "at_deadline",
                            "at_op"), 0)
    tick = Mdp.tick
    commit = JMachine._commit_deliveries

    def counted_tick(proc, now, deadline=None, *rest):
        nxt = tick(proc, now, deadline, *rest)
        counts["ticks"] += 1
        if deadline is not None and nxt is not None and nxt >= deadline:
            counts["at_deadline"] += 1
        else:
            counts["at_op"] += 1
        return nxt

    def counted_commit(machine):
        counts["passes"] += 1
        commit(machine)

    bound = fastpath.STATS["blocks_bound"]
    Mdp.tick, JMachine._commit_deliveries = counted_tick, counted_commit
    try:
        run()
    finally:
        Mdp.tick, JMachine._commit_deliveries = tick, commit
    counts["binds"] = fastpath.STATS["blocks_bound"] - bound
    return counts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1993,
                        help="benchmark seed the instances derive from "
                             "(default: the benchmark's default, 1993)")
    args = parser.parse_args(argv)
    columns = ("ticks", "passes", "binds", "at_deadline", "at_op")
    print(f"{'unit':<14}" + "".join(f"{name:>12}" for name in columns))
    for name, run in instances(args.seed):
        counts = census(run)
        print(f"{name:<14}" + "".join(f"{counts[c]:>12}" for c in columns))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
