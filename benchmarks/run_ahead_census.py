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
  op of their own (a send, suspend, fault, watched store or park);
* ``instrs`` — simulated instructions retired;
* ``static%`` — the share of them retired in the steady-state body of
  a loop block whose costs are all static (``repro.core.codegen``: one
  deadline test per iteration, registers held raw across iterations);
* ``metered%`` — the share retired in a loop block with a memory
  operand or call-out, which has no steady-state body: every iteration
  stores its registers and reruns the one per-instruction body;
* ``jumped%`` — the share retired inside a steady-state body's
  closed-form jump (an affine counted loop's iterations applied in
  O(1), ``codegen._Generator.jump``); part of ``static%``.

Then the same instruction shares per benchmark workload.

The source is not instrumented: ``Mdp.tick`` and
``_commit_deliveries`` are wrapped for the duration of the census and
restored afterwards, and the blocks are generated afresh with one
counting statement per instruction in each steady-state body and each
metered loop, and one per jump, then dropped.  Simulated results are
unaffected.

The last table gives the MDP layer's own rate: simulated instructions
per host second for the benchmark's LOOP program (one processor,
28 000 iterations of ``ADD``/``SUB``/``BT``) and its WORK grid (64
nodes, 1 400 iterations each), compiled and with ``fast_path=False``.
Both loops are jumped in O(1) (``jumped%``), so a compiled rate is the
jump's, not per-instruction execution.
Only the run is timed, not assembling or building the machine (as the
repo benchmark times ``mdp_loop`` for ``core.instr_per_host_s``); each
cell is the best of :data:`REPEAT` runs.
"""

from __future__ import annotations

import argparse
import random
import time
from contextlib import contextmanager
from typing import Callable, Dict, List, Tuple

from repro.apps.lcs import LcsParams
from repro.apps.lcs_cycle import run_cycle_lcs
from repro.apps.radix_cycle import run_cycle_radix
from repro.apps.radix_sort import RadixParams, generate_keys
from repro.asm.assembler import assemble
from repro.core import codegen, fastpath
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

#: One processor counting down (``cycle_compute``'s ``mdp_loop``).
LOOP = """
start:
    MOVE #{iters}, R1
loop:
    ADD R0, R1, R0
    SUB R1, #1, R1
    BT R1, loop
    HALT
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


#: Runs per instruction-rate cell; the fastest counts.
REPEAT = 3


def _grid(n_nodes: int, iters: int, fast_path: bool = True
          ) -> Callable[[], int]:
    """Build the WORK grid; return the call that runs it and returns the
    instructions it executed."""
    machine = JMachine(MachineConfig.for_nodes(n_nodes, fast_path=fast_path))
    program = assemble(WORK)
    machine.load(program)
    base = program.end + 4
    for i, node in enumerate(machine.nodes):
        node.proc.memory.poke(base, Word.from_int(iters))
        node.proc.memory.poke(base + 1, Word.from_int((i + 1) % n_nodes))
        node.proc.registers[Priority.P0].write("A0", Word.segment(base, 4))
    for i in range(n_nodes):
        machine.inject(i, program.entry("work"), source=i)

    def run() -> int:
        machine.run_until_quiescent(max_cycles=100_000_000)
        done = sum(node.proc.memory.peek(base + 2).value
                   for node in machine.nodes)
        assert done == n_nodes, f"grid: {done}/{n_nodes} nodes done"
        return machine.total_instructions()

    return run


def _loop(iters: int, fast_path: bool = True) -> Callable[[], int]:
    """Load LOOP on one processor; return the call that runs it and
    returns the instructions it executed."""
    proc = Mdp(node_id=0, fast_path=fast_path)
    program = assemble(LOOP.format(iters=iters))
    program.load(proc)
    proc.set_background(program.entry("start"))

    def run() -> int:
        now = 0
        while not proc.halted:
            now = proc.tick(now)
        return proc.counters.instructions

    return run


def rate(build: Callable[[bool], Callable[[], int]], fast_path: bool) -> float:
    """Simulated instructions per host second of ``build(fast_path)()``,
    timing the run alone; best of :data:`REPEAT`."""
    best = float("inf")
    for _ in range(REPEAT):
        run = build(fast_path)
        start = time.perf_counter()
        instructions = run()
        best = min(best, time.perf_counter() - start)
    return instructions / best


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


#: The benchmark workload each census instance belongs to.
WORKLOADS = {"cycle_apps": ("ping64", "barrier64", "ring16", "lcs8_cycle",
                            "radix64_cycle"),
             "cycle_compute": ("mdp_loop", "grid64", "grid512")}


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
        ("mdp_loop", lambda: _loop(28_000)()),
        ("grid64", lambda: _grid(64, 1_400)()),
        ("grid512", lambda: _grid(512, 150)()),
    ]


@contextmanager
def _loops_counted(counts: Dict[str, int]):
    """Blocks generated inside count each instruction retired in a static
    loop's steady-state body into ``counts["static"]`` — and those of
    the iterations its jump applies also into ``counts["jumped"]`` — and
    each retired in a metered loop into ``counts["metered"]``; the code
    cache is emptied on entry and exit, so no block generated without
    the count runs inside and none generated with it runs after."""
    generator = codegen._Generator
    charge, jump = generator.charge, generator.jump

    def counted_charge(gen, category, extra, metered):
        last = gen.run[-1]
        if gen.fold:  # only a steady-state body is folded
            gen.emit('LOOPS["static"] += 1')
        elif (not gen.static and last.op in fastpath.BRANCH_OPS
              and codegen._static_target(last) == gen.start):
            gen.emit('LOOPS["metered"] += 1')
        charge(gen, category, extra, metered)

    def counted_jump(gen):
        lines = jump(gen)
        if lines:  # the last line charges the k iterations jumped
            pad = lines[-1][:len(lines[-1]) - len(lines[-1].lstrip())]
            lines.append(f'{pad}LOOPS["static"] += k * {gen.lap[0]}; '
                         f'LOOPS["jumped"] += k * {gen.lap[0]}\n')
        return lines

    namespace = codegen._namespace()
    namespace["LOOPS"] = counts
    fastpath._CACHE.clear()
    generator.charge, generator.jump = counted_charge, counted_jump
    try:
        yield
    finally:
        generator.charge, generator.jump = charge, jump
        del namespace["LOOPS"]
        fastpath._CACHE.clear()


def census(run: Callable[[], object]) -> Dict[str, int]:
    """Run ``run()`` once with ``Mdp.tick``, the run-loop pass and the
    loop blocks counted; return the counts."""
    counts = dict.fromkeys(("ticks", "passes", "binds", "at_deadline",
                            "at_op", "instrs", "static", "metered",
                            "jumped"), 0)
    tick = Mdp.tick
    commit = JMachine._commit_deliveries

    def counted_tick(proc, now, deadline=None, *rest):
        before = proc.counters.instructions
        nxt = tick(proc, now, deadline, *rest)
        counts["instrs"] += proc.counters.instructions - before
        counts["ticks"] += 1
        if deadline is not None and nxt is not None and nxt >= deadline:
            counts["at_deadline"] += 1
        else:
            counts["at_op"] += 1
        return nxt

    def counted_commit(machine, *args):
        counts["passes"] += 1
        commit(machine, *args)

    bound = fastpath.STATS["blocks_bound"]
    Mdp.tick, JMachine._commit_deliveries = counted_tick, counted_commit
    try:
        with _loops_counted(counts):
            run()
    finally:
        Mdp.tick, JMachine._commit_deliveries = tick, commit
    counts["binds"] = fastpath.STATS["blocks_bound"] - bound
    return counts


def _share(part: int, whole: int) -> str:
    return f"{100 * part / whole:.1f}" if whole else "-"


#: The instruction shares printed per unit and per workload.
SHARES = ("static%", "metered%", "jumped%")


def _shares(counts: Dict[str, int]) -> str:
    return "".join(f"{_share(counts[share[:-1]], counts['instrs']):>9}"
                   for share in SHARES)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1993,
                        help="benchmark seed the instances derive from "
                             "(default: the benchmark's default, 1993)")
    args = parser.parse_args(argv)
    columns = ("ticks", "passes", "binds", "at_deadline", "at_op", "instrs")
    print(f"{'unit':<14}" + "".join(f"{name:>12}" for name in columns)
          + "".join(f"{share:>9}" for share in SHARES))
    by_unit = {}
    for name, run in instances(args.seed):
        counts = by_unit[name] = census(run)
        print(f"{name:<14}" + "".join(f"{counts[c]:>12}" for c in columns)
              + _shares(counts))
    print(f"\n{'workload':<14}{'instrs':>12}"
          + "".join(f"{share:>9}" for share in SHARES))
    for workload, names in WORKLOADS.items():
        total = {key: sum(by_unit[name][key] for name in names)
                 for key in ("instrs", "static", "metered", "jumped")}
        print(f"{workload:<14}{total['instrs']:>12}" + _shares(total))
    print(f"\n{'program':<14}{'compiled/s':>14}{'reference/s':>14}"
          f"{'speedup':>10}")
    for name, build in (("LOOP", lambda fast: _loop(28_000, fast)),
                        ("WORK x64", lambda fast: _grid(64, 1_400, fast))):
        fast, ref = rate(build, True), rate(build, False)
        print(f"{name:<14}{fast:>14,.0f}{ref:>14,.0f}{fast / ref:>10.1f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
