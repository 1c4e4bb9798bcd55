"""The benchmark's own assembly programs and the machines that run them.

Copies, not imports, of the LOOP / WORK / RING programs the older
``benchmarks/*.py`` use, so this directory depends on ``repro.*`` only;
and the macro-level relay chain two workloads share.
``repro`` is imported inside the functions: set-up re-imports the
package to time it, and nothing here may pin a stale module.
"""

from __future__ import annotations

#: One MDP spinning an ADD/SUB/BT loop: 3 instructions per iteration.
LOOP = """
start:
    MOVE #{iters}, R1
loop:
    ADD R0, R1, R0
    SUB R1, #1, R1
    BT R1, loop
    HALT
"""

#: Compute grid: every node counts down, then sends one message to its
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

#: Token ring: decrement the hop count, forward to the +1 neighbour.
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


def build_mdp_loop(iters: int, fast_path: bool = True):
    from repro.asm.assembler import assemble
    from repro.core.processor import Mdp

    proc = Mdp(node_id=0, fast_path=fast_path)
    program = assemble(LOOP.format(iters=iters))
    program.load(proc)
    proc.set_background(program.entry("start"))
    return proc


def run_mdp_loop(proc):
    now = 0
    while not proc.halted:
        now = proc.tick(now)
    return proc, now


def mdp_loop_stats(result):
    proc, now = result
    return {"cycles": now, "instructions": proc.counters.instructions}


def build_grid(n_nodes: int, iters: int, **config):
    """(machine, done-flag address): a loaded compute grid with every
    node's work message injected."""
    from repro.asm.assembler import assemble
    from repro.core.registers import Priority
    from repro.core.word import Word
    from repro.machine.config import MachineConfig
    from repro.machine.jmachine import JMachine

    machine = JMachine(MachineConfig.for_nodes(n_nodes, **config))
    program = assemble(WORK)
    machine.load(program)
    base = program.end + 4
    for i, node in enumerate(machine.nodes):
        node.proc.memory.poke(base + 0, Word.from_int(iters))
        node.proc.memory.poke(base + 1, Word.from_int((i + 1) % n_nodes))
        node.proc.registers[Priority.P0].write("A0", Word.segment(base, 4))
    for i in range(n_nodes):
        machine.inject(i, program.entry("work"), source=i)
    return machine, base + 2


def run_machine(state):
    """Timed region of the grid and ring units: ``state[0]`` is the machine."""
    state[0].run_until_quiescent(max_cycles=100_000_000)
    return state


def grid_stats(state):
    machine, done_addr = state
    done = sum(node.proc.memory.peek(done_addr).value
               for node in machine.nodes)
    if done != len(machine.nodes):
        raise AssertionError(f"grid: {done}/{len(machine.nodes)} nodes done")
    return machine_stats(machine)


def machine_stats(machine):
    return {"cycles": machine.now,
            "instructions": machine.total_instructions(),
            "messages": machine.fabric.stats.completed}


def build_ring(dims, tokens: int, hops: int, telemetry=None, probe=False,
               **config):
    """(machine, expected instruction total): a token ring over every
    node of ``dims`` with ``tokens`` injected."""
    from repro.asm.assembler import assemble
    from repro.core.word import Word
    from repro.machine.config import MachineConfig
    from repro.machine.jmachine import JMachine

    n_nodes = dims[0] * dims[1] * dims[2]
    machine = JMachine(MachineConfig(dims=dims, fabric_probe=probe, **config),
                       telemetry=telemetry)
    program = assemble(RING.format(nodes=n_nodes))
    machine.load(program)
    entry = program.entry("relay")
    for token in range(tokens):
        machine.inject(token % n_nodes, entry, [Word.from_int(hops)])
    return machine, tokens * (hops * 9 + 3)


def ring_stats(state):
    machine, expected_instructions = state
    stats = machine_stats(machine)
    if stats["instructions"] != expected_instructions:
        raise AssertionError(
            f"ring: {stats['instructions']} instructions, expected "
            f"{expected_instructions}")
    return stats


def build_relay(hops: int, inject: bool = True):
    """A bare 16-node ``MacroSimulator`` passing one message down a
    ``hops``-long chain; each node counts what it saw, so a snapshot has
    node state to carry.  ``inject=False`` is the empty twin a snapshot
    is restored into."""
    from repro.jsim.sim import MacroSimulator

    sim = MacroSimulator(16)

    def relay(ctx, remaining):
        ctx.charge(instructions=10)
        ctx.state["seen"] = ctx.state.get("seen", 0) + 1
        if remaining:
            ctx.send((ctx.node_id + 1) % 16, "relay", remaining - 1)

    sim.register("relay", relay)
    if inject:
        sim.inject(0, "relay", hops)
    return sim
