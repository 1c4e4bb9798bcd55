"""N-Queens — the explosive-parallelism search macro-benchmark.

Paper (Section 4.2/4.3.3): count the placements of N queens on an NxN
board.  "The key difficulty ... is to control the explosive parallelism";
the implementation "expands the number of boards first in a breadth-first
manner, then switch[es] to a depth-first traversal of the rest of the
state space.  The amount of breadth-first expansion depends on the
machine size and the problem size."  For 13 queens on 64 nodes that gives
1,030 coarse tasks averaging ~296K instructions, communicated with
eight-word board messages and three-word result messages (Table 4), and
the static distribution of those few, wildly-unequal tasks produces the
observed ~15% idle time.

Here the depth-first solver is the classic bitmask algorithm; its visited
node count drives the cycle charge, so task-size variance — and therefore
the load imbalance — is the real variance of the real search tree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..core.errors import ConfigurationError
from ..jsim.sim import Context, MacroConfig, MacroSimulator
from .base import AppResult, SequentialResult, launch

__all__ = ["NQueensParams", "solve_count", "expand_boards",
           "run_sequential", "run_parallel"]

#: Instructions charged per search-tree node visited (calibrated so the
#: 13-queens run totals ~305M instructions, matching Table 4).
INSTR_PER_NODE = 65

#: Instructions to expand one board during breadth-first startup.
EXPAND_INSTR = 30

#: Known solution counts for verification.
KNOWN_COUNTS = {
    1: 1, 2: 0, 3: 0, 4: 2, 5: 10, 6: 4, 7: 40, 8: 92,
    9: 352, 10: 724, 11: 2680, 12: 14200, 13: 73712, 14: 365596,
}


@dataclass(frozen=True)
class NQueensParams:
    """Problem description (paper: 13 queens)."""

    n: int = 13
    #: Target tasks per node for the breadth-first phase (paper: ~16).
    tasks_per_node: int = 16


def solve_count(n: int, cols: int, ld: int, rd: int, row: int) -> Tuple[int, int]:
    """Bitmask DFS: (solutions, nodes visited) below this partial board."""
    if row == n:
        return 1, 1
    solutions = 0
    nodes = 1
    free = ~(cols | ld | rd) & ((1 << n) - 1)
    while free:
        bit = free & -free
        free -= bit
        s, v = solve_count(
            n, cols | bit, ((ld | bit) << 1) & ((1 << n) - 1), (rd | bit) >> 1,
            row + 1,
        )
        solutions += s
        nodes += v
    return solutions, nodes


def expand_boards(n: int, depth: int) -> List[Tuple[int, int, int]]:
    """All legal partial boards of ``depth`` rows, as (cols, ld, rd)."""
    mask = (1 << n) - 1
    boards = [(0, 0, 0)]
    for _ in range(depth):
        nxt = []
        for cols, ld, rd in boards:
            free = ~(cols | ld | rd) & mask
            while free:
                bit = free & -free
                free -= bit
                nxt.append((cols | bit, ((ld | bit) << 1) & mask, (rd | bit) >> 1))
        boards = nxt
    return boards


def choose_depth(n: int, n_nodes: int, tasks_per_node: int) -> int:
    """Smallest breadth-first depth yielding enough tasks to spread."""
    target = max(tasks_per_node * n_nodes, 1)
    depth = 0
    count = 1
    while count < target and depth < n - 1:
        depth += 1
        count = len(expand_boards(n, depth))
    return depth


def run_sequential(params: NQueensParams = NQueensParams()) -> SequentialResult:
    """Plain depth-first count with the same per-node charge."""
    solutions, nodes = solve_count(params.n, 0, 0, 0, 0)
    if params.n in KNOWN_COUNTS and solutions != KNOWN_COUNTS[params.n]:
        raise ConfigurationError("sequential N-Queens count is wrong")
    return SequentialResult(cycles=int(nodes * INSTR_PER_NODE * 2.0),
                            output=solutions)


def run_parallel(
    n_nodes: int, params: NQueensParams = NQueensParams(),
    config: Optional[MacroConfig] = None,
    telemetry=None, chaos=None, reliable=None,
    checkpoint=None, restore_from=None, sampler=None,
) -> AppResult:
    """Breadth-first expansion, static spread, depth-first tasks.

    ``chaos`` / ``reliable`` / ``checkpoint`` / ``restore_from`` /
    ``sampler`` are the rig :func:`~repro.apps.base.launch` attaches
    (the result collection's ``outstanding`` countdown needs the
    reliable transport's exactly-once dispatch to survive message
    loss).
    """
    if n_nodes < 1:
        raise ConfigurationError("need at least one node")
    n = params.n
    depth = choose_depth(n, n_nodes, params.tasks_per_node)
    sim = MacroSimulator(n_nodes, config=config, telemetry=telemetry)

    master_state = sim.nodes[0].state
    master_state["solutions"] = 0
    master_state["outstanding"] = None
    master_state["done"] = False

    def start(ctx: Context) -> None:
        """Node 0: breadth-first expansion and round-robin distribution."""
        boards = [(0, 0, 0)]
        expansions = 0
        for _ in range(depth):
            nxt = []
            mask = (1 << n) - 1
            for cols, ld, rd in boards:
                free = ~(cols | ld | rd) & mask
                while free:
                    bit = free & -free
                    free -= bit
                    nxt.append(
                        (cols | bit, ((ld | bit) << 1) & mask, (rd | bit) >> 1)
                    )
                expansions += 1
            boards = nxt
        ctx.charge(instructions=EXPAND_INSTR * max(1, expansions))
        ctx.state["outstanding"] = len(boards)
        for i, board in enumerate(boards):
            dest = i % ctx.n_nodes
            # Eight-word board-distribution message (Table 4).
            ctx.send(dest, "NQueens", board[0], board[1], board[2], length=8)

    def nqueens(ctx: Context, cols: int, ld: int, rd: int) -> None:
        """A coarse task: depth-first count below the given board."""
        solutions, nodes = solve_count(n, cols, ld, rd, depth)
        ctx.charge(instructions=INSTR_PER_NODE * nodes)
        # Three-word result message (Table 4).
        ctx.send(0, "NQDone", solutions, length=3)

    def nq_done(ctx: Context, solutions: int) -> None:
        state = ctx.state
        state["solutions"] += solutions
        state["outstanding"] -= 1
        ctx.charge(instructions=21)
        if state["outstanding"] == 0:
            state["done"] = True

    sim.register("NQStart", start)
    sim.register("NQueens", nqueens)
    sim.register("NQDone", nq_done)
    run = launch("nqueens", sim, lambda: sim.inject(0, "NQStart"),
                 chaos=chaos, reliable=reliable, checkpoint=checkpoint,
                 restore_from=restore_from, sampler=sampler)

    solutions = master_state["solutions"]
    expected = KNOWN_COUNTS.get(n)
    if expected is not None and solutions != expected:
        raise ConfigurationError(
            f"N-Queens mismatch: counted {solutions}, expected {expected}"
        )
    if not master_state["done"]:
        raise ConfigurationError("N-Queens did not collect all results")
    run.output = solutions
    run.extra.update(n=n, bf_depth=depth)
    return run
