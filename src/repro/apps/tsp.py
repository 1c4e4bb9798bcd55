"""Traveling Salesperson — the Concurrent Smalltalk macro-benchmark.

Paper (Section 4.2/4.3.4): a branch-and-bound search for the optimal tour
of a 14-city weighted graph.  Tasks are unique subpaths of a given
length, initially distributed evenly; a node explores all tours
containing its subpaths depth-first while maintaining the shortest tour
seen so far, pruning any subpath already longer than the bound.  The CST
implementation gives it a distinctive cost profile (Table 5, Figure 6):

* every call is a message (no procedure calls), so "OS" threads are
  nearly as numerous as user threads;
* all objects are referred to by global virtual names, so the program
  executes an enormous number of ``xlate`` instructions with a tiny miss
  ratio;
* CST/COSMOS supports no priority-1 messages, so the long path-tracing
  tasks suspend periodically via a null procedure call to let
  bound-update messages in — 16% of run time goes to this yielding;
* incomplete tours are redistributed to balance load, producing only
  ~3.8% idle time (vs 15% for statically-balanced N-Queens);
* pruning makes speedup super-linear on small machines: more nodes find
  good tours sooner and collectively explore *less* work than one node.

The search here is real: actual tours over a seeded random distance
matrix, verified against Held-Karp dynamic programming.  Pruning luck,
bound-propagation delay, and stealing behaviour all emerge from the
event-level simulation.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from itertools import permutations
from typing import Dict, List, Optional, Tuple

from ..core.errors import ConfigurationError
from ..jsim.sim import Context, MacroConfig, MacroSimulator
from .base import AppResult, SequentialResult, launch

__all__ = ["TspParams", "build_distances", "held_karp", "run_sequential",
           "run_parallel"]

#: User instructions charged per search-tree expansion step.
INSTR_PER_EXPANSION = 30

#: Global-name translations per expansion (tour object, city objects).
XLATES_PER_EXPANSION = 2

#: Expansions a task performs between yields (the "null procedure call").
CHUNK_EXPANSIONS = 10

#: Synchronization cycles charged per yield (the null call's cost).
YIELD_SYNC_CYCLES = 110

#: Instructions of an "OS" (runtime) handler: scheduling, replies.
OS_INSTR = 61

#: "No bound yet": larger than any tour on a 1000x1000 grid.
_INFINITE_BOUND = 10**9


@dataclass(frozen=True)
class TspParams:
    """Problem description (paper: a 14-city configuration)."""

    n_cities: int = 14
    seed: int = 4251993
    #: Subpath length that defines a task (cities after the fixed start).
    task_depth: int = 3
    #: What-if: let bound updates ride priority-1 messages (which the
    #: MDP supports but CST/COSMOS did not).  The task thread then needs
    #: no null-call yields — the 16% synchronization tax disappears.
    use_priority_one: bool = False


def build_distances(params: TspParams) -> List[List[int]]:
    """A symmetric random euclidean distance matrix (deterministic)."""
    rng = random.Random(params.seed)
    points = [(rng.uniform(0, 1000), rng.uniform(0, 1000))
              for _ in range(params.n_cities)]
    n = params.n_cities
    dist = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            d = int(math.hypot(points[i][0] - points[j][0],
                               points[i][1] - points[j][1]))
            dist[i][j] = dist[j][i] = d
    return dist


def held_karp(dist: List[List[int]]) -> int:
    """Exact optimal tour length by dynamic programming (verification)."""
    n = len(dist)
    if n == 1:
        return 0
    full = 1 << (n - 1)  # subsets of cities 1..n-1
    best: List[Dict[int, int]] = [dict() for _ in range(full)]
    for k in range(1, n):
        best[1 << (k - 1)][k] = dist[0][k]
    for subset in range(1, full):
        for last, cost in list(best[subset].items()):
            remaining = ~subset & (full - 1)
            while remaining:
                bit = remaining & -remaining
                remaining -= bit
                nxt = bit.bit_length()  # city index = bit position + 1
                new_subset = subset | bit
                new_cost = cost + dist[last][nxt]
                current = best[new_subset].get(nxt)
                if current is None or new_cost < current:
                    best[new_subset][nxt] = new_cost
    return min(cost + dist[last][0]
               for last, cost in best[full - 1].items())


def _greedy_bound(dist: List[List[int]]) -> int:
    """Nearest-neighbour tour: the initial upper bound."""
    n = len(dist)
    unvisited = set(range(1, n))
    city = 0
    total = 0
    while unvisited:
        nxt = min(unvisited, key=lambda c: dist[city][c])
        total += dist[city][nxt]
        unvisited.remove(nxt)
        city = nxt
    return total + dist[city][0]


def _search(
    dist: List[List[int]],
    path: Tuple[int, ...],
    cost: int,
    visited: int,
    bound: int,
) -> Tuple[int, int]:
    """Depth-first branch and bound: (best tour ≤ bound, expansions)."""
    n = len(dist)
    expansions = 0
    stack = [(path[-1], cost, visited, len(path))]
    # Iterative DFS carrying (city, cost, visited, depth); branches are
    # re-derived from visited masks so the stack stays small.
    best = bound
    frames: List[Tuple[int, int, int, int]] = [stack[0]]
    while frames:
        city, cost, visited, depth = frames.pop()
        expansions += 1
        if cost >= best:
            continue
        if depth == n:
            total = cost + dist[city][0]
            if total < best:
                best = total
            continue
        for nxt in range(1, n):
            bit = 1 << nxt
            if visited & bit:
                continue
            new_cost = cost + dist[city][nxt]
            if new_cost < best:
                frames.append((nxt, new_cost, visited | bit, depth + 1))
    return best, expansions


def run_sequential(params: TspParams = TspParams()) -> SequentialResult:
    """Single-node branch and bound; the first complete tour seeds the
    bound (the paper's searches start unbounded, which is what makes the
    parallel version's early diverse tours pay off so dramatically)."""
    dist = build_distances(params)
    best, expansions = _search(dist, (0,), 0, 1, _INFINITE_BOUND)
    expected = held_karp(dist)
    if best != expected:
        raise ConfigurationError(
            f"sequential TSP found {best}, Held-Karp says {expected}"
        )
    instructions = expansions * INSTR_PER_EXPANSION
    cycles = int(instructions * 2.0) + expansions * XLATES_PER_EXPANSION * 3
    return SequentialResult(cycles=cycles, output=best)


def _make_tasks(dist: List[List[int]], depth: int) -> List[Tuple[Tuple[int, ...], int, int]]:
    """All subpaths of ``depth`` cities beyond the fixed start city."""
    n = len(dist)
    tasks = []
    for combo in permutations(range(1, n), depth):
        path = (0,) + combo
        cost = sum(dist[a][b] for a, b in zip(path, path[1:]))
        visited = 0
        for c in path:
            visited |= 1 << c
        tasks.append((path, cost, visited))
    return tasks


def run_parallel(n_nodes: int, params: TspParams = TspParams(),
                 config: Optional[MacroConfig] = None) -> AppResult:
    """Branch and bound with bound broadcast and task redistribution."""
    if n_nodes < 1:
        raise ConfigurationError("need at least one node")
    dist = build_distances(params)
    n = params.n_cities
    depth = min(params.task_depth, n - 1)
    tasks = _make_tasks(dist, depth)
    initial_bound = _INFINITE_BOUND
    sim = MacroSimulator(n_nodes, config=config)

    master = sim.nodes[0].state
    master["outstanding"] = len(tasks)
    master["done"] = False

    for node in range(n_nodes):
        state = sim.nodes[node].state
        state["tasks"] = []
        state["best"] = initial_bound
        state["active"] = None  # a partially-explored task's frame stack
        state["working"] = False
        state["stopped"] = False
        state["steal_seed"] = node * 7919 + 13

    for i, task in enumerate(tasks):
        sim.nodes[i % n_nodes].state["tasks"].append(task)

    def kick(ctx: Context) -> None:
        ctx.charge(instructions=OS_INSTR)
        _post_work(ctx)

    def _post_work(ctx: Context) -> None:
        state = ctx.state
        if not state["working"] and not state["stopped"]:
            state["working"] = True
            # The continuation carries the tour-in-progress (CST context
            # object): about five words on the wire (Table 5: 5.1).
            ctx.call_local("TSPWork", length=5)

    def work(ctx: Context) -> None:
        """Process one chunk of expansions, then yield (null call)."""
        state = ctx.state
        state["working"] = False
        if state["stopped"]:
            return
        frames = state["active"]
        if frames is None:
            if not state["tasks"]:
                _try_steal(ctx)
                return
            path, cost, visited = state["tasks"].pop(0)
            frames = [(path[-1], cost, visited, len(path))]
            state["active"] = frames

        best = state["best"]
        improved = False
        expansions = 0
        while frames and expansions < CHUNK_EXPANSIONS:
            city, cost, visited, task_depth = frames.pop()
            expansions += 1
            if cost >= best:
                continue
            if task_depth == n:
                total = cost + dist[city][0]
                if total < best:
                    best = total
                    improved = True
                continue
            for nxt in range(1, n):
                bit = 1 << nxt
                if visited & bit:
                    continue
                new_cost = cost + dist[city][nxt]
                if new_cost < best:
                    frames.append((nxt, new_cost, visited | bit, task_depth + 1))

        ctx.charge(instructions=INSTR_PER_EXPANSION * expansions)
        ctx.xlate(XLATES_PER_EXPANSION * expansions)
        # The name cache occasionally misses (Table 5: ~1 fault per
        # 32,000 xlates — "the percentage of time an xlate misses ...
        # is insignificant").
        state["xlate_run"] = state.get("xlate_run", 0) + \
            XLATES_PER_EXPANSION * expansions
        while state["xlate_run"] >= 32_000:
            state["xlate_run"] -= 32_000
            ctx.xlate(1, fault=True)
        state["best"] = best
        if improved:
            _broadcast_bound(ctx, best)
        if frames:
            if not params.use_priority_one:
                # The periodic null procedure call that lets bound
                # messages in (CST cannot use priority 1).  It is a real
                # message round through the runtime — which is why the
                # paper's OS thread count rivals its user thread count.
                ctx.sync(YIELD_SYNC_CYCLES // 2)
                ctx.call_local("TSPNull", length=4)
                return
        else:
            state["active"] = None
            ctx.charge(instructions=OS_INSTR)
            ctx.send(0, "TSPTaskDone", length=3)
        _post_work(ctx)

    def _broadcast_bound(ctx: Context, bound: int) -> None:
        priority = 1 if params.use_priority_one else 0
        for node in range(ctx.n_nodes):
            if node != ctx.node_id:
                ctx.charge(instructions=6)
                ctx.nnr()
                ctx.send(node, "TSPBound", bound, length=4,
                         priority=priority)

    def null_call(ctx: Context) -> None:
        """The null procedure's return path (an OS thread).

        Charged as runtime instructions inside the sync category: it is
        scheduling work whose only purpose is letting bounds in.
        """
        ctx.charge(instructions=OS_INSTR // 2,
                   cycles=YIELD_SYNC_CYCLES // 2, category="sync")
        _post_work(ctx)

    def got_bound(ctx: Context, bound: int) -> None:
        state = ctx.state
        ctx.charge(instructions=OS_INSTR)
        if bound < state["best"]:
            state["best"] = bound

    def _try_steal(ctx: Context) -> None:
        """Out of work: ask another node for tasks (redistribution)."""
        state = ctx.state
        if state["stopped"] or ctx.n_nodes == 1:
            return
        seed = state["steal_seed"]
        state["steal_seed"] = seed * 1103515245 + 12345 & 0x7FFFFFFF
        victim = state["steal_seed"] % ctx.n_nodes
        if victim == ctx.node_id:
            victim = (victim + 1) % ctx.n_nodes
        ctx.charge(instructions=OS_INSTR)
        ctx.nnr()
        ctx.send(victim, "TSPSteal", ctx.node_id, length=4)

    def steal(ctx: Context, requester: int) -> None:
        state = ctx.state
        ctx.charge(instructions=OS_INSTR)
        give = []
        tasks = state["tasks"]
        if len(tasks) >= 2:
            half = len(tasks) // 2
            give = tasks[half:]
            del tasks[half:]
        elif tasks and state["active"] is not None:
            # Donate the queued task; keep working the active one.
            give = [tasks.pop()]
        words = 3 + 8 * len(give)
        ctx.send(requester, "TSPGive", tuple(give), length=words)

    def give(ctx: Context, donated: tuple) -> None:
        state = ctx.state
        ctx.charge(instructions=OS_INSTR)
        if state["stopped"]:
            return
        if donated:
            state["tasks"].extend(donated)
            _post_work(ctx)
        else:
            # Nothing to steal there; back off briefly and retry.
            ctx.sync(40)
            _try_steal(ctx)

    def task_done(ctx: Context) -> None:
        state = ctx.state
        ctx.charge(instructions=OS_INSTR)
        state["outstanding"] -= 1
        if state["outstanding"] == 0:
            state["done"] = True
            for node in range(ctx.n_nodes):
                if node != ctx.node_id:
                    ctx.send(node, "TSPStop", length=3)
            ctx.state["stopped"] = True

    def stop(ctx: Context) -> None:
        ctx.charge(instructions=OS_INSTR)
        ctx.state["stopped"] = True

    sim.register("TSPNull", null_call)
    sim.register("TSPKick", kick)
    sim.register("TSPWork", work)
    sim.register("TSPBound", got_bound)
    sim.register("TSPSteal", steal)
    sim.register("TSPGive", give)
    sim.register("TSPTaskDone", task_done)
    sim.register("TSPStop", stop)

    def start() -> None:
        for node in range(n_nodes):
            sim.inject(node, "TSPKick")

    run = launch("tsp", sim, start)

    best = min(sim.nodes[node].state["best"] for node in range(n_nodes))
    expected = held_karp(dist)
    if best != expected:
        raise ConfigurationError(f"TSP found {best}, Held-Karp says {expected}")
    if not master["done"]:
        raise ConfigurationError("TSP did not drain all tasks")
    user_handlers = {"TSPWork"}
    user_stats = {k: v for k, v in sim.handler_stats.items() if k in user_handlers}
    os_stats = {k: v for k, v in sim.handler_stats.items() if k not in user_handlers}
    profile = sim.aggregate_profile()
    run.output = best
    run.extra.update(
        n_cities=n,
        tasks=len(tasks),
        user_threads=sum(s.invocations for s in user_stats.values()),
        os_threads=sum(s.invocations for s in os_stats.values()),
        user_instructions=sum(s.instructions for s in user_stats.values()),
        os_instructions=sum(s.instructions for s in os_stats.values()),
        xlates=profile.xlate_count,
        xlate_faults=profile.xlate_faults,
    )
    return run
