"""Longest Common Subsequence — the systolic macro-benchmark.

Paper (Section 4.2/4.3.1): one string is distributed evenly across the
nodes; the other is placed on node 0 and its characters are passed across
the nodes in systolic fashion.  The studied case is a 1024-character
distributed string against a 4096-character streamed string, written in
assembly; at 64 nodes each node holds 16 characters and receives 4096
three-word messages.

Implementation here: each node holds a chunk of string A and one DP
column for its rows.  The ``NxtChar`` handler receives ``(j, char,
boundary)`` — the j-th character of B plus the DP value of the row just
above the chunk — advances its rows one column, and forwards the
character with its own last-row value.  Node 0's ``StartUp`` interleaves
generating the 4096 character messages with processing them, exactly the
"messages appear one at a time" behaviour the paper describes (whose cost
— about 86K instructions — shows up as node 0's load imbalance).

Cost constants are chosen to match Table 4: a NxtChar thread executes a
fixed ~20 instructions of entry/exit plus ~13 per local character, giving
232 instructions/thread at 64 nodes, and making entry/exit overhead grow
from ~9% of run time at 64 nodes toward ~33% at 512 as chunks shrink.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..core.errors import ConfigurationError
from ..jsim.sim import Context, MacroConfig, MacroSimulator
from .base import AppResult, SequentialResult, launch

__all__ = ["LcsParams", "generate_strings", "lcs_reference",
           "run_sequential", "run_parallel", "estimate_cycles"]

#: Fixed entry/exit instructions of the NxtChar handler.
FIXED_INSTR = 20

#: Instructions per local character of DP work.
PER_CHAR_INSTR = 13

#: Instructions node 0 spends generating each character message.
STARTUP_INSTR_PER_CHAR = 21


@dataclass(frozen=True)
class LcsParams:
    """Problem instance description (paper: a=1024, b=4096)."""

    a_len: int = 1024
    b_len: int = 4096
    alphabet: int = 4
    seed: int = 20130501

    def scaled(self, factor: float) -> "LcsParams":
        """A proportionally smaller instance for quick runs."""
        return LcsParams(
            a_len=max(8, int(self.a_len * factor)),
            b_len=max(8, int(self.b_len * factor)),
            alphabet=self.alphabet,
            seed=self.seed,
        )


def generate_strings(params: LcsParams) -> Tuple[List[int], List[int]]:
    """Deterministic input strings over a small alphabet."""
    rng = random.Random(params.seed)
    a = [rng.randrange(params.alphabet) for _ in range(params.a_len)]
    b = [rng.randrange(params.alphabet) for _ in range(params.b_len)]
    return a, b


def lcs_reference(a: List[int], b: List[int]) -> int:
    """Plain rolling-row DP; the ground truth for verification."""
    prev = [0] * (len(b) + 1)
    for ach in a:
        current = [0] * (len(b) + 1)
        for j, bch in enumerate(b, start=1):
            if ach == bch:
                current[j] = prev[j - 1] + 1
            else:
                left = current[j - 1]
                up = prev[j]
                current[j] = left if left >= up else up
        prev = current
    return prev[len(b)]


def run_sequential(params: LcsParams) -> SequentialResult:
    """The speedup base case: sequential DP with the same cell cost.

    The sequential implementation touches every cell once at the same
    ~13 instructions of DP work the handler's inner loop pays, with no
    message formatting, dispatch, or entry/exit costs.
    """
    a, b = generate_strings(params)
    length = lcs_reference(a, b)
    instructions = params.a_len * params.b_len * PER_CHAR_INSTR
    cycles = int(instructions * MacroConfig().cycles_per_instruction)
    return SequentialResult(cycles=cycles, output=length)


def _chunks(a: List[int], n_nodes: int) -> List[List[int]]:
    """Distribute string A evenly (first nodes get the remainder)."""
    base, extra = divmod(len(a), n_nodes)
    chunks = []
    pos = 0
    for node in range(n_nodes):
        size = base + (1 if node < extra else 0)
        chunks.append(a[pos : pos + size])
        pos += size
    return chunks


@dataclass
class LcsScaling:
    """The paper's Section 4.3.1 scaling decomposition for one run.

    * ``entry_exit_share`` — the fraction of total busy time spent in the
      NxtChar handler's fixed prologue/epilogue (paper: 9% at 64 nodes,
      24% at 256, 33% at 512).
    * ``node0_imbalance_share`` — node 0's extra load (message
      generation) relative to the rest, as a fraction of run time
      (paper: 4%, 13%, 17%).
    * ``idle_share`` — machine-wide idle fraction; includes the systolic
      skew (pipeline end effects, paper: up to 11%).
    """

    n_nodes: int
    entry_exit_share: float
    node0_imbalance_share: float
    idle_share: float


def scaling_analysis(n_nodes: int, params: LcsParams = LcsParams(),
                     result: Optional[AppResult] = None) -> LcsScaling:
    """Measure the run-time decomposition the paper reports for LCS."""
    if result is None:
        result = run_parallel(n_nodes, params)
    sim = result.sim
    stats = result.handler_stats["NxtChar"]
    cpi = sim.config.cycles_per_instruction
    entry_exit_cycles = stats.invocations * FIXED_INSTR * cpi
    total_busy = sum(node.profile.busy for node in sim.nodes)
    busies = [node.profile.busy for node in sim.nodes]
    others = busies[1:] if len(busies) > 1 else busies
    mean_other = sum(others) / len(others)
    imbalance = max(0.0, busies[0] - mean_other) / max(1, result.cycles)
    return LcsScaling(
        n_nodes=n_nodes,
        entry_exit_share=entry_exit_cycles / max(1, total_busy),
        node0_imbalance_share=imbalance,
        idle_share=result.breakdown.get("idle", 0.0),
    )


def estimate_cycles(n_nodes: int, params: LcsParams = LcsParams(),
                    config: Optional[MacroConfig] = None) -> int:
    """Analytic run-length estimate from the app's cost constants.

    Node 0 serializes the whole streamed string (generation + its own
    DP chunk per character), then the last character drains through the
    remaining pipeline stages.  Used to seed a live sampler's
    progress/ETA denominator for quiescence-driven runs — a display
    aid, deliberately coarse, never a limit on the simulation.
    """
    cfg = config if config is not None else MacroConfig()
    cpi = cfg.cycles_per_instruction
    chunk0 = -(-params.a_len // n_nodes)  # ceil: node 0's chunk size
    per_char = (STARTUP_INSTR_PER_CHAR + FIXED_INSTR
                + PER_CHAR_INSTR * chunk0)
    drain = (n_nodes - 1) * (FIXED_INSTR + PER_CHAR_INSTR * chunk0
                             + cfg.send_overhead_cycles)
    return int(cpi * (params.b_len * per_char + drain))


def run_parallel(n_nodes: int, params: LcsParams = LcsParams(),
                 config: Optional[MacroConfig] = None,
                 telemetry=None, chaos=None, reliable=None,
                 checkpoint=None, restore_from=None,
                 sampler=None) -> AppResult:
    """Run the systolic LCS on a macro-simulated machine and verify it.

    ``chaos`` / ``reliable`` / ``checkpoint`` / ``restore_from`` /
    ``sampler`` are the rig :func:`~repro.apps.base.launch` attaches;
    the sampler's progress/ETA denominator is seeded with
    :func:`estimate_cycles` unless the caller pinned one.
    """
    if n_nodes < 1:
        raise ConfigurationError("need at least one node")
    a, b = generate_strings(params)
    sim = MacroSimulator(n_nodes, config=config, telemetry=telemetry)
    chunks = _chunks(a, n_nodes)
    holders = [node for node in range(n_nodes) if chunks[node]]
    last_holder = holders[-1]

    for node in range(n_nodes):
        state = sim.nodes[node].state
        state["chars"] = chunks[node]
        state["col"] = [0] * len(chunks[node])
        state["prev_boundary"] = 0
        state["seen"] = 0
        state["result"] = None

    def nxt_char(ctx: Context, ch: int, boundary: int) -> None:
        state = ctx.state
        chars = state["chars"]
        state["seen"] += 1
        prev = state["col"]
        diag = state["prev_boundary"]
        left_above = boundary
        new = [0] * len(chars)
        for i, ach in enumerate(chars):
            if ach == ch:
                value = diag + 1
            else:
                up = prev[i]
                value = up if up >= left_above else left_above
            new[i] = value
            diag = prev[i]
            left_above = value
        state["col"] = new
        state["prev_boundary"] = boundary
        ctx.charge(instructions=FIXED_INSTR + PER_CHAR_INSTR * len(chars))
        tail = new[-1] if new else boundary
        if ctx.node_id == last_holder:
            if state["seen"] == params.b_len:
                state["result"] = tail
        else:
            nxt = ctx.node_id + 1
            while not chunks[nxt]:  # skip empty chunks (n_nodes > a_len)
                nxt += 1
            ctx.send(nxt, "NxtChar", ch, tail)

    def start_up(ctx: Context, j: int) -> None:
        ctx.charge(instructions=STARTUP_INSTR_PER_CHAR)
        ctx.call_local("NxtChar", b[j], 0)
        if j + 1 < params.b_len:
            ctx.call_local("StartUp", j + 1, length=2)

    sim.register("NxtChar", nxt_char)
    sim.register("StartUp", start_up)
    run = launch("lcs", sim, lambda: sim.inject(0, "StartUp", 0),
                 chaos=chaos, reliable=reliable, checkpoint=checkpoint,
                 restore_from=restore_from, sampler=sampler,
                 run_limit=estimate_cycles(n_nodes, params, config))

    result = sim.nodes[last_holder].state["result"]
    expected = lcs_reference(a, b)
    if result != expected:
        raise ConfigurationError(
            f"LCS mismatch: systolic={result}, reference={expected}"
        )
    run.output = result
    run.extra.update(a_len=params.a_len, b_len=params.b_len)
    return run
