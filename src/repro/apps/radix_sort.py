"""Parallel radix sort — the fine-grained communication macro-benchmark.

Paper (Section 4.2/4.3.2): 65,536 28-bit keys are sorted 4 bits at a time
by a stable three-phase counting sort.  Per digit:

1. **Count** — each node scans its local keys and counts how many hash to
   each of the 16 digit values.
2. **Combine** — the per-node counts are combined and the initial offset
   of every (node, digit) pair is computed using a binary combining /
   distributing tree.
3. **Reorder** — each node scans its keys again and writes every key
   directly to its destination slot; remote slots are written with a
   three-word ``WriteData`` message whose handler is just 4 instructions
   (16 cycles).  This "fine-grained style" — a message per word — is what
   stresses the communication mechanisms, and its offered traffic is what
   saturates the bisection between 64 and 128 nodes.

The outer per-node ``Sort`` thread suspends twice per iteration (end of
counting, end of reorder), synchronised through the same binomial tree.

The implementation sorts real keys and verifies the final order; cost
constants reproduce Table 4's 276K instructions per Sort thread and the
452K four-instruction WriteData threads at 64 nodes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional

from ..core.errors import ConfigurationError
from ..jsim.collectives import binomial_children, binomial_parent
from ..jsim.sim import Context, MacroConfig, MacroSimulator
from .base import AppResult, SequentialResult, launch

__all__ = ["RadixParams", "generate_keys", "run_sequential", "run_parallel"]

#: Instructions to count one key (load, extract digit, bump bucket).
COUNT_INSTR_PER_KEY = 14

#: Instructions to reorder one key locally (load, digit, offset, store).
REORDER_INSTR_PER_KEY = 22

#: Extra instructions to format a remote write (address split, send setup
#: beyond the generic per-message overhead).
REMOTE_EXTRA_INSTR = 6

#: The WriteData handler: 4 instructions, 16 cycles (Table 4).
WRITE_INSTR = 4
WRITE_CYCLES = 16

#: Fixed instructions per combining-tree hop handler.
TREE_FIXED_INSTR = 15

#: Instructions per bucket merged in a tree handler.
TREE_PER_BUCKET_INSTR = 3

#: Phase-boundary suspend cost for the Sort thread (save + restart).
PHASE_SYNC_CYCLES = 50


@dataclass(frozen=True)
class RadixParams:
    """Problem description (paper: 65,536 28-bit keys, 4-bit digits)."""

    n_keys: int = 65536
    key_bits: int = 28
    digit_bits: int = 4
    seed: int = 19930516

    @property
    def n_digits(self) -> int:
        return -(-self.key_bits // self.digit_bits)

    @property
    def radix(self) -> int:
        return 1 << self.digit_bits

    def scaled(self, factor: float) -> "RadixParams":
        return RadixParams(
            n_keys=max(64, int(self.n_keys * factor)),
            key_bits=self.key_bits,
            digit_bits=self.digit_bits,
            seed=self.seed,
        )


def generate_keys(params: RadixParams) -> List[int]:
    rng = random.Random(params.seed)
    return [rng.getrandbits(params.key_bits) for _ in range(params.n_keys)]


def run_sequential(params: RadixParams) -> SequentialResult:
    """Tuned single-node counting sort with the same per-key constants."""
    keys = generate_keys(params)
    out = sorted(keys)  # the verified output
    per_pass = params.n_keys * (COUNT_INSTR_PER_KEY + REORDER_INSTR_PER_KEY)
    instructions = params.n_digits * per_pass
    return SequentialResult(cycles=int(instructions * 2.0), output=out)


def run_parallel(n_nodes: int, params: RadixParams = RadixParams(),
                 config: Optional[MacroConfig] = None,
                 style: str = "fine") -> AppResult:
    """Run the three-phase parallel radix sort and verify the result.

    ``style`` selects the reorder-phase communication grain:

    * ``"fine"`` — the paper's J-Machine implementation: each key is a
      three-word ``WriteData`` message ("each value is written to its
      new slot as soon as the location has been computed").
    * ``"coarse"`` — the style the paper says machines *without*
      efficient communication primitives are forced into: keys bound
      for the same node are collected into per-destination blocks and
      sent as one large ``WriteBlock`` message per destination per
      digit, amortizing the per-message overhead.

    On the MDP's cost model the fine-grained version is competitive; as
    per-message overhead grows toward contemporary machines' hundreds of
    cycles, coarse wins — the crossover study in
    ``repro.bench.crossover`` sweeps exactly that.
    """
    if style not in ("fine", "coarse"):
        raise ConfigurationError(f"unknown reorder style {style!r}")
    if n_nodes < 1:
        raise ConfigurationError("need at least one node")
    if params.n_keys % n_nodes:
        raise ConfigurationError("n_keys must divide evenly across nodes")
    keys = generate_keys(params)
    kpn = params.n_keys // n_nodes
    radix = params.radix
    digit_bits = params.digit_bits
    n_digits = params.n_digits
    sim = MacroSimulator(n_nodes, config=config)
    #: Binomial-tree children each node must hear from, per phase.
    n_children = [len(binomial_children(node, n_nodes))
                  for node in range(n_nodes)]

    for node in range(n_nodes):
        state = sim.nodes[node].state
        state["keys"] = keys[node * kpn : (node + 1) * kpn]
        state["next"] = [None] * kpn
        state["received"] = 0
        state["iteration"] = 0
        state["pending_children"] = 0
        state["counts"] = None
        state["done_children"] = 0
        state["reorder_done"] = False

    def local_digit_counts(state: dict, shift: int) -> List[int]:
        counts = [0] * radix
        for key in state["keys"]:
            counts[(key >> shift) & (radix - 1)] += 1
        return counts

    # ---- phase 1: count, then enter the combining tree -------------------

    def sort_iter(ctx: Context) -> None:
        """One node's count phase for the current digit."""
        state = ctx.state
        shift = state["iteration"] * digit_bits
        counts = local_digit_counts(state, shift)
        state["counts"] = counts
        state["subtotal"] = list(counts)
        state["left_totals"] = {}
        ctx.charge(instructions=COUNT_INSTR_PER_KEY * kpn)
        state["pending_children"] = n_children[ctx.node_id]
        _maybe_send_up(ctx)

    def _maybe_send_up(ctx: Context) -> None:
        state = ctx.state
        if state["pending_children"] > 0:
            return
        node = ctx.node_id
        if node == 0:
            _root_down(ctx)
            return
        # Send the subtree total to the binomial parent.
        ctx.charge(instructions=TREE_FIXED_INSTR)
        ctx.send(binomial_parent(node), "CombineUp", node,
                 tuple(state["subtotal"]), length=1 + 1 + radix)

    def combine_up(ctx: Context, child: int, totals: tuple) -> None:
        state = ctx.state
        level = (child - ctx.node_id).bit_length() - 1
        state["left_totals"][level] = list(state["subtotal"])
        state["subtotal"] = [a + b for a, b in zip(state["subtotal"], totals)]
        state["pending_children"] -= 1
        ctx.charge(
            instructions=TREE_FIXED_INSTR + TREE_PER_BUCKET_INSTR * radix
        )
        _maybe_send_up(ctx)

    def _root_down(ctx: Context) -> None:
        """Root: totals -> global digit starts, then distribute prefixes."""
        state = ctx.state
        totals = state["subtotal"]
        starts = [0] * radix
        acc = 0
        for b in range(radix):
            starts[b] = acc
            acc += totals[b]
        ctx.charge(instructions=TREE_PER_BUCKET_INSTR * radix)
        _down(ctx, starts)

    def combine_down(ctx: Context, base: tuple) -> None:
        ctx.charge(instructions=TREE_FIXED_INSTR)
        _down(ctx, list(base))

    def _down(ctx: Context, base: List[int]) -> None:
        """Pass prefix bases to right children; then start reorder."""
        state = ctx.state
        node = ctx.node_id
        for level in sorted(state["left_totals"], reverse=True):
            child = node + (1 << level)
            left = state["left_totals"][level]
            child_base = [base[b] + left[b] for b in range(radix)]
            ctx.charge(instructions=TREE_PER_BUCKET_INSTR * radix)
            ctx.send(child, "CombineDown", tuple(child_base),
                     length=1 + radix)
        state["offsets"] = base  # this node's per-digit write positions
        ctx.sync(PHASE_SYNC_CYCLES)  # end-of-count suspend/restart
        ctx.call_local("Reorder", length=2)

    # ---- phase 3: reorder ---------------------------------------------------

    def reorder(ctx: Context) -> None:
        if style == "coarse":
            _reorder_coarse(ctx)
        else:
            _reorder_fine(ctx)

    def _reorder_fine(ctx: Context) -> None:
        state = ctx.state
        shift = state["iteration"] * digit_bits
        offsets = state["offsets"]
        mask = radix - 1
        kept = 0
        local_instr = 0
        for key in state["keys"]:
            digit = (key >> shift) & mask
            pos = offsets[digit]
            offsets[digit] = pos + 1
            dest, slot = divmod(pos, kpn)
            if dest == ctx.node_id:
                state["next"][slot] = key
                kept += 1
                local_instr += REORDER_INSTR_PER_KEY
            else:
                local_instr += REORDER_INSTR_PER_KEY + REMOTE_EXTRA_INSTR
                ctx.charge(instructions=local_instr)
                local_instr = 0
                # Convert the linear destination index to a router
                # address — the software NNR calculation Figure 6 shows
                # (a node TLB would make this free; see the ablation).
                ctx.nnr()
                ctx.send(dest, "WriteData", slot, key)
        ctx.charge(instructions=local_instr)
        state["kept"] = kept
        state["reorder_done"] = True
        # The node's own incoming writes may already all be here.
        _maybe_complete(ctx)

    def _reorder_coarse(ctx: Context) -> None:
        """Collect keys per destination, send one block per node."""
        state = ctx.state
        shift = state["iteration"] * digit_bits
        offsets = state["offsets"]
        mask = radix - 1
        kept = 0
        blocks: dict = {}
        for key in state["keys"]:
            digit = (key >> shift) & mask
            pos = offsets[digit]
            offsets[digit] = pos + 1
            dest, slot = divmod(pos, kpn)
            if dest == ctx.node_id:
                state["next"][slot] = key
                kept += 1
            else:
                blocks.setdefault(dest, []).append((slot, key))
        # Per-key work plus buffer management for the blocks.
        ctx.charge(instructions=(REORDER_INSTR_PER_KEY + 2) * kpn)
        for dest in sorted(blocks):
            pairs = blocks[dest]
            ctx.nnr()
            ctx.send(dest, "WriteBlock", tuple(pairs),
                     length=1 + 2 * len(pairs))
        state["kept"] = kept
        state["reorder_done"] = True
        _maybe_complete(ctx)

    def write_data(ctx: Context, slot: int, key: int) -> None:
        state = ctx.state
        state["next"][slot] = key
        state["received"] += 1
        ctx.charge(instructions=WRITE_INSTR, cycles=WRITE_CYCLES)
        _maybe_complete(ctx)

    def write_block(ctx: Context, pairs: tuple) -> None:
        state = ctx.state
        for slot, key in pairs:
            state["next"][slot] = key
        state["received"] += len(pairs)
        ctx.charge(instructions=WRITE_INSTR * len(pairs),
                   cycles=WRITE_CYCLES * len(pairs))
        _maybe_complete(ctx)

    # ---- iteration completion: binomial reduce then broadcast -------------

    def _maybe_complete(ctx: Context) -> None:
        """Mark this node complete once every one of its kpn slots holds
        a key (its own reorder finished and all remote writes arrived)."""
        state = ctx.state
        if state.get("iter_complete") or not state["reorder_done"]:
            return
        if state["received"] < kpn - state["kept"]:
            return
        state["iter_complete"] = True
        _maybe_done_up(ctx)

    def _maybe_done_up(ctx: Context) -> None:
        """Send DoneUp once complete AND all binomial children reported."""
        state = ctx.state
        node = ctx.node_id
        if state.get("done_sent") or not state.get("iter_complete"):
            return
        if state["done_children"] < n_children[node]:
            return
        state["done_sent"] = True
        if node == 0:
            ctx.call_local("NextIter", n_nodes, length=2)
            return
        ctx.charge(instructions=6)
        ctx.send(binomial_parent(node), "DoneUp")

    def done_up_handler(ctx: Context) -> None:
        ctx.state["done_children"] += 1
        ctx.charge(instructions=6)
        _maybe_done_up(ctx)

    def next_iter(ctx: Context, span: int) -> None:
        """Binomial broadcast of the go-ahead, then start the next digit."""
        ctx.sync(PHASE_SYNC_CYCLES)  # end-of-iteration suspend/restart
        remaining = span
        while remaining > 1:
            mid = remaining // 2
            child = ctx.node_id + mid
            if child < n_nodes:
                ctx.charge(instructions=4)
                ctx.send(child, "NextIter", remaining - mid, length=2)
            remaining = mid
        _advance(ctx)

    def _advance(ctx: Context) -> None:
        state = ctx.state
        state["keys"] = state["next"]
        state["next"] = [None] * kpn
        state["received"] = 0
        state["done_children"] = 0
        state["iter_complete"] = False
        state["done_sent"] = False
        state["reorder_done"] = False
        state["kept"] = 0
        state["iteration"] += 1
        if state["iteration"] < n_digits:
            ctx.call_local("Sort", length=8)
        else:
            state["finished"] = True

    sim.register("Sort", sort_iter)
    sim.register("CombineUp", combine_up)
    sim.register("CombineDown", combine_down)
    sim.register("Reorder", reorder)
    sim.register("WriteData", write_data)
    sim.register("WriteBlock", write_block)
    sim.register("DoneUp", done_up_handler)
    sim.register("NextIter", next_iter)

    for node in range(n_nodes):
        state = sim.nodes[node].state
        state["kept"] = 0
        state["iter_complete"] = False
        state["done_sent"] = False

    def start() -> None:
        for node in range(n_nodes):
            sim.inject(node, "Sort", length=8)

    run = launch("radix_sort", sim, start)

    gathered: List[int] = []
    for node in range(n_nodes):
        state = sim.nodes[node].state
        if not state.get("finished"):
            raise ConfigurationError(f"node {node} did not finish all digits")
        gathered.extend(state["keys"])
    if gathered != sorted(keys):
        raise ConfigurationError("radix sort produced a wrong ordering")

    run.output = gathered
    run.extra.update(n_keys=params.n_keys, digits=n_digits)
    return run
