"""Conservative epoch synchronization for the sharded parallel backend.

The parallel backend partitions the node grid across worker processes
that advance in lockstep *epochs*: windows of virtual time ``[T, T+W)``
inside which no worker can observe anything another worker (or the
fabric, simulated by the parent) does.  The window is the classic
conservative-parallel-simulation *lookahead*, derived here from the
fabric's pipeline latencies rather than guessed:

**Busy window** — worms in flight.  A delivery *commits* (becomes
visible to a processor) ``eject_latency`` cycles after the worm's last
phit is absorbed, and the parent simulates the fabric for ``[T, T+W)``
only *after* the workers have finished that epoch.  Any completion the
parent discovers at cycle ``c >= T`` therefore commits at
``c + eject_latency >= T + eject_latency``: with ``W <= eject_latency``
every commit decided in epoch *e* lands in epoch *e+1* or later, where
it can still be put into a worker's plan.  So ``W_busy = eject_latency``.

**Idle window** — fabric empty at ``T``.  The only deliveries that can
appear are caused by sends issued *inside* the epoch, and none of those
commits before ``T + Fabric.delivery_window()`` (interface pipeline +
shortest worm + ejection pipeline: 11 cycles at the calibrated
defaults, vs. 5 busy; the derivation lives with the fabric).

Everything else that crosses the epoch barrier — sends (with their
cycle-exact submit times), delivery schedules, send-buffer release
notices, queue headroom for the parent's conservative accept checks —
rides in the :class:`EpochPlan` / :class:`EpochReport` records below.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

__all__ = [
    "EpochPlan", "EpochReport", "FinalState", "busy_window", "shard_ranges",
    "unsupported_reason",
]


def busy_window(eject_latency: int) -> int:
    """Lookahead while worms are in flight: one ejection pipeline."""
    return max(1, eject_latency)


def shard_ranges(n_nodes: int, shards: int) -> List[range]:
    """Partition ``range(n_nodes)`` into ``shards`` contiguous blocks."""
    shards = max(1, min(shards, n_nodes))
    bounds = [n_nodes * s // shards for s in range(shards + 1)]
    return [range(bounds[s], bounds[s + 1]) for s in range(shards)]


@dataclass
class EpochPlan:
    """Parent -> worker: everything a shard may observe in ``[start, end)``.

    ``deliveries`` are the commits the parent's fabric pass already
    decided, as ``(arrival_cycle, node_id, message)`` in the serial
    commit order.  ``finishes`` are send-buffer releases
    (``injection_finished``) as ``(node_id, freed_words)``; they are
    applied retroactively at the epoch start, which is always
    *conservative* — a worker may briefly believe a buffer is fuller
    than it really is, never emptier (see the dirty rule in worker.py).
    """

    start: int
    end: int
    limit: int
    deliveries: List[Tuple[int, int, object]] = field(default_factory=list)
    finishes: List[Tuple[int, int]] = field(default_factory=list)


@dataclass
class EpochReport:
    """Worker -> parent: what a shard did in one epoch.

    ``sends`` carry the cycle-exact virtual submit time of every SEND
    retired in the epoch; the parent replays them into its fabric.
    ``free_words`` is each owned node's per-priority queue headroom *at
    the epoch end* — the parent's worst-case accept checks for the next
    epoch start from it.  ``instructions`` and ``deliveries_committed``
    feed the deadlock watchdog's progress signature.
    """

    sends: List[Tuple[int, int, object]] = field(default_factory=list)
    free_words: Dict[int, Tuple[int, int]] = field(default_factory=dict)
    next_wake: Optional[int] = None
    last_activity: Optional[int] = None
    instructions: int = 0
    deliveries_committed: int = 0
    dirty: Optional[str] = None


@dataclass
class FinalState:
    """Worker -> parent at run end: the shard's architectural state.

    ``nodes`` maps node id to ``(proc_state, outstanding_words,
    building, next_tick)`` where ``proc_state`` is the processor's
    ``__dict__`` minus the parent-owned attachments (network interface,
    event bus, code store, decoded-block cache — see worker.py).
    """

    nodes: Dict[int, tuple] = field(default_factory=dict)
    heap_entries: List[Tuple[int, int]] = field(default_factory=list)
    events: List[tuple] = field(default_factory=list)
    chaos_counters: Dict[str, int] = field(default_factory=dict)
    chaos_log: List[tuple] = field(default_factory=list)
    chaos_kills: set = field(default_factory=set)
    chaos_stalls: set = field(default_factory=set)


def unsupported_reason(machine, shards: int) -> Optional[str]:
    """Why this run must stay serial, or None if it can go parallel.

    The contract is *bit-identical or serial*: any feature whose exact
    interleaving the epoch protocol cannot reproduce refuses up front
    and the caller falls back to the ordinary run loop.
    """
    if shards < 2:
        return "fewer than 2 shards requested"
    if machine.mesh.n_nodes < 2:
        return "single-node machine"
    if machine.config.flow_control != "block":
        return "return-to-sender flow control is serial-only"
    if machine.config.eject_latency < 1:
        return "eject latency below 1 leaves no lookahead"
    if machine._trace_state is not None:
        return "causal tracing orders events across shards"
    fabric = machine.fabric
    if fabric._active or fabric._pending_count:
        return "worms already in the mesh at run start"
    chaos = machine.chaos
    if chaos is not None:
        if chaos.plan.by_kind("queue"):
            return "queue-pressure faults mutate queues on a cycle schedule"
        if chaos.plan.by_kind("poison"):
            return "AMT poisoning draws from a shared RNG stream"
    try:
        import multiprocessing

        if "fork" not in multiprocessing.get_all_start_methods():
            return "fork start method unavailable"
    except ImportError:  # pragma: no cover - stdlib always present
        return "multiprocessing unavailable"
    return None
