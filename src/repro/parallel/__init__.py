"""Sharded parallel cycle-simulation backend.

Partitions the node grid across forked worker processes that advance in
conservative lockstep epochs while the parent process replays the flit
fabric (see epoch.py for the lookahead derivation, worker.py for the
shard executor, machine.py for the coordinator).  The backend is
engaged through ``MachineConfig.parallel_shards`` /
``JMachine.parallel_shards``; its contract is *bit-identical or
serial* — any run the protocol cannot reproduce exactly falls back to
the ordinary serial run loop on the untouched machine.
"""

from .epoch import (EpochPlan, EpochReport, busy_window, shard_ranges,
                    unsupported_reason)
from .machine import ParallelFallback, run_parallel
from .worker import EpochAbort, ShardWorker

__all__ = [
    "EpochPlan", "EpochReport", "EpochAbort", "ParallelFallback",
    "ShardWorker", "busy_window", "run_parallel", "shard_ranges",
    "unsupported_reason",
]
