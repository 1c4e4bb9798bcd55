"""MDP-assembly library routines: RPC probes, barrier, sync sequences."""

from .._lazy import lazy_exports

_EXPORTS = {
    ".barrier": ("BARRIER_SOURCE", "BarrierResult", "run_barrier_experiment"),
    ".reduce": ("REDUCE_SOURCE", "ReduceResult", "run_reduction"),
    ".futures": ("FutureExperimentResult", "run_future_experiment"),
    ".rpc": ("PingResult", "RPC_SOURCE", "run_ping", "run_remote_read"),
    ".sync": ("SyncCosts", "measure_sync_costs"),
}
__getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)
