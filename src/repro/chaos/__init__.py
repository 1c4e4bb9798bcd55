"""repro.chaos — deterministic fault injection and deadlock detection.

The subsystem has three parts (see docs/ROBUSTNESS.md):

* :mod:`~repro.chaos.plan` — :class:`FaultPlan` / :class:`FaultSpec`,
  the declarative, JSON-serializable description of what to break;
* :mod:`~repro.chaos.engine` — :class:`ChaosEngine`, which attaches a
  plan to either simulation level and injects the faults;
* :mod:`~repro.chaos.watchdog` — :class:`DeadlockWatchdog` and the
  per-node :class:`NodeSnapshot` diagnostics raised inside
  :class:`~repro.core.errors.DeadlockError`.

``python -m repro.chaos replay plan.json`` re-runs a saved plan against
a reference workload and prints (optionally diffs) the injected-fault
log — the determinism contract in executable form.
"""

from .._lazy import lazy_exports

_EXPORTS = {
    ".plan": ("FAULT_KINDS", "FaultPlan", "FaultSpec"),
    ".engine": ("ChaosEngine",),
    ".watchdog": ("DeadlockWatchdog", "NodeSnapshot", "snapshot_node",
                  "machine_snapshots"),
}
__getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)
