"""The fault-tolerant simulation service (PR 9).

A long-running job server that executes simulation jobs — application
+ configuration + seed + fault plan — on a supervised fleet of worker
processes, built entirely from the repo's existing guarantees:

* **determinism** (same spec → same telemetry fingerprint) makes a
  sha256 content-addressed result cache *sound*: a cached result is
  indistinguishable from re-running the job
  (:mod:`~repro.service.spec`, :mod:`~repro.service.cache`);
* **checkpoint/restore** (PR 7's digest-equal resume) makes worker
  death *cheap*: a retried job resumes from its last checkpoint
  instead of restarting (:mod:`~repro.service.runner`);
* **watchdog discipline** (the no-progress window from
  :mod:`repro.chaos.watchdog`) applied at the *process* level catches
  hung workers that heartbeat liveness alone would miss
  (:mod:`~repro.service.lease`).

The paper's fault-containment argument for the J-Machine is that a
node failure must not take down the ensemble; the service applies the
same stance one level up — a worker-process failure costs one lease
and a bounded backoff, never the fleet.

Entry points: ``python -m repro.service serve`` (see
:mod:`~repro.service.__main__`) or :class:`Supervisor` +
:class:`ServiceServer` in-process.  docs/SERVICE.md has the full
design: canonicalization rules, the lease state machine, retry
budgets, cache soundness, and drain semantics.
"""

from .._lazy import lazy_exports

_EXPORTS = {
    ".spec": ("APPS", "SPEC_VERSION", "JobSpec"),
    ".cache": ("ResultCache",),
    ".queue": ("Job", "JobQueue"),
    ".lease": ("Lease", "LeaseTable"),
    ".supervisor": ("ServiceConfig", "Supervisor"),
    ".runner": ("checkpoint_path", "execute_job"),
}
__getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)
