"""Execute one :class:`~repro.service.spec.JobSpec` — the worker's core.

Shared between the worker process and tests (which call it in-process
to compute undisturbed reference results the recovery assertions
compare against).  The contract:

* **Deterministic.**  The result carries the sha256 telemetry
  event-stream fingerprint; the same spec always produces the same
  fingerprint — that is what makes the content-addressed cache sound.
* **Resumable.**  When a checkpoint file for the job exists (a previous
  attempt died mid-run), execution resumes from it instead of starting
  cold, and the resumed stream is digest-equal to an undisturbed run
  (PR 7's restore contract).  ``resumed_from`` in the result records
  the checkpoint's capture cycle so callers can verify a retry
  actually replayed less than the whole run.  A checkpoint this build
  cannot read — corrupt, or written by another snapshot format
  version — is deleted and the job runs cold (``resumed_from`` 0):
  the same file would otherwise fail every resubmission of the spec.
* **Self-cleaning.**  A successful run deletes its checkpoint; arming
  the checkpoint policy sweeps any ``*.tmp.<pid>`` orphans a killed
  writer left for this job's path.
"""

from __future__ import annotations

import os
from typing import Any, Dict, Optional

from ..core.errors import SnapshotError
from ..snapshot.format import read_snapshot
from .spec import JobSpec

__all__ = ["execute_job", "checkpoint_path"]


def checkpoint_path(workdir: str, digest: str) -> str:
    """Where a job's (single, overwrite-in-place) checkpoint lives."""
    return os.path.join(workdir, "ckpt", f"{digest}.ckpt")


def _resume_point(ckpt: Optional[str]) -> Optional[int]:
    """The capture cycle of an existing checkpoint this build can read,
    else None; an unreadable one is deleted."""
    if ckpt is None or not os.path.exists(ckpt):
        return None
    try:
        header, _ = read_snapshot(ckpt)
    except SnapshotError:
        os.unlink(ckpt)
        return None
    return int(header["meta"]["now"])


def execute_job(spec: JobSpec, ckpt_path: Optional[str] = None,
                sampler=None) -> Dict[str, Any]:
    """Run ``spec`` to completion; returns the (cacheable) result dict.

    ``ckpt_path`` enables periodic checkpoints there and resumption
    from it when it already exists.  ``sampler`` is an optional
    :class:`~repro.telemetry.live.LiveSampler` for in-run heartbeat
    frames (read-only; never changes the result).
    """
    # The simulators load here, not with the module: the supervisor
    # imports this one for checkpoint_path alone.
    from ..apps.scenario import run_scenario
    from ..chaos import ChaosEngine, FaultPlan
    from ..snapshot import CheckpointPolicy
    from ..telemetry import Telemetry

    resumed_from = _resume_point(ckpt_path)
    policy = None
    if ckpt_path is not None:
        os.makedirs(os.path.dirname(ckpt_path), exist_ok=True)
        policy = CheckpointPolicy(ckpt_path, every=spec.checkpoint_every,
                                  meta={"job": spec.digest})
    chaos = None
    if spec.plan is not None:
        chaos = ChaosEngine(FaultPlan.from_dict(spec.plan))
    run = run_scenario(
        spec.app, spec.n_nodes, spec.params, telemetry=Telemetry(),
        chaos=chaos, reliable=spec.reliable, checkpoint=policy,
        restore_from=ckpt_path if resumed_from is not None else None,
        sampler=sampler)
    events = run.target.telemetry.events
    result: Dict[str, Any] = {
        "cycles": run.cycles,
        "output": run.output,
        "fingerprint": events.fingerprint(),
        "n_events": len(events),
        "digest": spec.digest,
        "app": spec.app,
        "n_nodes": spec.n_nodes,
        "resumed_from": resumed_from or 0,
        "checkpoint_saves": policy.saves if policy is not None else 0,
    }
    if "reliable" in run.extra:
        result["reliable"] = run.extra["reliable"]
    if chaos is not None:
        result["chaos"] = chaos.summary()
    if ckpt_path is not None and os.path.exists(ckpt_path):
        # The job is done; its recovery point is garbage now.
        os.unlink(ckpt_path)
    return result
