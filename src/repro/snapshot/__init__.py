"""Checkpoint/restore and deterministic time-travel replay.

The subsystem has four layers:

* :mod:`~repro.snapshot.format` — the versioned, self-describing file
  format (magic line, JSON header, sha256-verified pickle payload);
* :mod:`~repro.snapshot.state` — the capture/restore contracts for both
  simulation levels, composed from each subsystem's own
  ``state_dict``/``load_state`` pair, and the save/load functions that
  pair a capture with a file;
* :mod:`~repro.snapshot.policy` — :class:`CheckpointPolicy`, the
  periodic auto-save driver the run loops consult;
* :mod:`~repro.snapshot.bisect` — time-travel debugging: replay from a
  checkpoint and binary-search to the first stalled cycle of a deadlock.

Front doors::

    machine.checkpoint = CheckpointPolicy("run.ckpt", every=50_000)
    machine.run(...)                        # periodic saves, both backends
    resumed = JMachine.restore("run.ckpt")  # fresh process, bit-identical

    sim.save("macro.ckpt", run_limit=None)  # macro level: restore-into
    ... same app setup on a fresh sim ...
    sim.restore_state("macro.ckpt")

    python -m repro.snapshot info run.ckpt  # CLI: info/save/resume/diff/bisect

Resume is *bit-identical*: the restored run produces the same final
state and the same sha256 telemetry event-stream digest as the
uninterrupted run — the determinism contract of docs/SNAPSHOT.md,
enforced by tests/snapshot/.
"""

from .._lazy import lazy_exports

_EXPORTS = {
    "..core.errors": ("SnapshotError",),
    ".format": ("FORMAT_VERSION", "MAGIC", "read_header", "read_snapshot",
                "write_snapshot", "sweep_stale_tmp"),
    ".state": ("capture_machine", "restore_machine", "capture_macro",
               "restore_macro", "save_machine", "load_machine", "save_macro",
               "restore_macro_into"),
    ".policy": ("CheckpointPolicy",),
    ".bisect": ("BisectResult", "bisect_deadlock"),
}
__getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)
