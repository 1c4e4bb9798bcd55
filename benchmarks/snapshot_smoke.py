"""Checkpoint/restore smoke: kill a run mid-flight, resume, same digest.

The ``make snapshot-smoke`` entry point (chained into ``make check``).
For both simulation levels it

* runs a scenario in a subprocess with a checkpoint policy whose first
  save *kills the process* (``os._exit``) — a real crash, not a polite
  return: nothing after the save survives;
* resumes from the orphaned checkpoint file in a second fresh process;
* asserts the resumed run's sha256 telemetry event-stream digest equals
  an uninterrupted run's (the determinism contract of docs/SNAPSHOT.md).

Scenarios: the systolic LCS app on 16 macro nodes, and the RPC ping on
a 16-node cycle-level machine.

It also measures checkpoint save/restore latency and payload size, and
appends them to the committed trajectory artifact
``BENCH_snapshot.json`` (one entry per run, oldest first) via
``append_trajectory.merge``.

Usage::

    PYTHONPATH=src python benchmarks/snapshot_smoke.py --smoke
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
sys.path.insert(0, SRC)

from repro.snapshot import CheckpointPolicy  # noqa: E402
from repro.telemetry import Telemetry  # noqa: E402

#: The "crash" exit status the kill-phase subprocess must die with.
KILLED = 7

LCS_NODES = 16
PING_NODES = 16
PING_ITERATIONS = 50


class _KillAfterFirstSave(CheckpointPolicy):
    """A checkpoint policy that crashes the process after its first
    save, recording the save's wall-clock cost in a side file first."""

    def __init__(self, path: str, every: int, side_path: str) -> None:
        super().__init__(path, every=every)
        self.side_path = side_path

    def save(self, target, run_limit=None, at=None):
        t0 = time.perf_counter()
        path = super().save(target, run_limit=run_limit, at=at)
        save_s = time.perf_counter() - t0
        with open(self.side_path, "w", encoding="utf-8") as handle:
            json.dump({"save_s": save_s, "path": path,
                       "bytes": os.path.getsize(path)}, handle)
        os._exit(KILLED)


# ------------------------------------------------------------- scenarios


def _run_macro(checkpoint=None, restore_from=None):
    """Returns (final cycle, digest, restore seconds or None)."""
    from repro.apps.lcs import run_parallel
    from repro.jsim.sim import MacroSimulator

    telemetry = Telemetry()
    timing = {}
    if restore_from is not None:
        # The restore happens inside run_parallel (macro snapshots load
        # *into* the prepared app); time just that step.
        original = MacroSimulator.restore_state

        def timed(self, path):
            t0 = time.perf_counter()
            out = original(self, path)
            timing["restore_s"] = time.perf_counter() - t0
            return out

        MacroSimulator.restore_state = timed
    try:
        result = run_parallel(LCS_NODES, telemetry=telemetry,
                              checkpoint=checkpoint,
                              restore_from=restore_from)
    finally:
        if restore_from is not None:
            MacroSimulator.restore_state = original
    return (result.cycles, telemetry.events.fingerprint(),
            timing.get("restore_s"))


def _run_cycle(checkpoint=None, restore_from=None):
    """Returns (final cycle, digest, restore seconds or None)."""
    from repro.machine.jmachine import JMachine
    from repro.runtime.rpc import run_ping

    restore_s = None
    if restore_from is not None:
        t0 = time.perf_counter()
        machine = JMachine.restore(restore_from)
        restore_s = time.perf_counter() - t0
        machine.run_until_quiescent()
    else:
        machine = JMachine.build(PING_NODES, telemetry=Telemetry())
        machine.checkpoint = checkpoint
        run_ping(machine, 0, PING_NODES - 1, iterations=PING_ITERATIONS,
                 stop="quiescent")
    return (machine.now, machine.telemetry.events.fingerprint(),
            restore_s)


_SCENARIOS = {
    # kind -> (runner, checkpoint interval in simulated cycles)
    "macro": (_run_macro, 2_000_000),
    "cycle": (_run_cycle, 1_000),
}


def _phase_kill(kind: str, ckpt: str, side: str) -> int:
    runner, every = _SCENARIOS[kind]
    runner(checkpoint=_KillAfterFirstSave(ckpt, every, side))
    print(f"{kind}: ran to completion without saving", file=sys.stderr)
    return 1  # the save should have killed us


def _phase_resume(kind: str, ckpt: str) -> int:
    runner, _ = _SCENARIOS[kind]
    final, digest, restore_s = runner(restore_from=ckpt)
    print(json.dumps({"final": final, "digest": digest,
                      "restore_s": restore_s}))
    return 0


# ----------------------------------------------------------- orchestration


def _child(args):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, os.path.abspath(__file__)] + args,
        capture_output=True, text=True, env=env)


def _smoke_kind(kind: str, workdir: str) -> dict:
    runner, _ = _SCENARIOS[kind]
    ckpt = os.path.join(workdir, f"{kind}.ckpt")
    side = os.path.join(workdir, f"{kind}_save.json")

    final, want, _ = runner()  # uninterrupted reference, in-process

    killed = _child(["--phase", "kill", "--kind", kind,
                     "--ckpt", ckpt, "--side", side])
    assert killed.returncode == KILLED, (
        f"{kind}: kill phase exited {killed.returncode}, expected {KILLED}"
        f"\n{killed.stderr}")
    assert os.path.exists(ckpt), f"{kind}: no checkpoint file written"
    with open(side, "r", encoding="utf-8") as handle:
        save_info = json.load(handle)

    resumed = _child(["--phase", "resume", "--kind", kind, "--ckpt", ckpt])
    assert resumed.returncode == 0, (
        f"{kind}: resume phase failed\n{resumed.stderr}")
    out = json.loads(resumed.stdout)
    assert out["digest"] == want, (
        f"{kind}: resumed digest {out['digest'][:16]} != "
        f"uninterrupted {want[:16]} — resume is not bit-identical")
    assert out["final"] == final, (
        f"{kind}: resumed final cycle {out['final']} != {final}")
    print(f"snapshot-smoke: {kind} OK — killed at first save, resumed to "
          f"t={final}, digest {want[:12]} (save {save_info['save_s']:.3f}s, "
          f"restore {out['restore_s']:.3f}s, "
          f"{save_info['bytes'] / 1e6:.1f} MB)")
    return {"save_s": save_info["save_s"], "restore_s": out["restore_s"],
            "bytes": save_info["bytes"]}


def _commit_info() -> dict:
    def git(*args):
        try:
            return subprocess.run(["git"] + list(args), capture_output=True,
                                  text=True, cwd=os.path.dirname(SRC)
                                  ).stdout.strip()
        except OSError:
            return ""

    return {"id": git("rev-parse", "HEAD") or None,
            "dirty": bool(git("status", "--porcelain"))}


def _record(results: dict) -> None:
    root = os.path.dirname(SRC)
    run_path = os.path.join(root, "BENCH_snapshot_run.json")
    dest_path = os.path.join(root, "BENCH_snapshot.json")
    payload = {
        "datetime": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "commit_info": _commit_info(),
        "snapshot": results,
    }
    with open(run_path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=4)
        handle.write("\n")
    sys.path.insert(0, os.path.join(root, "benchmarks"))
    from append_trajectory import merge

    # Smoke runs happen on PR branches; a dirty tree is expected and the
    # entry is flagged rather than refused.
    merge(run_path, dest_path, allow_dirty=True)
    os.remove(run_path)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--smoke", action="store_true",
                        help="assert the kill/resume contract (make "
                             "snapshot-smoke); currently the only mode")
    parser.add_argument("--phase", choices=("kill", "resume"),
                        help="internal: subprocess role")
    parser.add_argument("--kind", choices=tuple(_SCENARIOS))
    parser.add_argument("--ckpt")
    parser.add_argument("--side")
    args = parser.parse_args(argv)

    if args.phase == "kill":
        return _phase_kill(args.kind, args.ckpt, args.side)
    if args.phase == "resume":
        return _phase_resume(args.kind, args.ckpt)

    import tempfile

    with tempfile.TemporaryDirectory(prefix="snapshot-smoke-") as workdir:
        results = {kind: _smoke_kind(kind, workdir) for kind in _SCENARIOS}
    _record(results)
    print("snapshot-smoke: PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
