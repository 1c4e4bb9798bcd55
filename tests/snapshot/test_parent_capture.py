"""Captures written by earlier builds still restore.

The kernel added three derived sleep slots to ``Worm`` (``wake`` /
``seen`` / ``parked``) and captures nothing new in the fabric's
``state_dict`` (``Fabric.sync`` leaves the sleep bookkeeping at rest
before every capture).  A file written by the previous build therefore
has the same fabric keys but worms that unpickle *without* those slots;
``Fabric.load_state`` defaults them to "awake".  Here such a capture is
reproduced — mid-flight, plain, probed and under an active chaos plan —
by deleting the slots from every captured worm, which is exactly the
object a parent-written pickle unpickles to; the resumed run must finish
digest-equal.  (Real parent-written files were also restored by hand:
docs/SNAPSHOT.md §1.)

A file written before the sharded backend was deleted carries three
machine keys nothing reads any more and a pickled ``MachineConfig``
whose ``__dict__`` still holds a ``parallel_shards`` entry; the second
test reproduces that payload the same way.  The backend's contract was
"bit-identical or serial", so such a run resumes exactly on the one
loop whatever shard count it recorded.

The macro engine stopped pushing a task's COMPLETE event unless a
message waits for it; the format did not change, so a parent-written
macro file holds a COMPLETE for *every* running node and marks none as
"reserved, not pushed".  The last test writes such files with the
every-completion loop the parent ran (``tests/jsim/reference_engine``)
and resumes them on the engine.
"""

import pytest

from repro.chaos import FaultSpec
from repro.snapshot import CheckpointPolicy, read_snapshot, restore_machine

from .test_cycle_resume import _build, _digest

SLEEP_SLOTS = ("wake", "seen", "parked")

CHAOS_SPECS = (FaultSpec(kind="drop", rate=0.3),
               FaultSpec(kind="corrupt", rate=0.2))


def _machine(specs, probe):
    machine = _build(specs=specs)
    if probe:
        machine.fabric.attach_probe()
    return machine


def _finish(machine):
    machine.run(max_cycles=20_000)
    probe = machine.fabric.probe
    return _digest(machine), probe.to_dict() if probe is not None else None


def _midflight(tmp_path, specs, probe):
    """(digest of the uninterrupted run, a mid-flight capture of it)."""
    reference = _finish(_machine(specs, probe))
    machine = _machine(specs, probe)
    # The loop top first meets worms in the mesh at cycle 27 (earlier
    # windows go through one Fabric.advance call).
    machine.checkpoint = CheckpointPolicy(
        str(tmp_path / "old-{cycle}.ckpt"), every=27)
    machine.run(max_cycles=20_000)
    first = min(tmp_path.iterdir(),
                key=lambda p: int(p.stem.split("-")[1]))
    _header, payload = read_snapshot(str(first))
    assert payload["fabric"]["active"], "capture is not mid-flight"
    return reference, payload


def _resumes_equal(payload, reference):
    resumed = restore_machine(payload)
    assert resumed.fabric.worms_in_flight > 0
    assert _finish(resumed) == reference
    return resumed


@pytest.mark.parametrize("specs, probe", [
    ((), False), ((), True), (CHAOS_SPECS, False),
], ids=["plain", "probed", "chaos"])
def test_capture_without_sleep_slots_restores(tmp_path, specs, probe):
    reference, payload = _midflight(tmp_path, specs, probe)
    fabric = payload["fabric"]
    worms = (fabric["active"]
             + [w for queue in fabric["pending"].values() for w in queue]
             + [entry[2] for entry in fabric["staged"]])
    for worm in worms:
        for slot in SLEEP_SLOTS:
            delattr(worm, slot)
    _resumes_equal(payload, reference)


#: What ``capture_machine`` wrote for the deleted sharded backend.
RETIRED_MACHINE_KEYS = {"parallel_shards": 2, "parallel_skip_reason": None,
                        "parallel_skips": 0}


@pytest.mark.parametrize("specs", [(), CHAOS_SPECS], ids=["plain", "chaos"])
def test_capture_with_retired_backend_keys_restores(tmp_path, specs):
    reference, payload = _midflight(tmp_path, specs, probe=False)
    assert not RETIRED_MACHINE_KEYS.keys() & payload.keys()
    payload.update(RETIRED_MACHINE_KEYS)
    # A dataclass unpickles by ``__dict__.update``: the dropped field
    # comes back as a stray instance attribute.
    payload["config"].__dict__["parallel_shards"] = 2
    resumed = _resumes_equal(payload, reference)
    assert not hasattr(resumed, "parallel_shards")


# ------------------------------------------------------------- macro level


@pytest.mark.parametrize("faulty", [False, True], ids=["plain", "chaos"])
def test_macro_capture_with_every_completion_restores(tmp_path, monkeypatch,
                                                      faulty):
    from repro.apps import lcs
    from repro.jsim.sim import MacroSimulator
    from repro.telemetry import Telemetry
    from tests.jsim.reference_engine import ReferenceSimulator

    from .test_macro_resume import N_NODES, PARAMS, _chaos, _digest

    def run(**kwargs):
        telemetry = Telemetry()
        if faulty:
            kwargs.update(chaos=_chaos(), reliable=True)
        result = lcs.run_parallel(N_NODES, PARAMS, telemetry=telemetry,
                                  **kwargs)
        return _digest(result, telemetry)

    want = run()
    monkeypatch.setattr(lcs, "MacroSimulator", ReferenceSimulator)
    policy = CheckpointPolicy(str(tmp_path / "old-{cycle}.ckpt"),
                              every=want["cycles"] // 3)
    assert run(checkpoint=policy) == want     # the oracle is the parent
    monkeypatch.setattr(lcs, "MacroSimulator", MacroSimulator)

    files = sorted(tmp_path.iterdir(),
                   key=lambda p: int(p.stem.split("-")[1]))
    assert len(files) >= 2
    mid_task = 0
    for path in files:
        _header, payload = read_snapshot(str(path))
        running = [i for i, node in enumerate(payload["nodes"])
                   if node["running"]]
        mid_task += len(running)
        assert sorted(event[3] for event in payload["events"]
                      if event[2] == MacroSimulator._COMPLETE) == running
        assert run(restore_from=str(path)) == want
    assert mid_task, "no capture caught a task running"
