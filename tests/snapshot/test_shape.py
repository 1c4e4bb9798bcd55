"""A capture's shape is pinned to the format version that writes it.

A build reads only the snapshot files of its own ``FORMAT_VERSION``
(docs/SNAPSHOT.md §1), so the simulator classes carry no conversion for
older captures.  That holds only if every change to what a capture holds
bumps the version.  This test enforces it: it walks two representative
payloads — a mid-flight cycle-level machine under chaos, with the fabric
probe attached and telemetry and tracing on, and a macro-level LCS run
with a ``ReliableLayer`` — and compares their shape with the one pinned
in ``capture_shape.json`` for the current version.

The shape maps each place in the payload to the types found there.  A
place is a path of dict keys (``cycle.fabric.stats``), ``[]`` for the
items of a sequence or set and ``{k}`` / ``{v}`` for the keys and values
of a dict that is not keyed by names; an instance of a class starts a
path of its own, so ``repro.network.fabric.Worm.keys`` is a place
wherever a worm is found.  Adding, removing or renaming a captured
attribute, slot or state key, or changing the type a field holds,
changes the shape.

After such a change, bump ``FORMAT_VERSION`` in
``src/repro/snapshot/format.py``, then re-pin::

    PYTHONPATH=src python -m tests.snapshot.test_shape

which refuses to pin a changed shape under a version already pinned.
"""

from __future__ import annotations

import enum
import json
import os
import tempfile
from collections import deque
from typing import Any, Dict, List, Set

from repro.apps.lcs import LcsParams, run_parallel
from repro.asm.assembler import assemble
from repro.chaos import ChaosEngine, DeadlockWatchdog, FaultPlan, FaultSpec
from repro.core.registers import Priority
from repro.core.word import Word
from repro.machine.config import MachineConfig
from repro.machine.jmachine import JMachine
from repro.snapshot import CheckpointPolicy, read_snapshot
from repro.snapshot.format import FORMAT_VERSION
from repro.telemetry import Telemetry

from .test_cycle_resume import ECHO

PIN = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                   "capture_shape.json")

CYCLE_SPECS = (FaultSpec(kind="drop", rate=0.3),
               FaultSpec(kind="corrupt", rate=0.2),
               FaultSpec(kind="stall", node=2, start=30, duration=40))

_LEAVES = (bool, int, float, complex, str, bytes, type(None), enum.Enum)


def _type_name(obj) -> str:
    cls = type(obj)
    if cls.__module__ == "builtins":
        return cls.__qualname__
    return f"{cls.__module__}.{cls.__qualname__}"


def _fields(obj) -> Dict[str, Any]:
    """An instance's attributes: its ``__dict__`` and every set slot."""
    out = dict(getattr(obj, "__dict__", {}))
    for cls in type(obj).__mro__:
        slots = cls.__dict__.get("__slots__", ())
        for name in (slots,) if isinstance(slots, str) else slots:
            if name not in ("__dict__", "__weakref__") and hasattr(obj, name):
                out[name] = getattr(obj, name)
    return out


def capture_shape(payload, root: str) -> Dict[str, str]:
    """Place -> the sorted names of the types found there, for everything
    reachable from ``payload``."""
    shape: Dict[str, Set[str]] = {}
    seen: Set[tuple] = set()
    stack = [(payload, root)]
    while stack:
        obj, place = stack.pop()
        shape.setdefault(place, set()).add(_type_name(obj))
        if isinstance(obj, _LEAVES) or (id(obj), place) in seen:
            continue
        seen.add((id(obj), place))
        if isinstance(obj, dict):
            if obj and all(isinstance(key, str) for key in obj):
                stack.extend((value, f"{place}.{key}")
                             for key, value in obj.items())
            else:
                stack.extend((key, place + "{k}") for key in obj)
                stack.extend((value, place + "{v}") for value in obj.values())
        elif isinstance(obj, (list, tuple, deque, set, frozenset)):
            stack.extend((item, place + "[]") for item in obj)
        else:
            name = _type_name(obj)
            stack.extend((value, f"{name}.{attr}")
                         for attr, value in _fields(obj).items())
    return {place: " ".join(sorted(types))
            for place, types in sorted(shape.items())}


def _first_payload(directory: str):
    first = min(os.listdir(directory),
                key=lambda name: int(name.split("-")[1].split(".")[0]))
    return read_snapshot(os.path.join(directory, first))[1]


def cycle_payload(directory: str):
    """A mid-flight capture of the echo machine under chaos, probed, with
    telemetry, tracing and a deadlock watchdog on."""
    machine = JMachine(MachineConfig(dims=(4, 2, 1)),
                       telemetry=Telemetry(trace=True))
    program = assemble(ECHO)
    machine.load(program)
    base = program.end + 4
    for node in machine.nodes:
        node.proc.registers[Priority.P0].write("A0", Word.segment(base, 4))
    ChaosEngine(FaultPlan(seed=3, specs=CYCLE_SPECS)).attach_machine(machine)
    machine.watchdog = DeadlockWatchdog(window=5_000)
    machine.fabric.attach_probe()
    for i in range(8):
        machine.inject(i, program.entry("echo"),
                       [Word.from_int((i + 3) % 8), Word.from_int(100 + i)],
                       source=(i + 1) % 8)
    # The loop top first meets worms in the mesh at cycle 27.
    machine.checkpoint = CheckpointPolicy(
        os.path.join(directory, "cycle-{cycle}.ckpt"), every=27)
    machine.run(max_cycles=20_000)
    payload = _first_payload(directory)
    assert payload["fabric"]["active"], "the capture is not mid-flight"
    return payload


def macro_payload(directory: str):
    """A mid-run capture of LCS on 8 nodes under a drop plan, with the
    retransmitting transport and telemetry and tracing on."""
    chaos = ChaosEngine(FaultPlan(seed=5, specs=(
        FaultSpec(kind="drop", rate=0.05),)))
    policy = CheckpointPolicy(os.path.join(directory, "macro-{cycle}.ckpt"),
                              every=20_000)
    run_parallel(8, LcsParams(a_len=32, b_len=128),
                 telemetry=Telemetry(trace=True), chaos=chaos,
                 reliable=True, checkpoint=policy)
    assert policy.saves >= 2
    payload = _first_payload(directory)
    assert payload["reliable"]["pending"], "no send awaits its ack"
    return payload


def current_shape() -> Dict[str, Dict[str, str]]:
    shape = {}
    for level, payload in (("cycle", cycle_payload),
                           ("macro", macro_payload)):
        with tempfile.TemporaryDirectory() as directory:
            shape[level] = capture_shape(payload(directory), level)
    return shape


def _read_pin() -> Dict[str, Any]:
    with open(PIN) as fh:
        return json.load(fh)


def _changes(pinned, current) -> List[str]:
    lines = []
    for level in sorted(set(pinned) | set(current)):
        old, new = pinned.get(level, {}), current.get(level, {})
        for place in sorted(set(old) | set(new)):
            if old.get(place) != new.get(place):
                lines.append(f"  {place}: {old.get(place, '(absent)')} -> "
                             f"{new.get(place, '(absent)')}")
    return lines


def test_the_capture_shape_is_the_pinned_one():
    pin = _read_pin()
    changes = _changes(pin["shape"], current_shape())
    assert not changes, (
        "what a capture holds changed:\n" + "\n".join(changes[:40])
        + "\nA build reads only its own format version's files, so bump "
        "FORMAT_VERSION in src/repro/snapshot/format.py and re-pin with "
        "`PYTHONPATH=src python -m tests.snapshot.test_shape`")


def test_the_pin_is_the_current_version():
    assert _read_pin()["version"] == FORMAT_VERSION, (
        "capture_shape.json was pinned for another FORMAT_VERSION; re-pin "
        "with `PYTHONPATH=src python -m tests.snapshot.test_shape`")


def _repin() -> None:
    shape = current_shape()
    if os.path.exists(PIN):
        pin = _read_pin()
        if pin["shape"] != shape and pin["version"] >= FORMAT_VERSION:
            raise SystemExit(
                f"the capture shape changed but FORMAT_VERSION is still "
                f"{FORMAT_VERSION} (pinned: {pin['version']}); bump it in "
                "src/repro/snapshot/format.py first")
    with open(PIN, "w") as fh:
        json.dump({"version": FORMAT_VERSION, "shape": shape}, fh,
                  indent=1)
        fh.write("\n")
    print(f"pinned the capture shape of format version {FORMAT_VERSION} "
          f"to {PIN}")


if __name__ == "__main__":
    _repin()
