"""Shared helpers for the test suite."""

from __future__ import annotations

import collections
import enum
import json
from typing import Optional, Tuple

from repro.asm.assembler import Program, assemble
from repro.core.costs import DEFAULT_COSTS, CostModel
from repro.core.faults import FaultPolicy
from repro.core.memory import NIL, NodeMemory
from repro.core.processor import Mdp
from repro.core.registers import Priority
from repro.core.word import Word
from repro.snapshot.state import capture_machine

__all__ = ["run_background", "load_processor", "machine_state",
           "assert_same_state", "relabel_snapshot"]


def load_processor(
    source: str,
    fault_policy: Optional[FaultPolicy] = None,
    costs: CostModel = DEFAULT_COSTS,
) -> Tuple[Mdp, Program]:
    """Assemble ``source`` and load it into a fresh bare processor."""
    proc = Mdp(node_id=0, costs=costs, fault_policy=fault_policy)
    program = assemble(source)
    program.load(proc)
    return proc, program


def run_background(
    proc: Mdp,
    entry: int,
    max_cycles: int = 100_000,
) -> int:
    """Run the background thread until HALT/idle; return elapsed cycles.

    Also drives any message threads that become runnable (e.g. after a
    host-injected delivery), since `tick` schedules by priority.
    """
    proc.set_background(entry)
    now = 0
    while not proc.halted and now < max_cycles:
        nxt = proc.tick(now)
        if nxt is None:
            break
        now = nxt
    return now


def globals_segment(proc: Mdp, program: Program, words: int = 16,
                    priority: Priority = Priority.BACKGROUND) -> int:
    """Reserve a globals segment after the program; point A0 at it."""
    base = program.end + 4
    proc.registers[priority].write("A0", Word.segment(base, words))
    return base


#: Scratch the two execution paths leave differently and neither reads
#: before writing it (per-instruction vs per-block bookkeeping, the
#: cached ``Instr.text``), plus the switch itself; and the queue frees a
#: block made ahead of the clock (``MessageQueue.pending_frees``), which
#: the interpreter never makes and which change nothing once the network
#: reaches their cycle.
VOLATILE = frozenset({"_woke", "_event_time", "_current_instr_addr",
                      "_active_priority", "fast_path", "_text",
                      "pending_frees"})


def _canon(obj):
    """``obj`` as plain nested data, comparable with ``==``."""
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, Word):
        return (obj.tag.name, obj.value)
    if isinstance(obj, enum.Enum):
        return obj.name
    if isinstance(obj, NodeMemory):
        # Every held cell by address; a stored NIL reads as an absent one.
        return (_canon(obj.meter), obj.imem_words, obj.total_words,
                sorted((address, _canon(word))
                       for address, word in obj._cells.items()
                       if word != NIL))
    if isinstance(obj, dict):
        return sorted(((repr(_canon(k)), _canon(v)) for k, v in obj.items()
                       if k not in VOLATILE), key=lambda kv: kv[0])
    if isinstance(obj, (list, tuple, collections.deque)):
        return [_canon(item) for item in obj]
    if isinstance(obj, (set, frozenset)):
        return sorted(repr(_canon(item)) for item in obj)
    fields = dict(getattr(obj, "__dict__", {}))
    for klass in type(obj).__mro__:
        for name in getattr(klass, "__slots__", ()):
            if hasattr(obj, name):
                fields[name] = getattr(obj, name)
    if fields:
        return (type(obj).__name__, _canon(fields))
    # A stateless object (the runtime fault policy) is its type: the
    # default repr would compare addresses.
    return (type(obj).__name__ if type(obj).__repr__ is object.__repr__
            else repr(obj))


def machine_state(machine, returned=None):
    """Everything a fast-vs-reference or resume contract compares —
    the ``capture_machine`` tree, ``fabric.stats``, every ``next_tick``
    and the run's return value — as plain data."""
    tree = capture_machine(machine)
    del tree["config"]  # holds the fast_path switch
    # A heap's array layout is its push history (host order); its pop
    # order — the sorted entries — is the state.
    tree["proc_heap"] = sorted(tree["proc_heap"])
    return _canon({"returned": returned, "tree": tree,
                  "stats": machine.fabric.stats,
                  "next_tick": [node.next_tick for node in machine.nodes]})


def assert_same_state(fast, slow):
    if fast != slow:  # name the first differing top-level part
        for (name, a), (_, b) in zip(fast, slow):
            assert a == b, name
    assert fast == slow


def relabel_snapshot(path: str, version: int) -> None:
    """Rewrite the snapshot file at ``path`` as format ``version`` wrote
    it: the magic line and the header's ``version``, payload unchanged."""
    with open(path, "rb") as fh:
        fh.readline()
        header = json.loads(fh.readline())
        blob = fh.read()
    header["version"] = version
    with open(path, "wb") as fh:
        fh.write(b"#repro-snapshot %d\n" % version)
        fh.write(json.dumps(header, sort_keys=True).encode("utf-8") + b"\n")
        fh.write(blob)
