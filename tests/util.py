"""Shared helpers for the test suite."""

from __future__ import annotations

import collections
import enum
from typing import Optional, Tuple

from repro.asm.assembler import Program, assemble
from repro.core.faults import FaultPolicy
from repro.core.memory import NIL, NodeMemory
from repro.core.processor import Mdp
from repro.core.registers import Priority
from repro.core.word import Word
from repro.snapshot.state import capture_machine

__all__ = ["run_background", "load_processor", "machine_state",
           "assert_same_state"]


def load_processor(
    source: str,
    fault_policy: Optional[FaultPolicy] = None,
) -> Tuple[Mdp, Program]:
    """Assemble ``source`` and load it into a fresh bare processor."""
    kwargs = {} if fault_policy is None else {"fault_policy": fault_policy}
    proc = Mdp(node_id=0, **kwargs)
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
#: cached ``Instr.text``), plus the switch itself.
VOLATILE = frozenset({"_woke", "_event_time", "_current_instr_addr",
                      "_active_priority", "_suspended_by_fault",
                      "fast_path", "_text"})


def _canon(obj):
    """``obj`` as plain nested data, comparable with ``==``."""
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, Word):
        return (obj.tag.name, obj.value)
    if isinstance(obj, enum.Enum):
        return obj.name
    if isinstance(obj, NodeMemory):
        return (_canon(obj.meter), sorted(obj._emem_cells.items(), key=repr),
                [(i, _canon(w)) for i, w in enumerate(obj._imem_cells)
                 if w is not NIL and w != NIL])
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
    return (type(obj).__name__, _canon(fields)) if fields else repr(obj)


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
