"""Instruction-level execution tracing.

The paper's authors lamented the absence of statistics hardware;
simulation has no such excuse.  A :class:`Tracer` attached to an
:class:`~repro.core.processor.Mdp` records every executed instruction,
dispatch, suspension, and restart with its cycle timestamp, subject to
filters, and renders a human-readable listing — the tool you want when a
handler misbehaves three messages deep into a 512-node run.

Usage::

    tracer = Tracer.attach(machine.node(3).proc, limit=500)
    machine.run(...)
    print(tracer.format())

Tracing costs host time only; simulated timing is unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

from .isa import Instr
from .processor import Mdp

__all__ = ["TraceEvent", "Tracer"]


@dataclass
class TraceEvent:
    """One recorded event: an instruction or a scheduling action."""

    cycle: int
    node: int
    priority: str
    kind: str          # "instr" | "dispatch" | "suspend" | "restart"
    detail: str
    address: Optional[int] = None

    def render(self) -> str:
        where = f"@{self.address}" if self.address is not None else ""
        return (f"[{self.cycle:>8}] n{self.node} {self.priority:<3} "
                f"{self.kind:<8} {where:<7} {self.detail}")


class Tracer:
    """Records a processor's execution by wrapping its tick method."""

    def __init__(self, proc: Mdp, limit: int = 10_000,
                 predicate: Optional[Callable[[Instr], bool]] = None) -> None:
        self.proc = proc
        self.limit = limit
        self.predicate = predicate
        self.events: List[TraceEvent] = []
        self.dropped = 0
        self._original_tick = None
        self._saved_fast_path = proc.fast_path

    @classmethod
    def attach(cls, proc: Mdp, limit: int = 10_000,
               predicate: Optional[Callable[[Instr], bool]] = None) -> "Tracer":
        """Create a tracer and splice it into the processor."""
        tracer = cls(proc, limit=limit, predicate=predicate)
        tracer._splice()
        return tracer

    def _splice(self) -> None:
        if self._original_tick is not None:
            return  # already attached; a re-entrant attach must not
            # re-save fast_path (it is False while spliced) or wrap
            # the already-wrapped tick.
        proc = self.proc
        original = proc.tick
        self._original_tick = original
        # Tracing wants one instruction per tick; force the per-step
        # reference path while attached (simulated timing is identical).
        self._saved_fast_path = proc.fast_path
        proc.fast_path = False

        def traced_tick(now: int, *_run_ahead):
            before = _snapshot(proc)
            result = original(now)
            self._record(now, before, _snapshot(proc))
            return result

        proc.tick = traced_tick  # type: ignore[method-assign]

    def detach(self) -> None:
        """Restore the processor's untraced tick and fast-path setting.

        Safe to call more than once, and ``fast_path`` is restored even
        if un-splicing fails partway — so a detach in an ``except`` or
        ``finally`` block after a run raised always leaves the processor
        in its original configuration.
        """
        try:
            if self._original_tick is not None:
                self.proc.tick = self._original_tick  # type: ignore[method-assign]
                self._original_tick = None
        finally:
            self.proc.fast_path = self._saved_fast_path

    def __enter__(self) -> "Tracer":
        self._splice()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.detach()

    # ------------------------------------------------------------ recording

    def _record(self, now: int, before: dict, after: dict) -> None:
        proc = self.proc
        events = []
        if after["dispatches"] > before["dispatches"]:
            events.append(("dispatch", "message thread dispatched", None))
        if after["restarts"] > before["restarts"]:
            events.append(("restart", "suspended thread restarted", None))
        if after["suspends"] > before["suspends"]:
            events.append(("suspend", "thread suspended on cfut", None))
        if after["instructions"] > before["instructions"]:
            address = before["ip"]
            instr = proc.code.get(address)
            if instr is not None and (self.predicate is None
                                      or self.predicate(instr)):
                events.append(("instr", repr(instr), address))
        priority = before["priority"]
        for kind, detail, address in events:
            if len(self.events) >= self.limit:
                self.dropped += 1
                continue
            self.events.append(TraceEvent(
                cycle=now, node=proc.node_id, priority=priority,
                kind=kind, detail=detail, address=address,
            ))

    # ------------------------------------------------------------ reporting

    def format(self, kinds: Optional[set] = None) -> str:
        lines = [event.render() for event in self.events
                 if kinds is None or event.kind in kinds]
        if self.dropped:
            lines.append(f"... {self.dropped} events beyond the "
                         f"{self.limit}-event limit were dropped")
        return "\n".join(lines)

    def instructions(self) -> List[TraceEvent]:
        return [e for e in self.events if e.kind == "instr"]


def _snapshot(proc: Mdp) -> dict:
    counters = proc.counters
    selection = proc._select()
    if selection is not None:
        priority = selection[0].name
        regset = proc.registers[selection[0]]
        ip = regset.ip
    else:
        priority, ip = "-", 0
    return {
        "instructions": counters.instructions,
        "dispatches": counters.dispatches,
        "suspends": counters.suspends,
        "restarts": counters.restarts,
        "priority": priority,
        "ip": ip,
    }
