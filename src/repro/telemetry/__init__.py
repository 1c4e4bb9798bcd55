"""Unified telemetry: metrics, structured events, and run reports.

The paper's authors lament that the J-Machine "lacked hardware for
collecting statistics"; the simulator compensates with one first-class
observability layer instead of scattered counters.  Three pieces:

* :class:`~repro.telemetry.metrics.MetricsRegistry` — zero-cost pull
  sources over the counters every subsystem already keeps, under the
  names :data:`repro.telemetry.wiring.METRIC_FAMILIES` declares.
* :class:`~repro.telemetry.events.EventBus` — typed simulation events
  (dispatch, suspend, send, deliver, queue-overflow, xlate-fault, ...)
  exported as JSONL or as a Perfetto-loadable Chrome trace with one
  track per node × priority.
* :class:`~repro.telemetry.report.SimReport` — one JSON artifact per
  run, diffable via ``python -m repro.telemetry report a.json b.json``.

Typical use::

    from repro.telemetry import Telemetry

    telemetry = Telemetry()                    # metrics + events
    machine = JMachine.build(64, telemetry=telemetry)
    ... run ...
    machine.report().save("run.json")
    telemetry.write_chrome_trace("run_trace.json")   # open in Perfetto

``Telemetry(events=False)`` keeps the metrics (still free during the
run — they are pull-based) but skips event collection entirely, which
is the mode the ``make check`` overhead gate holds to within 3% of an
uninstrumented run.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from .events import EVENT_KINDS, EventBus
from .live import LiveSampler, SamplePoint, SamplePolicy
from .metrics import MetricsRegistry
from .report import SimReport
from .trace import CausalGraph, TraceState

__all__ = [
    "Telemetry",
    "MetricsRegistry",
    "EventBus",
    "EVENT_KINDS",
    "SimReport",
    "TraceState",
    "CausalGraph",
    "LiveSampler",
    "SamplePolicy",
    "SamplePoint",
]


class Telemetry:
    """The rig a simulator is instrumented with: a registry + event bus.

    Pass one of these to ``JMachine(..., telemetry=...)`` or
    ``MacroSimulator(..., telemetry=...)`` and the standard wiring
    (:mod:`repro.telemetry.wiring`) is installed automatically.

    ``Telemetry(trace=True)`` additionally turns on **causal tracing**:
    every message carries a ``(trace_id, span_id, parent_span)`` context,
    events gain span fields, the Perfetto export draws send→deliver flow
    arrows, and the event stream feeds the offline critical-path
    analyzer (:mod:`repro.telemetry.trace`, ``python -m repro.telemetry
    critical-path events.jsonl``).  Tracing requires event collection.
    """

    def __init__(self, events: bool = True, event_limit: int = 1_000_000,
                 trace: bool = False) -> None:
        self.registry = MetricsRegistry()
        self.events: Optional[EventBus] = (
            EventBus(limit=event_limit) if events else None
        )
        if trace and self.events is None:
            raise ValueError(
                "tracing records span fields on events; "
                "Telemetry(trace=True) requires events=True")
        #: Shared trace-context allocator, or None when tracing is off.
        self.trace: Optional[TraceState] = TraceState() if trace else None
        if self.events is not None:
            # The wiring is imported when first needed, as the
            # simulators do: a process that only builds rigs (a service
            # worker between jobs) does not load the simulators for it.
            from .wiring import register_event_health

            register_event_health(self.registry, self.events)

    def report(self, meta: Optional[Dict[str, Any]] = None) -> SimReport:
        """Snapshot every registered metric into a :class:`SimReport`."""
        return SimReport.from_registry(self.registry, meta)

    def write_chrome_trace(self, path: str, counters: bool = False,
                           mesh=None, link_tracks: int = 16) -> int:
        """Write the Perfetto-loadable timeline; returns the event count.

        ``counters=True`` adds offline-reconstructed counter tracks
        (queue depth per node, chaos events, and — given a ``mesh`` —
        cumulative phits for the busiest links); see
        :meth:`EventBus.to_chrome_trace`.
        """
        if self.events is None:
            raise ValueError("event collection is disabled on this Telemetry")
        return self.events.write_chrome_trace(path, counters=counters,
                                              mesh=mesh,
                                              link_tracks=link_tracks)

    def write_jsonl(self, path: str) -> int:
        """Write events as JSON lines; returns the number written."""
        if self.events is None:
            raise ValueError("event collection is disabled on this Telemetry")
        return self.events.write_jsonl(path)
