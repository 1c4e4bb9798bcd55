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

from .._lazy import lazy_exports

_EXPORTS = {
    ".rig": ("Telemetry",),
    ".metrics": ("MetricsRegistry",),
    ".events": ("EventBus", "EVENT_KINDS"),
    ".report": ("SimReport",),
    ".trace": ("TraceState", "CausalGraph"),
    ".live": ("LiveSampler", "SamplePolicy", "SamplePoint"),
}
__getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)
