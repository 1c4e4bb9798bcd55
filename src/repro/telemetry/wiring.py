"""Standard instrumentation wiring for both simulation levels.

This module is the one place that knows *where* every measurement lives
and *what* it is called.  The naming schema (documented in
docs/OBSERVABILITY.md and pinned by tests):

Cycle level (:class:`~repro.machine.jmachine.JMachine`):

* ``machine.cycles``, ``machine.nodes`` — run extent.
* ``node.<i>.proc.<counter>`` — every ``MdpCounters`` field plus the
  derived ``busy_cycles`` (``comm_cycles`` is the paper's send time,
  ``sync_cycles`` its synchronization time, and so on).
* ``node.<i>.queue.p0.*`` / ``.p1.*`` — hardware message queue state
  (``depth``, ``used_words``, ``enqueued``, ``overflows``,
  ``high_water``) and ``node.<i>.queue.spilled`` for the software
  overflow area.
* ``node.<i>.amt.<hits|misses|enters|evictions>`` — name-cache traffic.
* ``net.*`` — fabric totals (``submitted``, ``completed``,
  ``block_cycles``, ``delivery_stalls``, ``bounces``, ``in_flight``)
  and ``net.latency.<count|total|mean|min|max|p50|p99>`` from the
  fabric's :class:`~repro.network.stats.LatencySummary`.

Macro level (:class:`~repro.jsim.sim.MacroSimulator`):

* ``macro.cycles``, ``macro.nodes``, ``macro.messages_sent``.
* ``macro.profile.<category>`` — aggregate Figure 6 categories.
* ``node.<i>.profile.<category>``, ``node.<i>.messages_received``,
  ``node.<i>.queue_high_water``.
* ``handler.<name>.<invocations|instructions|cycles|message_words>``.

Everything here registers *pull sources*: closures over counters the
subsystems maintain anyway, sampled only at snapshot time.  Attaching
telemetry therefore adds no per-cycle work; only event emission (when an
:class:`~repro.telemetry.events.EventBus` is installed) touches the
simulation loop, behind ``is None`` guards at per-message-rate sites.
The functions are duck-typed on purpose — no machine imports — so this
module never participates in an import cycle.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..core.registers import Priority
from .metrics import MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from . import Telemetry

__all__ = [
    "register_machine_metrics",
    "register_codegen_metrics",
    "install_machine_events",
    "instrument_machine",
    "register_macro_metrics",
    "instrument_macro",
]

#: MdpCounters fields exported under ``node.<i>.proc.`` (kept explicit so
#: a renamed counter breaks a test instead of silently vanishing).
MDP_COUNTER_FIELDS = (
    "instructions", "dispatches", "threads_completed", "messages_sent",
    "words_sent", "send_faults", "suspends", "restarts", "spills",
    "compute_cycles", "comm_cycles", "sync_cycles", "xlate_cycles",
    "dispatch_cycles", "fault_cycles", "stall_cycles",
)

PROFILE_FIELDS = ("compute", "xlate", "sync", "comm", "nnr",
                  "instructions", "xlate_count", "xlate_faults")

HANDLER_FIELDS = ("invocations", "instructions", "cycles", "message_words")


# --------------------------------------------------------------- cycle level


def _proc_source(proc):
    def sample():
        counters = proc.counters
        out = {name: getattr(counters, name) for name in MDP_COUNTER_FIELDS}
        out["busy_cycles"] = counters.busy_cycles
        return out

    return sample


def _queue_source(proc):
    def sample():
        out = {}
        for label, queue in (("p0", proc.queues[Priority.P0]),
                             ("p1", proc.queues[Priority.P1])):
            out[f"{label}.depth"] = len(queue)
            out[f"{label}.used_words"] = queue.used_words
            out[f"{label}.enqueued"] = queue.enqueued
            out[f"{label}.overflows"] = queue.overflows
            out[f"{label}.high_water"] = queue.high_water
        out["spilled"] = len(proc._spill)
        return out

    return sample


def _amt_source(proc):
    def sample():
        amt = proc.amt
        return {
            "hits": amt.hits,
            "misses": amt.misses,
            "enters": amt.enters,
            "evictions": amt.evictions,
        }

    return sample


def _fabric_source(fabric):
    def sample():
        stats = fabric.stats
        return {
            "submitted": stats.submitted,
            "completed": stats.completed,
            "block_cycles": stats.block_cycles,
            "delivery_stalls": stats.delivery_stall_cycles,
            "bounces": stats.bounces,
            "drops": stats.drops,
            "in_flight": fabric.worms_in_flight,
        }

    return sample


def _route_cache_source(fabric):
    def sample():
        return {
            "hits": fabric.route_cache_hits,
            "misses": fabric.route_cache_misses,
            "entries": len(fabric._route_cache),
            "max_entries": fabric.route_cache_max,
        }

    return sample


def register_codegen_metrics(registry: MetricsRegistry) -> None:
    """Add ``machine.codegen.*``: the block compiler's process-wide
    activity (:data:`repro.core.fastpath.CODEGEN_METRICS`).

    Host-side, like ``live.*``: the numbers depend on which execution
    path ran and on what the process compiled before, so the standard
    wiring — whose snapshots are bit-identical between the fast and
    reference paths — leaves them out; ask for them here.
    """
    from ..core.fastpath import STATS

    registry.register_source("machine.codegen", lambda: dict(STATS))


# The fabric-observatory sources below return ``{}`` while no probe is
# attached, so un-probed snapshots carry not a single extra key — the
# ``net.link.*`` / ``net.stall.*`` / ``net.dim.*`` /
# ``net.router.inject_queue.*`` families appear only on probed runs.
# The names are pinned by repro.network.observatory.FABRIC_METRICS and
# the docs/OBSERVABILITY.md §8 sync test.


def _probe_link_source(machine):
    def sample():
        probe = machine.fabric.probe
        if probe is None:
            return {}
        link_phits = probe.link_phits
        peak = max(link_phits.values()) if link_phits else 0
        elapsed = probe.elapsed(machine.now)
        return {
            "observed": len(link_phits),
            "phits": sum(link_phits.values()),
            "messages": sum(probe.link_messages.values()),
            "peak_phits": peak,
            "peak_utilization": round(peak / elapsed, 6),
            "blocked_cycles": sum(probe.link_blocked.values()),
        }

    return sample


def _probe_stall_source(fabric):
    def sample():
        probe = fabric.probe
        if probe is None:
            return {}
        return {
            "channel_busy": probe.stall_channel_busy,
            "link_outage": probe.stall_link_outage,
            "backpressure": probe.stall_backpressure,
        }

    return sample


def _probe_dim_source(fabric):
    def sample():
        probe = fabric.probe
        if probe is None:
            return {}
        out = {}
        for dim, letter in enumerate("xyz"):
            out[f"{letter}.hops"] = probe.dim_hops[dim]
            out[f"{letter}.phits"] = probe.dim_phits[dim]
        return out

    return sample


def _probe_queue_source(fabric):
    def sample():
        probe = fabric.probe
        if probe is None:
            return {}
        return probe.inject_queue_summary()

    return sample


def register_machine_metrics(machine, registry: MetricsRegistry) -> None:
    """Register the standard cycle-level sources for ``machine``."""
    registry.register_source("machine.cycles", lambda: machine.now)
    registry.register_source("machine.nodes", lambda: machine.mesh.n_nodes)
    for node in machine.nodes:
        proc = node.proc
        prefix = f"node.{node.node_id}"
        registry.register_source(f"{prefix}.proc", _proc_source(proc))
        registry.register_source(f"{prefix}.queue", _queue_source(proc))
        registry.register_source(f"{prefix}.amt", _amt_source(proc))
    registry.register_source("net", _fabric_source(machine.fabric))
    registry.register_source("net.route_cache",
                             _route_cache_source(machine.fabric))
    registry.register_source("net.latency",
                             lambda: machine.fabric.stats.latency)
    registry.register_source("net.link", _probe_link_source(machine))
    registry.register_source("net.stall", _probe_stall_source(machine.fabric))
    registry.register_source("net.dim", _probe_dim_source(machine.fabric))
    registry.register_source("net.router.inject_queue",
                             _probe_queue_source(machine.fabric))


def install_machine_events(machine, bus) -> None:
    """Point every node's processor and the fabric at the event bus."""
    for node in machine.nodes:
        node.proc._events = bus
    machine.fabric._events = bus


def install_machine_tracing(machine, trace_state) -> None:
    """Enable causal tracing: injects root traces, SENDs forward them.

    Each node's network interface stamps outgoing messages with a child
    of the sending thread's context (``Mdp.current_trace``); host
    injections through :meth:`JMachine.inject` root fresh traces.
    """
    machine._trace_state = trace_state
    for node in machine.nodes:
        node.interface.trace_state = trace_state


def instrument_machine(machine, telemetry: "Telemetry") -> None:
    """Full standard wiring: metrics always, events/tracing when enabled."""
    register_machine_metrics(machine, telemetry.registry)
    if telemetry.events is not None:
        install_machine_events(machine, telemetry.events)
        if telemetry.trace is not None:
            install_machine_tracing(machine, telemetry.trace)


# --------------------------------------------------------------- macro level


def _macro_node_source(node):
    def sample():
        profile = node.profile
        out = {f"profile.{name}": getattr(profile, name)
               for name in PROFILE_FIELDS}
        out["messages_received"] = node.messages_received
        out["queue_high_water"] = node.queue_high_water
        return out

    return sample


def _macro_handler_source(sim):
    # One dynamic source for the whole table: handlers register after
    # construction, so the names are only known at snapshot time.
    def sample():
        out = {}
        for name, stats in sim.handler_stats.items():
            for field in HANDLER_FIELDS:
                out[f"{name}.{field}"] = getattr(stats, field)
        return out

    return sample


def _macro_profile_source(sim):
    def sample():
        total = sim.aggregate_profile()
        return {name: getattr(total, name) for name in PROFILE_FIELDS}

    return sample


def register_macro_metrics(sim, registry: MetricsRegistry) -> None:
    """Register the standard macro-level sources for ``sim``."""
    registry.register_source("macro.cycles", lambda: sim.end_time)
    registry.register_source("macro.nodes", lambda: sim.n_nodes)
    registry.register_source("macro.messages_sent", lambda: sim.messages_sent)
    registry.register_source("macro.profile", _macro_profile_source(sim))
    registry.register_source("handler", _macro_handler_source(sim))
    for node in sim.nodes:
        registry.register_source(f"node.{node.node_id}",
                                 _macro_node_source(node))


def instrument_macro(sim, telemetry: "Telemetry") -> None:
    """Full standard wiring for a macro simulator."""
    register_macro_metrics(sim, telemetry.registry)
    if telemetry.events is not None:
        sim._ebus = telemetry.events
        if telemetry.trace is not None:
            sim._trace = telemetry.trace
