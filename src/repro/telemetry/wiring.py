"""Standard instrumentation wiring for both simulation levels.

This module is the one place that knows *where* every measurement lives
and *what* it is called: :data:`METRIC_FAMILIES` declares every name a
registry can emit at either level, docs/OBSERVABILITY.md §1 shows it row
for row, and the sources below key their dicts by its leaves.

Everything here registers *pull sources*: closures over counters the
subsystems maintain anyway, sampled only at snapshot time.  Attaching
telemetry therefore adds no per-cycle work; only event emission (when an
:class:`~repro.telemetry.events.EventBus` is installed) touches the
simulation loop, behind ``is None`` guards at per-message-rate sites.
The sources are duck-typed on purpose: the module imports only the
owners' name declarations (field tuples and dataclasses, none of which
imports telemetry), so it never participates in an import cycle.
"""

from __future__ import annotations

from dataclasses import fields
from typing import TYPE_CHECKING, Dict, NamedTuple, Tuple

from ..chaos.engine import COUNTER_NAMES
from ..core.fastpath import CODEGEN_METRICS, STATS
from ..core.processor import MdpCounters
from ..core.registers import Priority
from ..jsim.profile import CATEGORIES, Profile
from ..network.observatory import FABRIC_METRICS
from ..network.stats import SUMMARY_FIELDS
from .metrics import MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from . import Telemetry

__all__ = [
    "Family",
    "METRIC_FAMILIES",
    "LEAVES",
    "register_machine_metrics",
    "register_codegen_metrics",
    "register_event_health",
    "register_live_health",
    "instrument_machine",
    "register_macro_metrics",
    "instrument_macro",
    "registry_for",
]


class Family(NamedTuple):
    """One row of the metric schema: ``<prefix>.<leaf>`` for each leaf.

    In a prefix, ``<i>`` stands for a node id, ``<p>`` for a queue
    priority (``p0`` or ``p1``) and ``<name>`` for a handler name
    (which may itself contain dots).
    ``kind`` is ``counter``, ``gauge`` or ``histogram`` (leaves
    :data:`~repro.network.stats.SUMMARY_FIELDS`).
    """

    prefix: str
    leaves: Tuple[str, ...]
    kind: str
    unit: str


_MDP_FIELDS = tuple(field.name for field in fields(MdpCounters))
_PROFILE_COUNTS = tuple(field.name for field in fields(Profile)
                        if field.name not in CATEGORIES)

#: Every metric family a registry can emit, cycle level, macro level,
#: then the rigs either level can carry.  Fabric-probe families appear
#: on probed runs only, ``machine.codegen`` only where
#: :func:`register_codegen_metrics` adds it.
METRIC_FAMILIES = (
    Family("machine", ("cycles",), "gauge", "cycles"),
    Family("machine", ("nodes",), "gauge", "nodes"),
    Family("node.<i>.proc",
           tuple(name for name in _MDP_FIELDS if not name.endswith("_cycles")),
           "counter", "count"),
    Family("node.<i>.proc",
           tuple(name for name in _MDP_FIELDS if name.endswith("_cycles"))
           + ("busy_cycles",), "counter", "cycles"),
    Family("node.<i>.queue.<p>", ("depth",), "gauge", "messages"),
    Family("node.<i>.queue.<p>", ("used_words", "high_water"), "gauge",
           "words"),
    Family("node.<i>.queue.<p>", ("enqueued", "overflows"), "counter",
           "messages"),
    Family("node.<i>.queue", ("spilled",), "gauge", "messages"),
    Family("node.<i>.amt", ("hits", "misses", "enters", "evictions"),
           "counter", "count"),
    Family("net", ("submitted", "completed", "bounces", "drops"), "counter",
           "messages"),
    Family("net", ("block_cycles", "delivery_stalls"), "counter", "cycles"),
    Family("net", ("in_flight",), "gauge", "messages"),
    Family("net.route_cache", ("hits", "misses"), "counter", "count"),
    Family("net.route_cache", ("entries", "max_entries"), "gauge", "routes"),
    Family("net.latency", SUMMARY_FIELDS, "histogram", "cycles"),
    *(Family(*row) for row in FABRIC_METRICS),
    Family("machine.codegen", CODEGEN_METRICS, "counter", "count"),
    Family("macro", ("cycles",), "gauge", "cycles"),
    Family("macro", ("nodes",), "gauge", "nodes"),
    Family("macro", ("messages_sent",), "counter", "messages"),
    Family("macro.profile", CATEGORIES, "counter", "cycles"),
    Family("macro.profile", _PROFILE_COUNTS, "counter", "count"),
    Family("node.<i>.profile", CATEGORIES, "counter", "cycles"),
    Family("node.<i>.profile", _PROFILE_COUNTS, "counter", "count"),
    Family("node.<i>", ("messages_received",), "counter", "messages"),
    Family("node.<i>", ("queue_high_water",), "gauge", "messages"),
    Family("handler.<name>", ("invocations", "instructions"), "counter",
           "count"),
    Family("handler.<name>", ("cycles",), "counter", "cycles"),
    Family("handler.<name>", ("message_words",), "counter", "words"),
    Family("events", ("collected", "dropped"), "counter", "events"),
    Family("chaos", COUNTER_NAMES, "counter", "count"),
    Family("live", ("samples", "ring_dropped"), "counter", "count"),
    Family("live", ("sample_cost_us",), "gauge", "us"),
)

#: prefix -> its leaves over every row, in table order: a source zips
#: these with its values, so a leaf is spelled once.
LEAVES: Dict[str, Tuple[str, ...]] = {}
for _family in METRIC_FAMILIES:
    LEAVES[_family.prefix] = LEAVES.get(_family.prefix, ()) + _family.leaves


def register_event_health(registry: MetricsRegistry, bus) -> None:
    """Add ``events.*``: the bus's own health.  A report whose
    ``events.dropped`` is nonzero came from a truncated stream."""
    registry.register_source(
        "events", lambda: dict(zip(LEAVES["events"], (len(bus), bus.dropped))))


def register_live_health(registry: MetricsRegistry, sampler) -> None:
    """Add ``live.*``: a :class:`~repro.telemetry.live.LiveSampler`'s own
    health, so every frame and report shows whether monitoring kept up
    (``sample_cost_us`` is the *mean* wall microseconds per sample)."""
    def sample():
        mean_us = (sampler.sample_cost_s / sampler.samples * 1e6
                   if sampler.samples else 0.0)
        return dict(zip(LEAVES["live"], (
            sampler.samples, sampler.ring_evicted, round(mean_us, 3))))

    registry.register_source("live", sample)


def registry_for(target) -> MetricsRegistry:
    """The registry to read ``target`` (a machine or a macro simulator)
    through: its telemetry rig's, else a fresh one wired with the
    standard pull sources of its level (safe and cheap at any point of
    a run)."""
    if target.telemetry is not None:
        return target.telemetry.registry
    registry = MetricsRegistry()
    if hasattr(target, "fabric"):
        register_machine_metrics(target, registry)
    else:
        register_macro_metrics(target, registry)
    return registry


# --------------------------------------------------------------- cycle level


def _attrs_source(owner, attr, names):
    """``{name: getattr(owner.<attr>, name)}`` over ``names``, with
    ``owner.<attr>`` looked up at snapshot time."""
    def sample():
        target = getattr(owner, attr)
        return {name: getattr(target, name) for name in names}

    return sample


def _queue_source(proc):
    names = LEAVES["node.<i>.queue.<p>"]

    def sample():
        out = dict(zip(LEAVES["node.<i>.queue"], (len(proc._spill),)))
        for label, queue in (("p0", proc.queues[Priority.P0]),
                             ("p1", proc.queues[Priority.P1])):
            values = (len(queue), queue.used_words, queue.high_water,
                      queue.enqueued, queue.overflows)
            for name, value in zip(names, values):
                out[f"{label}.{name}"] = value
        return out

    return sample


def _fabric_source(fabric):
    def sample():
        stats = fabric.stats
        return dict(zip(LEAVES["net"], (
            stats.submitted, stats.completed, stats.bounces, stats.drops,
            stats.block_cycles, stats.delivery_stall_cycles,
            fabric.worms_in_flight)))

    return sample


def _route_cache_source(fabric):
    def sample():
        return dict(zip(LEAVES["net.route_cache"], (
            fabric.route_cache_hits, fabric.route_cache_misses,
            len(fabric._route_cache), fabric.route_cache_max)))

    return sample


def register_codegen_metrics(registry: MetricsRegistry) -> None:
    """Add ``machine.codegen.*``: the block compiler's process-wide
    activity (:data:`repro.core.fastpath.STATS`).

    Host-side, like ``live.*``: the numbers depend on which execution
    path ran and on what the process compiled before, so the standard
    wiring — whose snapshots are bit-identical between the fast and
    reference paths — leaves them out; ask for them here.
    """
    registry.register_source("machine.codegen", lambda: dict(STATS))


def _probed(fabric, sample):
    """A fabric-observatory source: ``sample(probe)``, or ``{}`` while no
    probe is attached, so un-probed snapshots carry not a single extra
    key — the ``net.link.*`` / ``net.stall.*`` / ``net.dim.*`` /
    ``net.router.inject_queue.*`` families appear only on probed runs."""
    def read():
        probe = fabric.probe
        return {} if probe is None else sample(probe)

    return read


def _link_sample(machine):
    def sample(probe):
        link_phits = probe.link_phits
        peak = max(link_phits.values()) if link_phits else 0
        return dict(zip(LEAVES["net.link"], (
            len(link_phits), sum(link_phits.values()),
            sum(probe.link_messages.values()), peak,
            round(peak / probe.elapsed(machine.now), 6),
            sum(probe.link_blocked.values()))))

    return sample


def _stall_sample(probe):
    return dict(zip(LEAVES["net.stall"], (
        probe.stall_channel_busy, probe.stall_link_outage,
        probe.stall_backpressure)))


def _dim_sample(probe):
    return dict(zip(LEAVES["net.dim"], (*probe.dim_hops, *probe.dim_phits)))


def register_machine_metrics(machine, registry: MetricsRegistry) -> None:
    """Register the standard cycle-level sources for ``machine``."""
    registry.register_source("machine", lambda: dict(zip(
        LEAVES["machine"], (machine.now, machine.mesh.n_nodes))))
    for node in machine.nodes:
        proc = node.proc
        prefix = f"node.{node.node_id}"
        registry.register_source(f"{prefix}.proc", _attrs_source(
            proc, "counters", LEAVES["node.<i>.proc"]))
        registry.register_source(f"{prefix}.queue", _queue_source(proc))
        registry.register_source(f"{prefix}.amt", _attrs_source(
            proc, "amt", LEAVES["node.<i>.amt"]))
    fabric = machine.fabric
    registry.register_source("net", _fabric_source(fabric))
    registry.register_source("net.route_cache", _route_cache_source(fabric))
    registry.register_source("net.latency", lambda: fabric.stats.latency)
    registry.register_source("net.link", _probed(fabric, _link_sample(machine)))
    registry.register_source("net.stall", _probed(fabric, _stall_sample))
    registry.register_source("net.dim", _probed(fabric, _dim_sample))
    registry.register_source("net.router.inject_queue", _probed(
        fabric, lambda probe: probe.inject_queue_summary()))


def instrument_machine(machine, telemetry: "Telemetry") -> None:
    """Full standard wiring: metrics always, events/tracing when enabled.

    Under tracing each node's network interface stamps outgoing messages
    with a child of the sending thread's context (``Mdp.current_trace``);
    host injections through :meth:`JMachine.inject` root fresh traces.
    """
    register_machine_metrics(machine, telemetry.registry)
    bus = telemetry.events
    if bus is not None:
        for node in machine.nodes:
            node.proc._events = bus
        machine.fabric._events = bus
        if telemetry.trace is not None:
            machine._trace_state = telemetry.trace
            for node in machine.nodes:
                node.interface.trace_state = telemetry.trace


# --------------------------------------------------------------- macro level


def _macro_node_source(node):
    names = LEAVES["node.<i>.profile"]

    def sample():
        profile = node.profile
        out = {f"profile.{name}": getattr(profile, name) for name in names}
        out.update(zip(LEAVES["node.<i>"],
                       (node.messages_received, node.queue_high_water)))
        return out

    return sample


def _macro_profile_source(sim):
    names = LEAVES["macro.profile"]

    def sample():
        total = sim.aggregate_profile()
        return {name: getattr(total, name) for name in names}

    return sample


def _macro_handler_source(sim):
    # One dynamic source for the whole table: handlers register after
    # construction, so the names are only known at snapshot time.
    names = LEAVES["handler.<name>"]

    def sample():
        out = {}
        for name, stats in sim.handler_stats.items():
            for field in names:
                out[f"{name}.{field}"] = getattr(stats, field)
        return out

    return sample


def register_macro_metrics(sim, registry: MetricsRegistry) -> None:
    """Register the standard macro-level sources for ``sim``."""
    registry.register_source("macro", lambda: dict(zip(
        LEAVES["macro"], (sim.end_time, sim.n_nodes, sim.messages_sent))))
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
