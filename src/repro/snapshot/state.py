"""Capture/restore of whole-simulator state, both levels.

This module is the single place that knows which attributes of which
objects constitute "machine state".  Each stateful subsystem owns its
own serialization contract (``Fabric.state_dict``,
``ChaosEngine.state_dict``, ``ReliableLayer.state_dict``); this module
composes them with the pieces that live directly on the machine — node
processors, heaps, staged deliveries, telemetry — into one payload for
:mod:`repro.snapshot.format`.  The front doors at the end
(:func:`save_machine`, :func:`load_machine`, :func:`save_macro`,
:func:`restore_macro_into`) pair a capture with a file.

**Cycle level** (:func:`capture_machine` / :func:`restore_machine`):
snapshots are fully self-contained.  Processor state is the processor's
whole ``__dict__`` (registers, memory, queues, AMT, suspended threads,
code image, counters) minus the machine-wired attributes in
:data:`PROC_EXTERNAL_ATTRS`; restore builds a fresh ``JMachine`` from
the captured config and installs state into its existing objects, so
internal wiring (interface→processor trace hooks, fabric callbacks)
stays bound.

**Macro level** (:func:`capture_macro` / :func:`restore_macro`):
handlers are Python closures over application data, which no snapshot
can capture; macro restore is therefore *restore-into* — the caller
re-runs the same deterministic application setup (registering the same
handlers) and this module overwrites the mutable state: clocks, node
queues/state/profiles, the event heap (with reliable-transport timers
re-bound by sequence number), chaos RNG positions, and telemetry.

What is **not** captured (by design) is documented in docs/SNAPSHOT.md:
watchdog progress clocks (reset on the next ``run``), registry
instruments (pull sources re-derive from restored counters), and
``Mdp.on_thread_complete`` host callbacks.
"""

from __future__ import annotations

import heapq
from typing import Any, Dict, List, Optional

from ..core.errors import SnapshotError
from ..core.processor import Mdp
from .format import read_snapshot, write_snapshot

__all__ = [
    "PROC_EXTERNAL_ATTRS", "MACHINE_CAPTURED_ATTRS", "MACHINE_EXTERNAL_ATTRS",
    "MACRO_CAPTURED_ATTRS", "MACRO_EXTERNAL_ATTRS",
    "capture_machine", "restore_machine", "capture_macro", "restore_macro",
    "save_machine", "load_machine", "save_macro", "restore_macro_into",
]

#: Processor attributes owned by the machine wiring, not by the
#: processor's architectural state (``Mdp.UNCAPTURED_ATTRS``: the
#: network interface binding, the telemetry bus, the bound compiled
#: blocks, host completion callbacks, the stop condition a run armed).
#: Everything else in ``Mdp.__dict__`` — registers, memory, queues, AMT,
#: code, suspended threads, counters — is captured wholesale.
PROC_EXTERNAL_ATTRS = frozenset(Mdp.UNCAPTURED_ATTRS)

#: ``JMachine.__dict__`` partition, asserted complete by
#: tests/snapshot/test_contract.py so new machine attributes must be
#: classified before they can ship.
MACHINE_CAPTURED_ATTRS = frozenset({
    "config", "now", "_seq", "deliveries_committed", "nodes", "_proc_heap",
    "_delivery_heap", "_staged",  # both as the "deliveries" list
    "fabric", "chaos", "watchdog", "telemetry",
})
MACHINE_EXTERNAL_ATTRS = frozenset({
    "mesh",          # derived from config
    "_trace_state",  # telemetry wiring, re-installed on restore
    "checkpoint",    # the policy driving saves is host-side, not state
    "sampler",       # live-monitoring rig, host-side (docs/OBSERVABILITY.md)
    # Per-node traffic counts, derived from the fabric's worms on
    # restore (JMachine._recount_traffic).
    "_inbound", "_injecting",
})

#: Same partition for ``MacroSimulator.__dict__``.
MACRO_CAPTURED_ATTRS = frozenset({
    "config", "n_nodes", "now", "end_time", "messages_sent",
    "_seq", "handlers", "handler_stats", "nodes", "_events", "_chaos",
    "network",                # stateful: utilization window + backlog
    "telemetry",
})
MACRO_EXTERNAL_ATTRS = frozenset({
    "mesh",                   # derived from n_nodes
    "_bound",                 # handlers + handler_stats, paired by register()
    "_send_cost", "_instr_cycles",  # derived from config, filled on use
    "_latency",               # network.latency, bound at construction
    "_ebus", "_trace",        # telemetry wiring
    "post",                   # ReliableLayer's shadow, handled explicitly
    "checkpoint",             # host-side policy
    "sampler",                # host-side live-monitoring rig
})

#: Placeholder for a reliable-transport retransmit timer in a captured
#: macro event heap; re-bound to the restored layer by sequence number.
_TIMER_SENTINEL = "__repro.rel-timer__"


# ----------------------------------------------------------------- telemetry


def _capture_telemetry(telemetry) -> Optional[dict]:
    if telemetry is None:
        return None
    out: Dict[str, Any] = {"events": None, "trace": None}
    bus = telemetry.events
    if bus is not None:
        out["events"] = {"limit": bus.limit, "events": list(bus.events),
                         "dropped": bus.dropped}
    trace = telemetry.trace
    if trace is not None:
        out["trace"] = {"next_trace": trace._next_trace,
                        "next_span": trace._next_span}
    return out


def _restore_telemetry(state: Optional[dict]):
    """Build a fresh rig preloaded with the captured stream/counters.

    Preloading the bus is what makes the *full* event stream of a
    resumed run digest-equal to the uninterrupted run's: the events from
    before the checkpoint are already in place when the resumed run
    appends the rest.
    """
    if state is None:
        return None
    from ..telemetry import Telemetry

    events = state["events"]
    trace = state["trace"]
    telemetry = Telemetry(events=events is not None, trace=trace is not None)
    if events is not None:
        telemetry.events.limit = events["limit"]
        telemetry.events.events.extend(events["events"])
        telemetry.events.dropped = events["dropped"]
    if trace is not None:
        telemetry.trace._next_trace = trace["next_trace"]
        telemetry.trace._next_span = trace["next_span"]
    return telemetry


# --------------------------------------------------------------- cycle level


def capture_machine(machine) -> dict:
    """Snapshot a ``JMachine`` into a picklable payload.

    Must be called between run-loop iterations (the checkpoint hook's
    position): no partially-stepped fabric cycle, no half-committed
    delivery.  The capture reads but never mutates the machine.
    """
    nodes: List[dict] = []
    for node in machine.nodes:
        proc = node.proc
        iface = node.interface
        state = {name: value for name, value in proc.__dict__.items()
                 if name not in PROC_EXTERNAL_ATTRS}
        if proc._stop is not None:
            # An armed stop condition is run-scoped: leave out the
            # watch-table entries that only mark its flag words.
            state["_watch"] = {address: waiting for address, waiting
                               in proc._watch.items() if waiting}
        nodes.append({
            "proc": state,
            "building": {priority: list(words)
                         for priority, words in iface._building.items()},
            "outstanding_words": iface._used_words - sum(
                len(words) for words in iface._building.values()),
            "node_tlb": iface.node_tlb,
            "next_tick": node.next_tick,
        })
    # Staged deliveries in exact commit order — by (arrival, node), each
    # node's in staging order — which restoring through machine._deliver
    # in that order reproduces.
    deliveries = [
        (arrival, node_id, message)
        for arrival, node_id, _, message in sorted(
            (arrival, node_id, k, message)
            for node_id, staged in enumerate(machine._staged)
            for k, (arrival, message) in enumerate(staged))
    ]
    watchdog = machine.watchdog
    return {
        "config": machine.config,
        "now": machine.now,
        "seq": machine._seq,
        "deliveries_committed": machine.deliveries_committed,
        "nodes": nodes,
        "proc_heap": list(machine._proc_heap),
        "deliveries": deliveries,
        "fabric": machine.fabric.state_dict(),
        "chaos": (machine.chaos.state_dict()
                  if machine.chaos is not None else None),
        "watchdog": (None if watchdog is None else {
            "window": watchdog.window,
            "interval": watchdog.interval,
            "trips": watchdog.trips,
        }),
        "telemetry": _capture_telemetry(machine.telemetry),
    }


def restore_machine(payload: dict):
    """Rebuild a ``JMachine`` from a :func:`capture_machine` payload."""
    from ..machine.jmachine import JMachine

    machine = JMachine(payload["config"],
                       telemetry=_restore_telemetry(payload["telemetry"]))
    if len(payload["nodes"]) != machine.mesh.n_nodes:
        raise SnapshotError(
            f"snapshot has {len(payload['nodes'])} nodes but the captured "
            f"config builds {machine.mesh.n_nodes}")
    machine.now = payload["now"]
    machine._seq = payload["seq"]
    machine.deliveries_committed = payload["deliveries_committed"]
    for node, state in zip(machine.nodes, payload["nodes"]):
        # Install into the *existing* processor object so the wiring
        # established at construction (interface trace hooks, the
        # fabric's accept/deliver callbacks) keeps pointing at it.
        proc = node.proc
        proc.__dict__.update(state["proc"])
        proc.drop_compiled()  # bound to the replaced state
        iface = node.interface
        iface._building = {priority: list(words)
                           for priority, words in state["building"].items()}
        iface._used_words = state["outstanding_words"] + sum(
            len(words) for words in iface._building.values())
        iface.node_tlb = state["node_tlb"]
        node.next_tick = state["next_tick"]
    # A copied heap is a valid heap; stale entries are preserved on
    # purpose (they bound the quiescence jump exactly as captured).
    machine._proc_heap = list(payload["proc_heap"])
    for arrival, node_id, message in payload["deliveries"]:
        machine._deliver(node_id, message, arrival)
    machine.fabric.load_state(payload["fabric"])
    machine._recount_traffic()
    chaos = payload["chaos"]
    if chaos is not None:
        from ..chaos.engine import ChaosEngine
        from ..chaos.plan import FaultPlan

        engine = ChaosEngine(FaultPlan.from_dict(chaos["plan"]))
        # Attach first (rebuilds schedule closures over the restored
        # nodes, binds telemetry), then load (RNG positions, counters,
        # and the schedule cursor past already-applied actions).
        engine.attach_machine(machine)
        engine.load_state(chaos)
    wd = payload["watchdog"]
    if wd is not None:
        from ..chaos.watchdog import DeadlockWatchdog

        watchdog = DeadlockWatchdog(window=wd["window"],
                                    interval=wd["interval"])
        watchdog.trips = wd["trips"]
        machine.watchdog = watchdog
    return machine


# --------------------------------------------------------------- macro level


def _reliable_layer(sim):
    """The installed ``ReliableLayer``, found via its ``post`` shadow."""
    post = sim.__dict__.get("post")
    if post is None:
        return None
    owner = getattr(post, "__self__", None)
    from ..runtime.rpc import ReliableLayer

    return owner if isinstance(owner, ReliableLayer) else None


def capture_macro(sim) -> dict:
    """Snapshot a ``MacroSimulator`` into a picklable payload.

    Handler *names* are captured for validation; the handler callables
    themselves are the caller's to re-register before restore.  Queued
    task arguments and node state must be picklable application data
    (they are for every app in :mod:`repro.apps`).
    """
    from ..runtime.rpc import _RetryTimer

    timer_kind = sim._TIMER
    events = []
    for event in sim._events:  # verbatim heap order (a list copy is a heap)
        (time, seq, kind, dest, handler, args, length, priority,
         trace) = event
        if kind == timer_kind:
            fn = args[0]
            if not isinstance(fn, _RetryTimer):
                raise SnapshotError(
                    f"cannot capture a host timer callback {fn!r}; only "
                    f"reliable-transport retry timers are serializable")
            args = (_TIMER_SENTINEL, fn.seq)
        events.append((time, seq, kind, dest, handler, args, length,
                       priority, trace))
    layer = _reliable_layer(sim)
    nodes = []
    for node in sim.nodes:
        if node.reserved >= 0:
            # The engine reserved this task's COMPLETE event without
            # pushing it (no message waits for it yet); the captured
            # heap holds it, so the format is the one-event-per-task one.
            heapq.heappush(events, (node.busy_until, node.reserved,
                                    sim._COMPLETE, node.node_id, None, (),
                                    0, 0, None))
        nodes.append({
            "busy_until": node.busy_until,
            "running": node.running,
            "q0": list(node.queues[0]),
            "q1": list(node.queues[1]),
            "state": dict(node.state),
            "profile": dict(node.profile.__dict__),
            "queue_high_water": node.queue_high_water,
            "messages_received": node.messages_received,
        })
    return {
        "config": sim.config,
        "n_nodes": sim.n_nodes,
        "now": sim.now,
        "end_time": sim.end_time,
        "messages_sent": sim.messages_sent,
        "seq": sim._seq,
        "handlers": sorted(sim.handlers),
        "handler_stats": {name: dict(stats.__dict__)
                          for name, stats in sim.handler_stats.items()},
        "nodes": nodes,
        "events": events,
        "network": sim.network.state_dict(),
        "chaos": (sim._chaos.state_dict()
                  if sim._chaos is not None else None),
        "reliable": layer.state_dict() if layer is not None else None,
        "telemetry": _capture_telemetry(sim.telemetry),
    }


def restore_macro(sim, payload: dict) -> None:
    """Install a :func:`capture_macro` payload into ``sim``.

    ``sim`` must already have the same handlers registered (same
    application setup, including installing a ``ReliableLayer`` when the
    capture used one) and a telemetry rig when the capture carried one.
    Node state dicts and queues are updated *in place* so handler
    closures holding references to them keep observing the node.
    """
    if payload["n_nodes"] != sim.n_nodes:
        raise SnapshotError(
            f"snapshot was captured on {payload['n_nodes']} nodes, "
            f"this simulator has {sim.n_nodes}")
    layer = _reliable_layer(sim)
    reliable = payload["reliable"]
    if reliable is not None and layer is None:
        raise SnapshotError(
            "snapshot used a ReliableLayer; install one before restoring")
    if reliable is None and layer is not None:
        raise SnapshotError(
            "snapshot had no ReliableLayer but this simulator has one")
    captured = set(payload["handlers"])
    current = set(sim.handlers)
    if captured != current:
        missing = sorted(captured - current)
        extra = sorted(current - captured)
        raise SnapshotError(
            "handler registry mismatch: re-run the same application "
            f"setup before restoring (missing={missing}, extra={extra})")

    sim.now = payload["now"]
    sim.end_time = payload["end_time"]
    sim.messages_sent = payload["messages_sent"]
    sim._seq = payload["seq"]
    for name, data in payload["handler_stats"].items():
        sim.handler_stats[name].__dict__.update(data)
    for node, state in zip(sim.nodes, payload["nodes"]):
        node.busy_until = state["busy_until"]
        node.running = state["running"]
        node.reserved = -1  # a captured heap holds every COMPLETE
        node.queues[0].clear()
        node.queues[0].extend(state["q0"])
        node.queues[1].clear()
        node.queues[1].extend(state["q1"])
        node.state.clear()
        node.state.update(state["state"])
        node.profile.__dict__.update(state["profile"])
        node.queue_high_water = state["queue_high_water"]
        node.messages_received = state["messages_received"]
    if reliable is not None:
        layer.load_state(reliable)
    from ..runtime.rpc import _RetryTimer

    timer_kind = sim._TIMER
    events = []
    for event in payload["events"]:
        (time, seq, kind, dest, handler, args, length, priority,
         trace) = event
        if kind == timer_kind:
            args = (_RetryTimer(layer, args[1]),)
        events.append((time, seq, kind, dest, handler, args, length,
                       priority, trace))
    sim._events = events
    sim.network.load_state(payload["network"])
    chaos = payload["chaos"]
    if chaos is not None:
        engine = sim._chaos
        if engine is None:
            from ..chaos.engine import ChaosEngine
            from ..chaos.plan import FaultPlan

            engine = ChaosEngine(FaultPlan.from_dict(chaos["plan"]))
            engine.attach_macro(sim)
        engine.load_state(chaos)
    telemetry = payload["telemetry"]
    if telemetry is not None and telemetry["events"] is not None:
        if sim._ebus is None:
            raise SnapshotError(
                "snapshot carries telemetry events; construct the "
                "simulator with a Telemetry rig before restoring")
        sim._ebus.events[:] = telemetry["events"]["events"]
        sim._ebus.dropped = telemetry["events"]["dropped"]
        if telemetry["trace"] is not None and sim._trace is not None:
            sim._trace._next_trace = telemetry["trace"]["next_trace"]
            sim._trace._next_span = telemetry["trace"]["next_span"]


# --------------------------------------------------------------- front doors

def _meta(target, run_limit: Optional[int], meta) -> dict:
    out = {"now": target.now, "n_nodes": len(target.nodes),
           "run_limit": run_limit}
    if meta:
        out.update(meta)
    return out


def save_machine(machine, path: str, run_limit: Optional[int] = None,
                 meta=None) -> dict:
    """Capture a ``JMachine`` to ``path``; returns the written header."""
    return write_snapshot(path, "cycle", capture_machine(machine),
                          meta=_meta(machine, run_limit, meta))


def load_machine(path: str):
    """Rebuild a ``JMachine`` from a cycle-level snapshot file."""
    header, payload = read_snapshot(path)
    if header["kind"] != "cycle":
        raise SnapshotError(
            f"{path} is a {header['kind']!r} snapshot; use restore_state "
            f"on a macro simulator for it")
    return restore_machine(payload)


def save_macro(sim, path: str, run_limit: Optional[int] = None,
               meta=None) -> dict:
    """Capture a ``MacroSimulator`` to ``path``; returns the header."""
    return write_snapshot(path, "macro", capture_macro(sim),
                          meta=_meta(sim, run_limit, meta))


def restore_macro_into(sim, path: str) -> dict:
    """Restore a macro snapshot into a prepared ``sim``; returns header."""
    header, payload = read_snapshot(path)
    if header["kind"] != "macro":
        raise SnapshotError(
            f"{path} is a {header['kind']!r} snapshot; use "
            f"JMachine.restore for it")
    restore_macro(sim, payload)
    return header
