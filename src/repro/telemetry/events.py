"""The structured event bus and its timeline exporters.

Subsystems emit *typed* events — dispatches, suspensions, sends,
deliveries, queue overflows, xlate faults — stamped with a simulated
cycle, a node, and a priority level.  The bus stores them as flat tuples
(bounded, with a drop counter) and renders them two ways:

* **JSONL** (:meth:`EventBus.write_jsonl`): one JSON object per line,
  trivially greppable and streamable into pandas/duckdb.
* **Chrome trace-event format** (:meth:`EventBus.write_chrome_trace`):
  a ``{"traceEvents": [...]}`` JSON loadable in Perfetto
  (https://ui.perfetto.dev) or ``chrome://tracing``, with one process
  track per node and one thread track per priority level, so a 512-node
  run renders as a timeline.  Dispatch/restart open a slice on the
  node's track; suspend/thread-end close it; sends, deliveries and
  faults are instant markers; macro-level tasks are complete ("X")
  slices with explicit durations.  Timestamps are simulated cycles
  reported in the trace's microsecond field — read "1 us" as "1 cycle".

Emission call sites are guarded: a subsystem holds ``None`` instead of a
bus until telemetry wiring installs one, so the disabled cost is a single
``is None`` test at per-message-rate sites and nothing at all per
instruction.
"""

from __future__ import annotations

import hashlib
import json
import warnings
from typing import Any, Dict, Iterator, List, Optional, Tuple

__all__ = ["EVENT_KINDS", "EventBus"]

#: The typed event vocabulary.  ``emit`` rejects anything else, so a
#: typo'd kind fails loudly at the instrumentation site.
EVENT_KINDS = frozenset({
    "dispatch",        # a queued message became a running thread
    "restart",         # a suspended thread resumed
    "suspend",         # a thread suspended on a presence fault
    "thread-end",      # a thread retired (SUSPEND instruction)
    "send",            # a message entered the network
    "deliver",         # a message arrived at its destination node
    "queue-overflow",  # a message spilled past the hardware queue
    "xlate-fault",     # an AMT miss took the software reload path
    "task",            # a macro-level handler execution (with duration)
    "run-end",         # a run() call returned (or raised)
    "chaos",           # a fault was injected (name = fault subtype)
    "retry",           # the reliable transport retransmitted a message
    "watchdog",        # the deadlock watchdog tripped
})

#: Chrome trace phase per kind; anything unlisted is an instant marker.
_PHASES = {
    "dispatch": "B",
    "restart": "B",
    "suspend": "E",
    "thread-end": "E",
    "task": "X",
}

#: Flow-event phase per kind, emitted *alongside* the regular event for
#: events carrying a ``span``: a send starts a flow, the delivery steps
#: it, the dispatch (cycle level) or task (macro level) terminates it —
#: which is what renders the send→deliver arrows across node tracks in
#: Perfetto.  The flow id is the span id, so retransmissions of one
#: message join one arrow chain.
_FLOW_PHASES = {
    "send": "s",
    "deliver": "t",
    "dispatch": "f",
    "task": "f",
}

_PRIORITY_NAMES = {0: "P0", 1: "P1", 2: "BG"}

#: Synthetic process id for fabric-wide counter tracks (far above any
#: plausible node id, so it can never collide with a node track).
_FABRIC_PID = 1_000_000


def _link_label(channel) -> str:
    from ..network.observatory import link_name

    return link_name(channel)

# Stored event tuple layout: (ts, kind, node, priority, name, dur, args).
Event = Tuple[int, str, int, int, Optional[str], Optional[int],
              Optional[Dict[str, Any]]]


#: Events a bus keeps before it counts the rest as dropped.
EVENT_LIMIT = 1_000_000


class EventBus:
    """A bounded, append-only log of typed simulation events."""

    __slots__ = ("limit", "events", "dropped")

    def __init__(self, limit: int = EVENT_LIMIT) -> None:
        self.limit = limit
        self.events: List[Event] = []
        self.dropped = 0

    def emit(
        self,
        kind: str,
        ts: int,
        node: int,
        priority: int = 0,
        name: Optional[str] = None,
        dur: Optional[int] = None,
        trace: Optional[tuple] = None,
        **args: Any,
    ) -> None:
        """Record one event at simulated cycle ``ts`` on ``node``.

        ``trace`` is a causal-tracing context ``(trace, span, parent)``
        (:mod:`repro.telemetry.trace`) or None; a context is recorded as
        those three args, None leaves the event exactly as untraced.
        """
        if kind not in EVENT_KINDS:
            raise ValueError(f"unknown event kind {kind!r}")
        if len(self.events) >= self.limit:
            self.dropped += 1
            return
        if trace is not None:
            args["trace"], args["span"], args["parent"] = trace
        self.events.append(
            (int(ts), kind, node, int(priority), name, dur, args or None)
        )

    def __len__(self) -> int:
        return len(self.events)

    def clear(self) -> None:
        self.events.clear()
        self.dropped = 0

    def fingerprint(self) -> str:
        """A stable sha256 of the full stream, in emission order: the
        determinism contract (same seed, plan and workload, same
        events) reduced to a string comparison."""
        digest = hashlib.sha256()
        for ts, kind, node, priority, name, dur, args in self.events:
            payload = (ts, kind, node, priority, name, dur,
                       tuple(sorted(args.items())) if args else None)
            digest.update(repr(payload).encode())
        return digest.hexdigest()

    # -- JSONL ---------------------------------------------------------------

    def iter_dicts(self) -> Iterator[Dict[str, Any]]:
        """Events as plain dicts, in emission order."""
        for ts, kind, node, priority, name, dur, args in self.events:
            record: Dict[str, Any] = {
                "ts": ts, "kind": kind, "node": node, "priority": priority,
            }
            if name is not None:
                record["name"] = name
            if dur is not None:
                record["dur"] = dur
            if args:
                record.update(args)
            yield record

    def _warn_if_truncated(self, path: str) -> None:
        if self.dropped:
            warnings.warn(
                f"EventBus dropped {self.dropped} events past its "
                f"{self.limit}-event limit; {path!r} is a truncated "
                f"trace (raise Telemetry(event_limit=...) to capture "
                f"everything)",
                RuntimeWarning,
                stacklevel=3,
            )

    def write_jsonl(self, path: str) -> int:
        """One JSON object per line; returns the number written.

        Warns (``RuntimeWarning``) when the bus dropped events: a
        truncated stream would otherwise be indistinguishable from a
        complete one.
        """
        count = 0
        with open(path, "w", encoding="utf-8") as fh:
            for record in self.iter_dicts():
                fh.write(json.dumps(record, sort_keys=True))
                fh.write("\n")
                count += 1
        self._warn_if_truncated(path)
        return count

    # -- Chrome trace-event format -------------------------------------------

    def to_chrome_trace(self, counters: bool = False, mesh=None,
                        link_tracks: int = 16) -> Dict[str, Any]:
        """The ``{"traceEvents": [...]}`` dict Perfetto loads.

        Tracks: ``pid`` = node id, ``tid`` = priority level (0 = P0,
        1 = P1, 2 = background), with metadata events naming both.
        Begin/end slices are kept structurally balanced: an end with no
        open slice on its track demotes to an instant marker, and slices
        still open when the log ends are closed at the last timestamp.

        ``counters=True`` additionally emits Perfetto counter ("C")
        tracks, reconstructed offline from the event stream so
        collection stays exactly as cheap as before:

        * a per-node **queue depth** counter (deliver raises it,
          dispatch lowers it — the live occupancy of the message queue);
        * a cumulative **chaos events** counter on a synthetic fabric
          process;
        * with a ``mesh`` (:class:`~repro.network.topology.Mesh3D`),
          cumulative per-link **phit** counters for the ``link_tracks``
          busiest directed channels, recovered by replaying each send
          through the deterministic e-cube router — the timeline twin of
          :class:`~repro.network.observatory.FabricReport`'s totals.

        Both are **off by default**: the exact body layout of the plain
        export is pinned by tests and downstream tooling.
        """
        link_cum: Dict[tuple, int] = {}
        hot_links: set = set()
        send_phits: Dict[int, tuple] = {}
        if counters and mesh is not None:
            from ..core.costs import PHITS_PER_WORD
            from ..network.fabric import FRAMING_PHITS
            from ..network.routing import route

            phits_per_word = PHITS_PER_WORD
            totals: Dict[tuple, int] = {}
            for index, (ts, kind, node, _pri, _name, _dur,
                        args) in enumerate(self.events):
                if kind != "send" or not args or "dest" not in args:
                    continue
                phits = (phits_per_word * args.get("words", 1)
                         + FRAMING_PHITS)
                # The mesh channels: the route less its two ports.
                path = route(mesh, node, args["dest"])[1:-1]
                send_phits[index] = (path, phits)
                for channel in path:
                    totals[channel] = totals.get(channel, 0) + phits
            ranked = sorted(totals.items(), key=lambda kv: (-kv[1], kv[0]))
            hot_links = {channel for channel, _ in ranked[:link_tracks]}
        queue_depth: Dict[int, int] = {}
        chaos_count = 0
        body: List[Dict[str, Any]] = []
        depth: Dict[Tuple[int, int], int] = {}
        tracks = set()
        max_ts = 0
        # Stable sort: fast-path blocks may append run-ahead virtual
        # times before a peer's earlier ones; ties keep emission order.
        for index, (ts, kind, node, priority, name, dur, args) in sorted(
                enumerate(self.events), key=lambda pair: pair[1][0]):
            track = (node, priority)
            tracks.add(track)
            event: Dict[str, Any] = {
                "name": name if name is not None else kind,
                "cat": kind,
                "ph": _PHASES.get(kind, "i"),
                "ts": ts,
                "pid": node,
                "tid": priority,
            }
            if args:
                event["args"] = args
            ph = event["ph"]
            if ph == "X":
                event["dur"] = dur if dur is not None else 0
            elif ph == "B":
                depth[track] = depth.get(track, 0) + 1
            elif ph == "E":
                if depth.get(track, 0) > 0:
                    depth[track] -= 1
                else:
                    event["ph"] = "i"
                    event["s"] = "t"
            if event["ph"] == "i":
                event["s"] = "t"
            end_ts = ts + (dur or 0)
            if end_ts > max_ts:
                max_ts = end_ts
            body.append(event)
            if args and "span" in args:
                flow_ph = _FLOW_PHASES.get(kind)
                if flow_ph is not None:
                    flow: Dict[str, Any] = {
                        "name": "msg",
                        "cat": "flow",
                        "ph": flow_ph,
                        "id": args["span"],
                        "ts": ts,
                        "pid": node,
                        "tid": priority,
                    }
                    if flow_ph == "f":
                        flow["bp"] = "e"  # bind to the enclosing slice
                    body.append(flow)
            if counters:
                if kind in ("deliver", "dispatch"):
                    level = max(0, queue_depth.get(node, 0)
                                + (1 if kind == "deliver" else -1))
                    queue_depth[node] = level
                    body.append({
                        "name": "queue depth", "cat": "counter", "ph": "C",
                        "ts": ts, "pid": node, "tid": 0,
                        "args": {"messages": level},
                    })
                elif kind == "chaos":
                    chaos_count += 1
                    body.append({
                        "name": "chaos events", "cat": "counter", "ph": "C",
                        "ts": ts, "pid": _FABRIC_PID, "tid": 0,
                        "args": {"count": chaos_count},
                    })
                if index in send_phits:
                    path, phits = send_phits[index]
                    for channel in path:
                        if channel not in hot_links:
                            continue
                        link_cum[channel] = link_cum.get(channel, 0) + phits
                        body.append({
                            "name": f"link {_link_label(channel)} phits",
                            "cat": "counter", "ph": "C", "ts": ts,
                            "pid": _FABRIC_PID, "tid": 0,
                            "args": {"phits": link_cum[channel]},
                        })
        for (node, priority), open_slices in sorted(depth.items()):
            for _ in range(open_slices):
                body.append({
                    "name": "(unterminated)", "cat": "span", "ph": "E",
                    "ts": max_ts, "pid": node, "tid": priority,
                })
        meta: List[Dict[str, Any]] = []
        for node in sorted({t[0] for t in tracks}):
            meta.append({
                "name": "process_name", "ph": "M", "ts": 0,
                "pid": node, "tid": 0,
                "args": {"name": f"node {node}"},
            })
        for node, priority in sorted(tracks):
            meta.append({
                "name": "thread_name", "ph": "M", "ts": 0,
                "pid": node, "tid": priority,
                "args": {"name": _PRIORITY_NAMES.get(priority,
                                                     f"t{priority}")},
            })
        if counters and (chaos_count or link_cum):
            meta.append({
                "name": "process_name", "ph": "M", "ts": 0,
                "pid": _FABRIC_PID, "tid": 0,
                "args": {"name": "fabric"},
            })
        return {"traceEvents": meta + body, "displayTimeUnit": "ms"}

    def write_chrome_trace(self, path: str, counters: bool = False,
                           mesh=None, link_tracks: int = 16) -> int:
        """Write the Perfetto-loadable JSON; returns the event count.

        ``counters``/``mesh``/``link_tracks`` pass through to
        :meth:`to_chrome_trace`.  Warns (``RuntimeWarning``) when the
        bus dropped events — see :meth:`write_jsonl`.
        """
        trace = self.to_chrome_trace(counters=counters, mesh=mesh,
                                     link_tracks=link_tracks)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(trace, fh)
        self._warn_if_truncated(path)
        return len(trace["traceEvents"])
