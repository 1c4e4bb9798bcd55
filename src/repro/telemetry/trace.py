"""Causal message tracing and critical-path analysis.

The aggregate counters (metrics, Figure 6 breakdowns) say how much time
went to each overhead category; they cannot say *which* overheads bound
speedup.  That is a causality question: which message caused which
handler, and what chain of sends, queue waits, dispatches, and handler
executions forms the longest dependency path of the run.  This module
supplies both halves:

* **Trace context** (:class:`TraceState`) — a deterministic allocator of
  ``(trace_id, span_id, parent_span)`` triples.  Every traced message
  carries one; a handler's sends become children of the message that
  dispatched it, so a whole run decomposes into trees of spans rooted at
  the host injections.  Retransmissions (the reliable transport's
  retries) reuse the original span, so a retry chain is one span with a
  visible retry count, not a forest of unrelated messages.
* **Causal graph** (:class:`CausalGraph`) — rebuilt offline from the
  telemetry event stream (``send`` / ``deliver`` / ``dispatch`` /
  ``task`` / ``thread-end`` events stamped with span fields).  It
  computes the **critical path** from first inject to run-end and
  attributes every cycle of it to the paper's categories: ``compute``,
  ``dispatch``, ``send`` (the sender-side overhead), ``net`` (wire
  time), ``sync`` (queue wait + suspension), ``xlate`` (naming).
  ``total work / critical path`` is the run's *available parallelism* —
  the quantity that explains where the Figure 5 speedup curves knee.

The critical path is found by walking backwards from the last-finishing
span.  At each span the binding constraint on its start is identified:

* **message-bound** — the span started as soon as its message arrived:
  the path continues through the network to the *parent* span, entering
  it at the cycle the send was issued;
* **queue-bound** — the span's message had already arrived but the node
  was busy: the path continues through the task whose completion freed
  the node (the classic resource edge of request-tracing systems).

Cycle accounting tiles the path exactly: wire time between a send and
its delivery is ``net``, time between delivery and dispatch is ``sync``
(queue wait), and each span's executed portion is split using the
per-task category breakdown recorded in its ``task`` event (macro
level) or dispatch/suspend/restart timestamps (cycle level).
"""

from __future__ import annotations

import bisect
import json
from typing import (Any, Dict, Iterable, List, Optional, Sequence, Tuple)

from ..core.costs import DEFAULT_COSTS

__all__ = [
    "TraceState",
    "Span",
    "PathStep",
    "CriticalPath",
    "CausalGraph",
    "PATH_CATEGORIES",
]

#: A trace context as carried on messages: (trace_id, span_id, parent).
TraceContext = Tuple[int, int, Optional[int]]

#: The categories critical-path cycles are attributed to (paper order).
PATH_CATEGORIES = ("compute", "dispatch", "send", "net", "sync", "xlate")

#: Macro profile categories -> path categories.
_CAT_MAP = {
    "compute": "compute",
    "dispatch": "dispatch",
    "comm": "send",
    "sync": "sync",
    "xlate": "xlate",
    "nnr": "xlate",  # node-number translation is naming overhead
}


class TraceState:
    """Deterministic allocator of trace contexts.

    One instance is shared by everything attached to a
    :class:`~repro.telemetry.Telemetry` rig, so span ids are unique
    across both simulation levels of a run.  Allocation is a pair of
    counters — no wall clock, no randomness — so a rerun of the same
    workload produces the identical id stream (the same determinism
    contract the chaos engine keeps).
    """

    __slots__ = ("_next_trace", "_next_span")

    def __init__(self) -> None:
        self._next_trace = 1
        self._next_span = 1

    def root(self) -> TraceContext:
        """A fresh trace with its root span (a host injection)."""
        trace = self._next_trace
        self._next_trace += 1
        span = self._next_span
        self._next_span += 1
        return (trace, span, None)

    def child(self, parent: TraceContext) -> TraceContext:
        """A new span caused by ``parent`` (same trace)."""
        span = self._next_span
        self._next_span += 1
        return (parent[0], span, parent[1])

    def derive(self, parent: Optional[TraceContext]) -> TraceContext:
        """Child of ``parent``, or a fresh root when there is none."""
        return self.root() if parent is None else self.child(parent)


class Span:
    """Everything the event stream said about one traced message."""

    __slots__ = (
        "span", "trace", "parent", "name", "src", "dest", "priority",
        "send_ts", "deliver_ts", "start_ts", "end_ts", "cats",
        "suspends", "restarts", "retries",
    )

    def __init__(self, span: int) -> None:
        self.span = span
        self.trace: Optional[int] = None
        self.parent: Optional[int] = None
        self.name: Optional[str] = None
        self.src: Optional[int] = None
        self.dest: Optional[int] = None
        self.priority = 0
        self.send_ts: Optional[int] = None
        self.deliver_ts: Optional[int] = None
        self.start_ts: Optional[int] = None
        self.end_ts: Optional[int] = None
        #: Per-category cycle breakdown of the handler execution (macro
        #: ``task`` events record it; None at the cycle level).
        self.cats: Optional[Dict[str, int]] = None
        self.suspends: List[int] = []
        self.restarts: List[int] = []
        self.retries = 0

    @property
    def executed(self) -> int:
        """Cycles of node occupancy (dispatch through completion)."""
        if self.start_ts is None or self.end_ts is None:
            return 0
        return max(0, self.end_ts - self.start_ts)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Span({self.span}, trace={self.trace}, "
                f"parent={self.parent}, name={self.name!r}, "
                f"[{self.send_ts}->{self.deliver_ts}->{self.start_ts}"
                f"->{self.end_ts}])")


class PathStep:
    """One span's contribution to the critical path."""

    __slots__ = ("span", "enter", "exit", "segments", "link")

    def __init__(self, span: Span, enter: int, exit: int,
                 segments: Dict[str, float], link: str) -> None:
        self.span = span
        #: Cycle the path enters this span's causal region.
        self.enter = enter
        #: Cycle the path hands off to the next step.
        self.exit = exit
        #: Category -> cycles for [enter, exit] (tiles it exactly).
        self.segments = segments
        #: How the path left the *previous* step: "inject" (path start),
        #: "message" (a send caused this span), "queue" (this span's
        #: completion freed the node the next span was waiting for).
        self.link = link


class CriticalPath:
    """The longest dependency chain of a run, with cycle attribution."""

    def __init__(self, steps: List[PathStep], total_work: int,
                 n_nodes: int) -> None:
        self.steps = steps
        self.total_work = total_work
        self.n_nodes = n_nodes

    @property
    def start(self) -> int:
        return self.steps[0].enter if self.steps else 0

    @property
    def end(self) -> int:
        return self.steps[-1].exit if self.steps else 0

    @property
    def length(self) -> int:
        """Cycles from the path's first inject to its final completion."""
        return self.end - self.start

    @property
    def connected(self) -> bool:
        """Every step hands off exactly where the next one picks up."""
        if not self.steps:
            return False
        if self.steps[0].span.parent is not None:
            return False  # did not reach a root injection
        return all(self.steps[i].exit == self.steps[i + 1].enter
                   for i in range(len(self.steps) - 1))

    @property
    def acyclic(self) -> bool:
        """No span appears twice (guarded during construction)."""
        seen = set()
        for step in self.steps:
            if step.span.span in seen:
                return False
            seen.add(step.span.span)
        return True

    def categories(self) -> Dict[str, float]:
        """Critical-path cycles by category (sums to :attr:`length`)."""
        out = {name: 0.0 for name in PATH_CATEGORIES}
        for step in self.steps:
            for name, cycles in step.segments.items():
                out[name] = out.get(name, 0.0) + cycles
        return out

    @property
    def available_parallelism(self) -> float:
        """Total work over critical path: the speedup ceiling."""
        return self.total_work / self.length if self.length else 0.0

    def format(self, limit: int = 0) -> str:
        """A human-readable report (the CLI's output)."""
        lines = [
            f"critical path: {len(self.steps)} spans, "
            f"t={self.start} -> t={self.end} "
            f"({self.length} cycles)",
            f"  connected: {'yes' if self.connected else 'NO'}   "
            f"acyclic: {'yes' if self.acyclic else 'NO'}",
        ]
        cats = self.categories()
        total = sum(cats.values())
        lines.append("  category attribution:")
        for name in PATH_CATEGORIES:
            cycles = cats.get(name, 0.0)
            share = cycles / total if total else 0.0
            lines.append(f"    {name:<9} {cycles:>14.0f}  {share:>6.1%}")
        lines.append(f"    {'total':<9} {total:>14.0f}  "
                     f"(path length {self.length})")
        lines.append(f"  total work: {self.total_work} cycles on "
                     f"{self.n_nodes} nodes")
        lines.append(f"  available parallelism: "
                     f"{self.available_parallelism:.2f}x")
        if limit:
            lines.append("  hottest path steps:")
            ranked = sorted(self.steps,
                            key=lambda s: s.exit - s.enter, reverse=True)
            for step in ranked[:limit]:
                span = step.span
                lines.append(
                    f"    span {span.span:>7} {span.name or '?':<16} "
                    f"node {span.dest if span.dest is not None else '?':>4} "
                    f"[{step.enter}..{step.exit}] "
                    f"({step.exit - step.enter} cy, via {step.link})")
        return "\n".join(lines)


class CausalGraph:
    """The span graph of one traced run, rebuilt from its event stream."""

    def __init__(self) -> None:
        self.spans: Dict[int, Span] = {}
        self.run_end_ts: Optional[int] = None
        self.n_events = 0
        self.n_traced_events = 0

    # -- construction --------------------------------------------------------

    @classmethod
    def from_events(cls, events: Iterable[Dict[str, Any]]) -> "CausalGraph":
        """Build from an iterable of event dicts (JSONL records)."""
        graph = cls()
        for record in events:
            graph._ingest(record)
        return graph

    @classmethod
    def from_jsonl(cls, path: str) -> "CausalGraph":
        """Build from a ``write_jsonl`` file."""
        graph = cls()
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if line:
                    graph._ingest(json.loads(line))
        return graph

    @classmethod
    def from_bus(cls, bus) -> "CausalGraph":
        """Build straight from a live :class:`EventBus`."""
        return cls.from_events(bus.iter_dicts())

    def _span(self, record: Dict[str, Any]) -> Span:
        sid = record["span"]
        span = self.spans.get(sid)
        if span is None:
            span = self.spans[sid] = Span(sid)
        if span.trace is None:
            span.trace = record.get("trace")
        if span.parent is None:
            span.parent = record.get("parent")
        return span

    def _ingest(self, record: Dict[str, Any]) -> None:
        self.n_events += 1
        kind = record["kind"]
        ts = record["ts"]
        if kind == "run-end":
            if self.run_end_ts is None or ts > self.run_end_ts:
                self.run_end_ts = ts
            return
        if "span" not in record:
            return
        self.n_traced_events += 1
        span = self._span(record)
        if kind == "send":
            # Retransmits re-send the same span: the first send is the
            # causal one; later ones only bump the retry count.
            if span.send_ts is None or ts < span.send_ts:
                span.send_ts = ts
                span.src = record["node"]
                span.dest = record.get("dest", span.dest)
                span.priority = record.get("priority", 0)
                if span.name is None:
                    span.name = record.get("name")
        elif kind == "deliver":
            if span.deliver_ts is None or ts < span.deliver_ts:
                span.deliver_ts = ts
                span.dest = record["node"]
                if span.name is None:
                    span.name = record.get("name")
        elif kind == "dispatch":
            if span.start_ts is None or ts < span.start_ts:
                span.start_ts = ts
                span.dest = record["node"]
                if span.name is None:
                    span.name = record.get("name")
        elif kind == "task":
            if span.start_ts is None or ts < span.start_ts:
                span.start_ts = ts
                span.end_ts = ts + record.get("dur", 0)
                span.dest = record["node"]
                span.name = record.get("name", span.name)
                cats = record.get("cats")
                if cats:
                    span.cats = dict(cats)
        elif kind == "thread-end":
            if span.end_ts is None or ts > span.end_ts:
                span.end_ts = ts
        elif kind == "suspend":
            span.suspends.append(ts)
        elif kind == "restart":
            span.restarts.append(ts)
        elif kind == "retry":
            span.retries += 1

    # -- queries -------------------------------------------------------------

    @property
    def n_spans(self) -> int:
        return len(self.spans)

    @property
    def n_traces(self) -> int:
        return len({s.trace for s in self.spans.values()
                    if s.trace is not None})

    def children(self) -> Dict[Optional[int], List[int]]:
        """parent span id -> child span ids."""
        out: Dict[Optional[int], List[int]] = {}
        for span in self.spans.values():
            out.setdefault(span.parent, []).append(span.span)
        return out

    def total_work(self) -> int:
        """Sum of node-occupancy cycles over every executed span."""
        return sum(span.executed for span in self.spans.values())

    def n_nodes(self) -> int:
        nodes = {s.dest for s in self.spans.values() if s.dest is not None}
        nodes |= {s.src for s in self.spans.values() if s.src is not None}
        return len(nodes)

    def validate(self) -> List[str]:
        """Structural problems worth surfacing (dangling parents, cycles)."""
        problems = []
        dangling = sum(1 for s in self.spans.values()
                       if s.parent is not None and s.parent not in self.spans)
        if dangling:
            problems.append(
                f"{dangling} spans reference a parent absent from the "
                f"stream (dropped events or a truncated trace?)")
        # Cycle check on parent edges (iterative, path-marking).
        state: Dict[int, int] = {}  # 0 visiting, 1 done
        for start in self.spans:
            if start in state:
                continue
            chain = []
            node: Optional[int] = start
            while node is not None and node in self.spans \
                    and node not in state:
                state[node] = 0
                chain.append(node)
                node = self.spans[node].parent
            if node is not None and state.get(node) == 0:
                problems.append(f"parent cycle through span {node}")
                break
            for sid in chain:
                state[sid] = 1
        return problems

    # -- the critical path ---------------------------------------------------

    def _exec_segments(self, span: Span, enter: int, cut: int,
                       dispatch_cycles: int) -> Dict[str, float]:
        """Split this span's executed portion [enter, cut] by category."""
        segments: Dict[str, float] = {}
        window = cut - enter
        if window <= 0:
            return segments
        if span.cats:
            # Macro level: scale the recorded per-task breakdown to the
            # executed portion so the segments tile [enter, cut] exactly.
            total = sum(span.cats.values())
            if total > 0:
                scale = window / total
                for name, cycles in span.cats.items():
                    key = _CAT_MAP.get(name, "compute")
                    segments[key] = segments.get(key, 0.0) + cycles * scale
                return segments
        # Cycle level: the hardware dispatch, then suspension intervals
        # (sync), then everything else is computation.
        dispatch = float(min(dispatch_cycles, window))
        segments["dispatch"] = dispatch
        suspended = 0.0
        for i, sus in enumerate(span.suspends):
            res = (span.restarts[i] if i < len(span.restarts)
                   else cut)
            lo = max(enter, min(sus, cut))
            hi = max(enter, min(res, cut))
            suspended += hi - lo
        suspended = min(suspended, window - dispatch)
        if suspended > 0:
            segments["sync"] = suspended
        segments["compute"] = window - dispatch - suspended
        return segments

    def critical_path(self, dispatch_cycles: int = DEFAULT_COSTS.dispatch
                      ) -> CriticalPath:
        """Walk back from the last completion to its causal root."""
        executed = [s for s in self.spans.values()
                    if s.start_ts is not None and s.end_ts is not None]
        if not executed:
            return CriticalPath([], 0, 0)

        # Per-node completion index for resource (queue) edges.
        by_node: Dict[int, List[Tuple[int, int]]] = {}
        for span in executed:
            by_node.setdefault(span.dest, []).append(
                (span.end_ts, span.span))
        for entries in by_node.values():
            entries.sort()

        def freeing_span(node: int, start: int, not_span: int
                         ) -> Optional[Span]:
            """Latest span on ``node`` completing at or before ``start``."""
            entries = by_node.get(node)
            if not entries:
                return None
            idx = bisect.bisect_right(entries, (start, float("inf"))) - 1
            while idx >= 0:
                end_ts, sid = entries[idx]
                if sid != not_span:
                    return self.spans[sid]
                idx -= 1
            return None

        terminal = max(executed, key=lambda s: (s.end_ts, s.span))
        steps: List[PathStep] = []
        visited = set()
        cur = terminal
        cut = terminal.end_ts
        while True:
            if cur.span in visited:
                break  # defensive: corrupt stream; keep what we have
            visited.add(cur.span)
            start = cur.start_ts
            ready = cur.deliver_ts if cur.deliver_ts is not None \
                else (cur.send_ts if cur.send_ts is not None else start)
            parent = (self.spans.get(cur.parent)
                      if cur.parent is not None else None)
            if parent is not None and (parent.start_ts is None
                                       or parent.end_ts is None):
                parent = None  # parent never executed; treat as root
            wait = start - ready
            pred = None
            if wait > 0:
                candidate = freeing_span(cur.dest, start, cur.span)
                if candidate is not None and candidate.end_ts >= ready \
                        and candidate.span not in visited:
                    pred = candidate

            segments = self._exec_segments(cur, start, cut, dispatch_cycles)
            if pred is not None:
                # Queue-bound: the node freed at pred.end; any residual
                # gap until dispatch is synchronization.
                gap = start - pred.end_ts
                if gap > 0:
                    segments["sync"] = segments.get("sync", 0.0) + gap
                steps.append(PathStep(cur, pred.end_ts, cut, segments,
                                      "queue"))
                cur, cut = pred, pred.end_ts
                continue
            if parent is not None and cur.send_ts is not None \
                    and parent.span not in visited \
                    and parent.start_ts <= cur.send_ts:
                # Message-bound: wire time then queue wait then execution.
                if wait > 0:
                    segments["sync"] = segments.get("sync", 0.0) + wait
                net = ready - cur.send_ts
                if net > 0:
                    segments["net"] = segments.get("net", 0.0) + net
                steps.append(PathStep(cur, cur.send_ts, cut, segments,
                                      "message"))
                cur, cut = parent, cur.send_ts
                continue
            # Root (or unexplainable): the path starts here.  A root
            # injection still has wire time from its inject-site send.
            enter = start
            if wait > 0:
                segments["sync"] = segments.get("sync", 0.0) + wait
                enter = ready
            if cur.send_ts is not None and ready > cur.send_ts:
                segments["net"] = (segments.get("net", 0.0)
                                   + (ready - cur.send_ts))
                enter = cur.send_ts
            steps.append(PathStep(cur, enter, cut, segments, "inject"))
            break

        steps.reverse()
        return CriticalPath(steps, self.total_work(), self.n_nodes())

    # -- rendering -----------------------------------------------------------

    def summary(self) -> str:
        parts = [
            f"spans: {self.n_spans} (from {self.n_traced_events} traced "
            f"of {self.n_events} events), traces: {self.n_traces}",
        ]
        if self.run_end_ts is not None:
            parts.append(f"run end: t={self.run_end_ts}")
        problems = self.validate()
        for problem in problems:
            parts.append(f"warning: {problem}")
        return "\n".join(parts)
