"""The every-task-ends-with-an-event loop: the test oracle for the macro engine.

:class:`ReferenceSimulator` is the macro simulator as it ran before the
engine learned to visit a node only when it can change: every task
start pushes its COMPLETE event, every arrival goes through the node's
``deque`` and :meth:`_start_task`, and ``now`` is the time of the last
popped event.  It overrides ``run`` only (plus the ``_start_task`` it
calls) — ``post``, ``inject``, ``schedule_call``, ``Context``, the
latency model, chaos and the snapshot code are the shared
:class:`~repro.jsim.sim.MacroSimulator` code — so a difference between
the two is a difference in *which events the loop schedules and when it
visits a node*, which is exactly what the engine changes.  The bodies
below are the former ``MacroSimulator._start_task`` / ``run`` verbatim
(a task's charges now reach the profile and the handler's stats through
the shared ``Context.fold``); do not optimise them.
"""

import heapq
from typing import Optional

from repro.core.errors import SimulationError
from repro.core.hooks import RunHooks
from repro.jsim.sim import Context, MacroSimulator, SimNode
from repro.snapshot.state import capture_macro


def observable_state(sim: MacroSimulator) -> dict:
    """Everything the engine must agree with the oracle on: the whole
    capture tree (clocks, ``_seq``, node profiles / ``busy_until`` /
    ``running`` / queues / high-water, handler stats, the latency
    model's state) with the heap in pop order — the engine's heap holds
    the same events, but it got there by different pushes — and the
    telemetry stream reduced to a digest."""
    tree = capture_macro(sim)
    tree["events"] = sorted(tree["events"], key=lambda event: event[:2])
    if tree.pop("telemetry") is not None:
        tree["event_stream_sha256"] = sim.telemetry.events.fingerprint()
    return tree


class ReferenceSimulator(MacroSimulator):
    """Two heap events and one ``deque`` round trip per message."""

    def _start_task(self, node: SimNode, start: int) -> None:
        """Dispatch and run the highest-priority queued task on ``node``.

        The handler executes immediately (it is a Python function) but
        its *simulated* extent is [start, start + dispatch + charges];
        the node is busy until then and a completion event continues the
        queue.  Priority-1 tasks are taken first; a running task is not
        preempted (priority-1 work waits for the task boundary, which is
        exactly how the paper's TSP yields to bound updates).
        """
        queues = node.queues
        priority = 1 if queues[1] else 0
        queue = queues[priority]
        handler_name, args, trace = queue.popleft()
        self.handler_stats[handler_name].invocations += 1
        dispatch = self.config.dispatch_cycles
        node.profile.__dict__["comm"] += dispatch
        ctx = Context(self, node, start + dispatch, trace)
        self.handlers[handler_name](ctx, *args)
        ctx.fold(self.handler_stats[handler_name])
        end = ctx.start_time + ctx.charged
        if self._ebus is not None:
            if trace is None:
                self._ebus.emit("task", start, node.node_id, priority,
                                name=handler_name, dur=end - start)
            else:
                # The recorded breakdown covers the task exactly: the
                # hardware dispatch plus every cycle the context charged.
                cats = ctx.cats
                cats["dispatch"] = dispatch
                self._ebus.emit("task", start, node.node_id, priority,
                                name=handler_name, dur=end - start,
                                trace=trace, cats=cats)
        node.busy_until = end
        node.running = True
        if end > self.end_time:
            self.end_time = end
        heapq.heappush(
            self._events,
            (end, self._seq, self._COMPLETE, node.node_id, None, (), 0, 0,
             None),
        )
        self._seq += 1

    def run(self, max_events: int = 200_000_000,
            max_time: Optional[int] = None) -> int:
        """Process events until quiescent; returns the finish time.

        The finish time is when the last task completed, which is the
        application's run time if the host injected the kickoff at 0.
        """
        events = self._events
        nodes = self.nodes
        handler_stats = self.handler_stats
        heappop = heapq.heappop
        complete = self._COMPLETE
        timer = self._TIMER
        start_task = self._start_task
        ebus = self._ebus
        # Simulated time only advances when the next event is processed,
        # so observers are armed and polled at that event's time (saves
        # are recorded there, or back-to-back saves would loop on one
        # long gap); it is never before ``self.now``, because nothing is
        # scheduled into the past.  Both observers are read-only: the
        # event stream is unchanged.
        hooks = RunHooks(self, events[0][0], max_time,
                         self.checkpoint, self.sampler) if events else None
        processed = 0
        while events:
            horizon = events[0][0]
            if horizon >= hooks.next_due:
                hooks.fire(horizon)
            (time, seq, kind, dest, handler_name, args, length, priority,
             trace) = heappop(events)
            if max_time is not None and time > max_time:
                # Not ours to process: put the event back so a later
                # run (or a checkpoint taken now) still sees it.
                heapq.heappush(events, (time, seq, kind, dest, handler_name,
                                        args, length, priority, trace))
                break
            self.now = time
            if kind == timer:
                args[0](time)
                processed += 1
                if processed >= max_events:
                    raise SimulationError(
                        "macro simulation exceeded max_events")
                continue
            node = nodes[dest]
            queues = node.queues
            if kind == complete:
                node.running = False
                if queues[0] or queues[1]:
                    start_task(node, time)
            else:
                node.messages_received += 1
                handler_stats[handler_name].message_words += length
                if ebus is not None:
                    ebus.emit("deliver", time, dest, 1 if priority else 0,
                              name=handler_name, trace=trace)
                queues[1 if priority else 0].append(
                    (handler_name, args, trace))
                depth = len(queues[0]) + len(queues[1])
                if depth > node.queue_high_water:
                    node.queue_high_water = depth
                if not node.running and node.busy_until <= time:
                    start_task(node, time)
            processed += 1
            if processed >= max_events:
                raise SimulationError("macro simulation exceeded max_events")
        if ebus is not None:
            # Mirror the cycle level's end-of-run marker so the offline
            # critical-path analyzer sees the run extent at both levels.
            ebus.emit("run-end", self.end_time, -1)
        return self.end_time
