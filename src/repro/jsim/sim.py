"""The event-driven macro simulator: message handlers with cycle costs.

This is the second simulation level described in DESIGN.md.  Applications
are written as Python *message handlers* registered by name; the
simulator provides exactly the J-Machine execution model:

* messages carry a handler name and arguments; arrival creates a task;
* each node runs one task at a time (priority 1 ahead of priority 0),
  paying the 4-cycle hardware dispatch per task;
* handlers charge cycles for the work they (conceptually) execute via
  :meth:`Context.charge` / :meth:`Context.xlate` / :meth:`Context.nnr`,
  and those charges advance the node's clock;
* sends pay the sender-side overhead the micro-benchmarks measure
  (format + inject), then the network model decides the arrival time.

Because handlers do the *real* computation on real data (actual strings,
keys, chess boards, tours), application results are verifiable, and
effects like load imbalance, systolic skew, pruning-order luck, and
bisection saturation emerge from the simulation rather than being
scripted.

The engine (:meth:`MacroSimulator.run`) is message-driven like the MDP
it models: a node is visited only by an event that can change it
(docs/PERFORMANCE.md §2, "The macro engine").  The loop it replaced, one
COMPLETE event per task, is the test oracle
``tests/jsim/reference_engine.py``.
"""

from __future__ import annotations

import heapq
import sys
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from ..core.costs import CostModel, DEFAULT_COSTS
from ..core.errors import ConfigurationError, SimulationError
from ..core.hooks import RunHooks
from ..network.topology import Mesh3D
from .netmodel import LatencyModel
from .profile import Profile, _CATEGORY_SET

__all__ = ["MacroSimulator", "Context", "SimNode", "HandlerStats", "MacroConfig"]

Handler = Callable[..., None]


@dataclass
class MacroConfig:
    """Tunables of the macro simulation level."""

    #: Default cycles charged per abstract instruction.  The paper quotes
    #: a typical rate of 5.5 MIPS at 12.5 MHz (~2.3 cycles/instruction)
    #: with code and data on chip; tuned inner loops run faster.
    cycles_per_instruction: float = 2.0
    #: Sender-side fixed overhead per message (format + inject), cycles.
    send_overhead_cycles: int = 4
    #: Additional sender cycles per message word (SEND2 = 2 words/cycle).
    send_per_word_cycles: float = 0.5
    #: Hardware dispatch cost at the receiver, cycles.
    dispatch_cycles: int = 4
    #: Cycles for a successful xlate.
    xlate_cycles: int = 3
    #: Cycles for an xlate miss (fault + software reload).
    xlate_fault_cycles: int = 40
    #: Cycles to convert a node index to a router address in software.
    nnr_cycles: int = 6


@dataclass
class HandlerStats:
    """Per-handler invocation statistics (Table 4's raw material)."""

    invocations: int = 0
    instructions: int = 0
    cycles: int = 0
    message_words: int = 0

    @property
    def instructions_per_thread(self) -> float:
        return self.instructions / self.invocations if self.invocations else 0.0

    @property
    def mean_message_words(self) -> float:
        return self.message_words / self.invocations if self.invocations else 0.0


class SimNode:
    """One node of the macro-simulated machine."""

    __slots__ = ("node_id", "busy_until", "running", "reserved", "queues",
                 "profile", "state", "queue_high_water", "messages_received")

    def __init__(self, node_id: int) -> None:
        self.node_id = node_id
        self.busy_until = 0
        #: A task has started whose completion the loop has not yet
        #: accounted for (it may already lie in the past, see below).
        self.running = False
        #: Sequence number reserved for the running task's COMPLETE
        #: event while that event is *not* in the heap; -1 once it has
        #: been pushed, or when nothing is running.
        self.reserved = -1
        # index 0: priority 0 FIFO; index 1: priority 1 FIFO.
        self.queues: Tuple[Deque, Deque] = (deque(), deque())
        self.profile = Profile()
        #: Application-owned per-node storage (the node's "memory").
        self.state: Dict[str, Any] = {}
        self.queue_high_water = 0
        self.messages_received = 0


class Context:
    """The handler's window onto its node and the machine.

    A fresh context is passed to every handler invocation.  Cycle charges
    accumulate on the context and are folded into the node's busy time
    when the handler returns; sends are timestamped at the charge level
    reached when they are issued, so a message sent after 1000 charged
    cycles leaves 1000 cycles into the task.
    """

    __slots__ = ("sim", "node", "node_id", "state", "start_time", "charged",
                 "_config", "_profile", "_stats", "trace", "_cats")

    def __init__(self, sim: "MacroSimulator", node: SimNode, start_time: int,
                 stats: HandlerStats, trace: Optional[tuple] = None) -> None:
        self.sim = sim
        self.node = node
        self.node_id = node.node_id
        #: The node's application-owned storage (``SimNode.state``).
        self.state = node.state
        self.start_time = start_time
        self.charged = 0
        # Hoisted once per task: charge()/send() run millions of times
        # per application, and these three indirections dominated them.
        # _profile is the Profile's attribute dict so category charges
        # are plain dict updates (the keys are validated against the
        # category set, exactly as Profile.charge does).
        self._config = sim.config
        self._profile = node.profile.__dict__
        self._stats = stats
        #: Trace context of the message that created this task; sends
        #: become child spans of it (:mod:`repro.telemetry.trace`).
        self.trace = trace
        # Per-task category breakdown, recorded on the task event so the
        # critical-path analyzer can attribute this task's cycles.  Only
        # maintained for traced tasks — untraced runs keep every charge
        # site on a single ``is None`` test.
        self._cats: Optional[Dict[str, int]] = \
            {} if trace is not None else None

    # -- identity ----------------------------------------------------------

    @property
    def n_nodes(self) -> int:
        return self.sim.n_nodes

    @property
    def now(self) -> int:
        """Task-local current time (start + cycles charged so far)."""
        return self.start_time + self.charged

    # -- cost accounting ------------------------------------------------------

    def charge(
        self,
        instructions: int = 0,
        cycles: Optional[int] = None,
        category: str = "compute",
    ) -> None:
        """Account for ``instructions`` of work (or explicit ``cycles``)."""
        if cycles is None:
            cycles = int(round(instructions * self._config.cycles_per_instruction))
        if category not in _CATEGORY_SET:
            raise ValueError(f"unknown profile category {category!r}")
        profile = self._profile
        profile[category] += cycles
        profile["instructions"] += instructions
        self.charged += cycles
        stats = self._stats
        stats.instructions += instructions
        stats.cycles += cycles
        cats = self._cats
        if cats is not None:
            cats[category] = cats.get(category, 0) + cycles

    def xlate(self, count: int = 1, fault: bool = False) -> None:
        """Charge ``count`` name translations (Table 5's xlate columns)."""
        config = self._config
        cycles = count * (config.xlate_fault_cycles if fault else config.xlate_cycles)
        profile = self._profile
        profile["xlate"] += cycles
        profile["xlate_count"] += count
        if fault:
            profile["xlate_faults"] += count
        self.charged += cycles
        self._stats.cycles += cycles
        cats = self._cats
        if cats is not None:
            cats["xlate"] = cats.get("xlate", 0) + cycles

    def nnr(self, count: int = 1) -> None:
        """Charge node-index-to-router-address conversions (Figure 6)."""
        cycles = count * self._config.nnr_cycles
        self._profile["nnr"] += cycles
        self.charged += cycles
        self._stats.cycles += cycles
        cats = self._cats
        if cats is not None:
            cats["nnr"] = cats.get("nnr", 0) + cycles

    def sync(self, cycles: int) -> None:
        """Charge synchronization overhead (suspends, null yields)."""
        self._profile["sync"] += cycles
        self.charged += cycles
        self._stats.cycles += cycles
        cats = self._cats
        if cats is not None:
            cats["sync"] = cats.get("sync", 0) + cycles

    # -- communication ----------------------------------------------------------

    def send(
        self,
        dest: int,
        handler: str,
        *args: Any,
        length: Optional[int] = None,
        priority: int = 0,
    ) -> None:
        """Send a message; the sender pays injection overhead now."""
        if length is None:
            length = 1 + len(args)
        sim = self.sim
        try:
            overhead = sim._send_cost[length]
        except KeyError:
            config = self._config
            overhead = sim._send_cost[length] = config.send_overhead_cycles \
                + int(round(config.send_per_word_cycles * length))
        self._profile["comm"] += overhead
        self.charged += overhead
        self._stats.cycles += overhead
        cats = self._cats
        if cats is not None:
            cats["comm"] = cats.get("comm", 0) + overhead
        trace = None
        trace_state = sim._trace
        if trace_state is not None:
            trace = trace_state.derive(self.trace)
        # Through the instance: a ReliableLayer shadows ``post``.
        sim.post(self.node_id, dest, handler, args, length, priority,
                 self.start_time + self.charged, trace)

    def call_local(self, handler: str, *args: Any, length: Optional[int] = None,
                   priority: int = 0) -> None:
        """A local asynchronous invocation (message to self)."""
        self.send(self.node_id, handler, *args, length=length, priority=priority)


class MacroSimulator:
    """Event-driven machine: nodes, handlers, network model, clock."""

    def __init__(
        self,
        n_nodes: int,
        config: Optional[MacroConfig] = None,
        costs: CostModel = DEFAULT_COSTS,
        mesh: Optional[Mesh3D] = None,
        telemetry=None,
    ) -> None:
        self.mesh = mesh if mesh is not None else Mesh3D.for_nodes(n_nodes)
        if self.mesh.n_nodes != n_nodes:
            raise ConfigurationError("mesh size does not match n_nodes")
        self.n_nodes = n_nodes
        self.config = config if config is not None else MacroConfig()
        self.costs = costs
        self.network = LatencyModel(self.mesh, costs)
        self.nodes = [SimNode(i) for i in range(n_nodes)]
        self.handlers: Dict[str, Handler] = {}
        self.handler_stats: Dict[str, HandlerStats] = {}
        #: name -> (handler, its stats record), bound once by
        #: :meth:`register` so the loop makes one probe per task.
        self._bound: Dict[str, Tuple[Handler, HandlerStats]] = {}
        #: message length -> sender-side cycles, filled on first use
        #: (``config`` is read when a length is first sent).
        self._send_cost: Dict[int, int] = {}
        self.now = 0
        self.end_time = 0
        self.messages_sent = 0
        # Flat event tuples: (time, seq, kind, dest, handler, args,
        # length, priority); COMPLETE events carry placeholder fields.
        self._events: List[Tuple[int, int, int, int, Optional[str], tuple,
                                 int, int]] = []
        self._seq = 0
        #: Attached telemetry rig (see :mod:`repro.telemetry`), or None.
        #: ``_ebus`` is the event bus alone; the metric sources are
        #: pull-based and never touch the run loop.
        self.telemetry = telemetry
        self._ebus = None
        #: Fault-injection engine (installed by
        #: ``ChaosEngine.attach_macro``); None keeps :meth:`post` on its
        #: cheap ``is None`` branch.
        self._chaos = None
        #: Causal-tracing allocator (:mod:`repro.telemetry.trace`),
        #: installed by the wiring when ``Telemetry(trace=True)``.
        self._trace = None
        #: When set (by :class:`~repro.runtime.futures.FuturePool`
        #: around a kickoff), :meth:`inject` joins this trace context
        #: instead of rooting a new one, so request reissues stay in the
        #: original request's trace.
        self._inject_trace = None
        #: Optional :class:`~repro.snapshot.CheckpointPolicy`; when set,
        #: :meth:`run` saves periodic checkpoints between events.
        self.checkpoint = None
        #: Optional :class:`~repro.telemetry.live.LiveSampler`; when
        #: set, :meth:`run` takes periodic read-only metric snapshots
        #: between events, at the same horizon checkpoints use.
        self.sampler = None
        if telemetry is not None:
            from ..telemetry.wiring import instrument_macro

            instrument_macro(self, telemetry)

    # -- setup --------------------------------------------------------------

    def register(self, name: str, handler: Handler) -> None:
        """Register a message handler under ``name``."""
        if name in self.handlers:
            raise ConfigurationError(f"handler {name!r} already registered")
        self.handlers[name] = handler
        stats = self.handler_stats[name] = HandlerStats()
        self._bound[name] = (handler, stats)

    def handler(self, name: str) -> Callable[[Handler], Handler]:
        """Decorator form of :meth:`register`."""

        def wrap(fn: Handler) -> Handler:
            self.register(name, fn)
            return fn

        return wrap

    # -- messaging ------------------------------------------------------------

    def post(
        self,
        source: int,
        dest: int,
        handler: str,
        args: tuple,
        length: int,
        priority: int,
        send_time: int,
        trace: Optional[tuple] = None,
    ) -> None:
        """Route a message: compute its arrival and schedule delivery."""
        if handler not in self.handlers:
            raise SimulationError(f"no handler named {handler!r}")
        if not 0 <= dest < self.n_nodes:
            raise SimulationError(f"destination {dest} out of range")
        self.messages_sent += 1
        if self._ebus is not None:
            self._ebus.emit("send", send_time, source, 1 if priority else 0,
                            name=handler, dest=dest, words=length,
                            trace=trace)
        arrival = send_time + self.network.latency(source, dest, length,
                                                   send_time)
        if self._chaos is not None:
            dropped, extra = self._chaos.macro_verdict(
                source, dest, handler, length, send_time)
            if dropped:
                return  # the network ate it; no arrival is scheduled
            arrival += extra
        # Never schedule into the past (a host inject with a stale `at`
        # must not make simulated time run backwards).
        if arrival < self.now:
            arrival = self.now
        # Events are flat tuples (no nested payload): the run loop unpacks
        # one per message, so avoiding the inner allocation is measurable.
        heapq.heappush(
            self._events,
            (arrival, self._seq, self._ARRIVAL, dest,
             handler, args, length, priority, trace),
        )
        self._seq += 1

    def inject(self, dest: int, handler: str, *args: Any,
               length: Optional[int] = None, priority: int = 0,
               at: Optional[int] = None) -> None:
        """Host-side kickoff message (no sender-side charges)."""
        if length is None:
            length = 1 + len(args)
        trace = self._inject_trace
        if trace is None and self._trace is not None:
            trace = self._trace.root()
        self.post(dest, dest, handler, args, length, priority,
                  self.now if at is None else at, trace)

    # -- the engine ----------------------------------------------------------------

    _ARRIVAL = 0
    _COMPLETE = 1
    _TIMER = 2

    def schedule_call(self, when: int, fn: Callable[[int], None]) -> None:
        """Run ``fn(now)`` as a host callback at simulated time ``when``.

        Timer callbacks are the hook the reliable transport's retransmit
        timers hang off.  They do not advance :attr:`end_time` (they are
        bookkeeping, not application work), and cancellation is lazy —
        schedule freely and make the callback a no-op when it is stale.
        """
        heapq.heappush(
            self._events,
            (max(when, self.now), self._seq, self._TIMER, 0, None, (fn,),
             0, 0, None),
        )
        self._seq += 1

    def run(self, max_events: int = 200_000_000,
            max_time: Optional[int] = None) -> int:
        """Process events until quiescent; returns the finish time.

        The finish time is when the last task completed, which is the
        application's run time if the host injected the kickoff at 0.

        A handler executes immediately (it is a Python function) but its
        *simulated* extent is [start, start + dispatch + charges]; the
        node is busy until then.  Priority-1 tasks are taken first; a
        running task is not preempted (priority-1 work waits for the
        task boundary, which is exactly how the paper's TSP yields to
        bound updates).

        The end of a task changes nothing unless a message is waiting,
        so a starting task only *reserves* its COMPLETE event's sequence
        number (``SimNode.reserved``); the first arrival that finds the
        node still busy — before ``busy_until``, or at it with a lower
        sequence number than the reserved one — pushes the event under
        that number.  Every event processed is thus processed in the
        order, and with the numbers, of one COMPLETE event per task.
        """
        events = self._events
        nodes = self.nodes
        bound = self._bound
        heappop = heapq.heappop
        heappush = heapq.heappush
        arrival = self._ARRIVAL
        complete = self._COMPLETE
        ebus = self._ebus
        dispatch = self.config.dispatch_cycles
        # This run processes what is ordered before ``run_end``:
        # everything up to and including ``max_time``.
        limit = sys.maxsize if max_time is None else max_time
        run_end = (limit, sys.maxsize)
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
                # Observers see the state every completion ordered
                # before the next event (and inside this run) has left.
                processed += self._retire(min(events[0][:2], run_end))
                hooks.fire(horizon)
            if horizon > limit:
                break  # a later run (or a checkpoint taken now) sees it
            (time, seq, kind, dest, handler_name, args, length, priority,
             trace) = heappop(events)
            self.now = time
            fn = None
            if kind == arrival:
                node = nodes[dest]
                queues = node.queues
                handler, stats = bound[handler_name]
                node.messages_received += 1
                stats.message_words += length
                priority = 1 if priority else 0
                if ebus is not None:
                    ebus.emit("deliver", time, dest, priority,
                              name=handler_name, trace=trace)
                reserved = node.reserved
                if node.running and (
                        reserved < 0 or time < node.busy_until
                        or (time == node.busy_until and seq < reserved)):
                    if reserved >= 0:
                        # The first message to wait for this task: now
                        # its end can change something.
                        heappush(events, (node.busy_until, reserved, complete,
                                          dest, None, (), 0, 0, None))
                        node.reserved = -1
                    queues[priority].append((handler_name, args, trace))
                    depth = len(queues[0]) + len(queues[1])
                    if depth > node.queue_high_water:
                        node.queue_high_water = depth
                else:
                    # A free node (its queues are empty) takes the
                    # message straight from the network.
                    if node.running:
                        processed += 1  # the completion nobody waited for
                    if not node.queue_high_water:
                        node.queue_high_water = 1
                    fn = handler
            elif kind == complete:
                node = nodes[dest]
                queues = node.queues
                node.running = False
                if queues[0] or queues[1]:
                    priority = 1 if queues[1] else 0
                    handler_name, args, trace = queues[priority].popleft()
                    fn, stats = bound[handler_name]
            else:
                args[0](time)  # a schedule_call timer
            if fn is not None:
                # The one place a task starts: 4-cycle hardware dispatch,
                # then the handler.
                stats.invocations += 1
                node.profile.__dict__["comm"] += dispatch
                ctx = Context(self, node, time + dispatch, stats, trace)
                fn(ctx, *args)
                end = ctx.start_time + ctx.charged
                if ebus is not None:
                    if trace is None:
                        ebus.emit("task", time, dest, priority,
                                  name=handler_name, dur=end - time)
                    else:
                        # The recorded breakdown covers the task exactly:
                        # the hardware dispatch plus every cycle the
                        # context charged.
                        cats = ctx._cats
                        cats["dispatch"] = dispatch
                        ebus.emit("task", time, dest, priority,
                                  name=handler_name, dur=end - time,
                                  trace=trace, cats=cats)
                node.busy_until = end
                node.running = True
                if end > self.end_time:
                    self.end_time = end
                if queues[0] or queues[1]:
                    heappush(events, (end, self._seq, complete, dest, None,
                                      (), 0, 0, None))
                else:
                    node.reserved = self._seq
                self._seq += 1
            processed += 1
            if processed >= max_events:
                raise SimulationError("macro simulation exceeded max_events")
        if processed + self._retire(run_end) >= max_events:
            raise SimulationError("macro simulation exceeded max_events")
        if ebus is not None:
            # Mirror the cycle level's end-of-run marker so the offline
            # critical-path analyzer sees the run extent at both levels.
            ebus.emit("run-end", self.end_time, -1)
        return self.end_time

    def _retire(self, before: Tuple[int, int]) -> int:
        """Account for the unpushed completions ordered before the
        ``(time, seq)`` key ``before``: their nodes go idle and ``now``
        reaches the latest of them, as if each had been popped.
        Returns how many."""
        retired = 0
        for node in self.nodes:
            reserved = node.reserved
            if reserved >= 0 and (node.busy_until, reserved) < before:
                node.running = False
                node.reserved = -1
                if node.busy_until > self.now:
                    self.now = node.busy_until
                retired += 1
        return retired

    # -- snapshots ---------------------------------------------------------------

    def save(self, path: str, run_limit: Optional[int] = None,
             meta=None) -> dict:
        """Checkpoint this simulator to ``path``; returns the header.

        ``run_limit`` records the ``max_time`` of the run being
        checkpointed (None for unbounded).  See docs/SNAPSHOT.md.
        """
        from ..snapshot import save_macro

        return save_macro(self, path, run_limit=run_limit, meta=meta)

    def restore_state(self, path: str) -> dict:
        """Resume a :meth:`save` checkpoint *into this simulator*.

        Unlike ``JMachine.restore`` this is restore-into, not rebuild:
        macro handlers are Python closures the snapshot cannot capture,
        so the caller re-registers them (by running the same application
        setup) and then calls this to overwrite clocks, queues, node
        state, the event heap, and the chaos/reliable/telemetry state.
        Returns the snapshot header.
        """
        from ..snapshot import restore_macro_into

        return restore_macro_into(self, path)

    # -- reporting ---------------------------------------------------------------

    def report(self, meta=None):
        """Snapshot the run into a :class:`~repro.telemetry.SimReport`.

        Works with or without an attached telemetry rig (the standard
        metric sources are wired on the spot when absent).
        """
        from ..telemetry.report import SimReport

        return SimReport.from_macro(self, meta)

    def aggregate_profile(self) -> Profile:
        total = Profile()
        for node in self.nodes:
            total.merge(node.profile)
        return total

    def breakdown(self) -> Dict[str, float]:
        """Machine-wide Figure 6 style breakdown over the whole run."""
        wall = self.end_time * self.n_nodes
        if wall == 0:
            return {}
        total = self.aggregate_profile()
        out = {name: getattr(total, name) / wall
               for name in ("compute", "xlate", "sync", "comm", "nnr")}
        out["idle"] = max(0.0, 1.0 - total.busy / wall)
        return out
