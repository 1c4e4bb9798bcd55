"""The whole J-Machine: nodes, network, and the global simulation loop.

The machine advances a single global cycle counter.  Every component is
scheduled sparsely:

* The fabric is stepped once per cycle, but only while worms are in
  flight.
* Each processor reports, after every tick, the cycle at which it next
  has work; idle processors park and are woken by message delivery.
* When both the network and all processors are quiet, the clock jumps
  directly to the next scheduled event (or the run ends, "quiescent").

This keeps big machines affordable: a 512-node machine with two active
nodes costs barely more to simulate than a 2-node machine.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Iterable, List, Optional, Sequence, Tuple

from ..asm.assembler import Program
from ..core.errors import DeadlockError
from ..core.hooks import RunHooks
from ..core.message import Message
from ..core.registers import Priority
from ..core.word import Word
from ..network.fabric import Fabric
from ..network.topology import Mesh3D
from .config import MachineConfig
from .node import Node
from .stop import NEVER, StopFlags

__all__ = ["JMachine"]


class JMachine:
    """A complete simulated J-Machine."""

    def __init__(self, config: Optional[MachineConfig] = None,
                 telemetry=None) -> None:
        self.config = config if config is not None else MachineConfig()
        self.mesh: Mesh3D = self.config.mesh()
        n_nodes = self.mesh.n_nodes
        self.fabric = Fabric(
            self.mesh,
            accept_fn=self._accept,
            deliver_fn=self._deliver,
            costs=self.config.costs,
            arbitration=self.config.arbitration,
            flow_control=self.config.flow_control,
        )
        self.fabric.on_injected = self._injection_finished
        if self.config.fabric_probe:
            self.fabric.attach_probe()
        #: Traffic each node can feel, derived (:meth:`_recount_traffic`):
        #: messages in the fabric bound for it — a message refused under
        #: return-to-sender stays bound for it through its bounce and
        #: retry — and messages it sent whose tail has not left its
        #: interface.  Kept by the frames every message passes through
        #: (launch, :meth:`inject`, :meth:`_deliver`,
        #: :meth:`_injection_finished`, a chaos drop).
        self._inbound: List[int] = [0] * n_nodes
        self._injecting: List[int] = [0] * n_nodes
        self.nodes: List[Node] = [
            Node(i, self.config, self.fabric.send, self._inbound,
                 self._injecting)
            for i in range(n_nodes)
        ]
        self.now = 0
        self._proc_heap: List[Tuple[int, int]] = []  # (time, node_id)
        #: (time, node_id): the node tie-break keeps same-cycle commit
        #: order across nodes independent of fabric-internal completion
        #: processing order (the batched fabric advance may discover
        #: same-cycle completions in a different sequence than per-cycle
        #: stepping); per-node order is :attr:`_staged` order.
        self._delivery_heap: List[Tuple[int, int]] = []
        #: Per node, its staged deliveries as (arrival, message) in
        #: arrival order, which is delivery order (a completion at cycle
        #: c arrives at c + eject_latency).
        self._staged: List[List[Tuple[int, Message]]] = [
            [] for _ in range(n_nodes)]
        self._seq = 0
        #: Committed-delivery counter: one increment per message handed
        #: to a processor.  Part of the deadlock watchdog's progress
        #: signature (a machine that only re-stages deliveries is stuck).
        self.deliveries_committed = 0
        #: Fault injector (:class:`~repro.chaos.engine.ChaosEngine`),
        #: installed by ``engine.attach_machine(machine)``; None = no
        #: injection, and every hook below is skipped.
        self.chaos = None
        #: Optional :class:`~repro.chaos.watchdog.DeadlockWatchdog`;
        #: polled after every run-loop pass when set.
        self.watchdog = None
        #: Causal-tracing allocator (:mod:`repro.telemetry.trace`),
        #: installed by the wiring when ``Telemetry(trace=True)``; host
        #: injections then root a fresh trace.
        self._trace_state = None
        #: Optional :class:`~repro.snapshot.CheckpointPolicy`; when set,
        #: the run loop saves periodic checkpoints at its top.
        self.checkpoint = None
        #: Optional :class:`~repro.telemetry.live.LiveSampler`; when
        #: set, the run loop takes periodic read-only metric snapshots
        #: at its top.
        self.sampler = None
        #: Attached telemetry rig (see :mod:`repro.telemetry`), or None.
        self.telemetry = telemetry
        if telemetry is not None:
            from ..telemetry.wiring import instrument_machine

            instrument_machine(self, telemetry)

    @staticmethod
    def build(n_nodes: int, telemetry=None, **config_overrides) -> "JMachine":
        """A machine of a standard size (1-1024 nodes)."""
        return JMachine(MachineConfig.for_nodes(n_nodes, **config_overrides),
                        telemetry=telemetry)

    # ----------------------------------------------------------------- setup

    def node(self, node_id: int) -> Node:
        return self.nodes[node_id]

    def load(self, program: Program, nodes: Optional[Iterable[int]] = None) -> None:
        """Load a program image into some (default: all) nodes."""
        targets = range(self.mesh.n_nodes) if nodes is None else nodes
        for node_id in targets:
            program.load(self.nodes[node_id].proc)

    def start_background(self, node_id: int, entry: int) -> None:
        """Start a background thread on a node and schedule it."""
        self.nodes[node_id].proc.set_background(entry)
        self._schedule_proc(node_id, self.now)

    def inject(
        self,
        dest: int,
        handler_ip: int,
        args: Sequence[Word] = (),
        priority: Priority = Priority.P0,
        source: Optional[int] = None,
    ) -> None:
        """Host-side message injection (test and bootstrap convenience).

        The message enters through the fabric from ``source`` (default:
        the destination itself, i.e. a self-send through the local
        router), so delivery timing remains realistic.
        """
        src = dest if source is None else source
        message = Message.build(handler_ip, args, source=src, dest=dest,
                                priority=priority)
        if self._trace_state is not None:
            message.trace = self._trace_state.root()
        self.fabric.send(message, self.now)
        self._inbound[dest] += 1
        self._injecting[src] += 1

    # ------------------------------------------------------------- callbacks

    def _accept(self, node_id: int, message: Message) -> bool:
        """May ``node_id`` take ``message`` at the fabric's current cycle?

        Messages staged for the node hold their queue rows, per
        priority, until they commit; rows a block freed ahead of the
        fabric are not free yet (:meth:`MessageQueue.free_words_at`).
        """
        proc = self.nodes[node_id].proc
        if proc.spill_enabled:
            return True  # the software overflow handler absorbs extras
        priority = message.priority
        queue = proc.queues[priority]
        need = queue.footprint(message)
        staged = self._staged[node_id]
        if staged:
            for _, other in staged:
                if other.priority is priority:
                    need += queue.footprint(other)
        return need <= queue.free_words_at(self.fabric._cycle)

    def _deliver(self, node_id: int, message: Message, arrival: int) -> None:
        """Stage a delivered message until its arrival cycle is reached."""
        self._staged[node_id].append((arrival, message))
        self._inbound[node_id] -= 1
        heappush(self._delivery_heap, (arrival, node_id))

    def _injection_finished(self, message: Message) -> None:
        self._injecting[message.source] -= 1
        self.nodes[message.source].interface.injection_finished(message)

    def _recount_traffic(self) -> None:
        """Derive :attr:`_inbound` and :attr:`_injecting` from the worms
        in the fabric (a restore).  A bounce carries its refused message
        back to that message's source, which is still bound for its
        destination."""
        inbound = [0] * len(self.nodes)
        injecting = [0] * len(self.nodes)
        state = self.fabric.state_dict()
        worms = [entry[2] for entry in state["staged"]] + state["active"]
        for queue in state["pending"].values():
            worms += queue
        for worm in worms:
            message = worm.message
            if message.bounce_of is not None:
                message = message.bounce_of
            inbound[message.dest] += 1
            if not message.injection_reported:
                injecting[message.source] += 1
        self._inbound[:] = inbound
        self._injecting[:] = injecting

    # -------------------------------------------------------------- schedule

    def _schedule_proc(self, node_id: int, when: int) -> None:
        node = self.nodes[node_id]
        if node.next_tick is not None and node.next_tick <= when:
            return
        node.next_tick = when
        heappush(self._proc_heap, (when, node_id))

    def _commit_deliveries(self, chaos) -> None:
        heap = self._delivery_heap
        now = self.now
        while heap and heap[0][0] <= now:
            _, node_id = heappop(heap)
            message = self._staged[node_id].pop(0)[1]
            self.deliveries_committed += 1
            if chaos is not None:
                if chaos.node_killed(node_id, now):
                    # Fail-stopped node: the message is destroyed on
                    # arrival (the sender sees silence, not an error).
                    chaos.blackhole(message, now)
                    continue
                if message.corrupted:
                    # The receiver's fault policy: checksum fails, the
                    # message body is discarded, the fault handler's
                    # cycles are charged, and the payload never runs.
                    proc = self.nodes[node_id].proc
                    proc.checksum_reject(message, now)
                    chaos.counters["checksum_rejects"] += 1
                    self._schedule_proc(node_id, now)
                    continue
            # The accept check reserved space, so a QueueOverflowFault
            # here means a host-side inject overwhelmed the queue; it
            # surfaces to the caller.
            self.nodes[node_id].proc.deliver(message, now)
            self._schedule_proc(node_id, now)

    def _tick_procs(self, ahead: int, busy: bool,
                    stop: Optional[StopFlags] = None, chaos=None) -> bool:
        """Tick every processor due at ``now``; ``busy``: whether the
        fabric holds worms.  Returns whether it holds worms after the
        ticks (a tick only ever adds one)."""
        now = self.now
        heap = self._proc_heap
        if not heap or heap[0][0] > now:
            return busy
        fabric = self.fabric
        nodes = self.nodes
        # Taken before the first pop, so worms this pass launches do not
        # lower it: they bound only their own source, whose block has
        # ended (:meth:`_block_deadline`).
        inj_bound = fabric.injection_quiet_cycles() if busy else None
        deadlines = [None, None]  # free run: (idle, busy), on first use
        horizon = None
        while heap and heap[0][0] <= now:
            when, node_id = heappop(heap)
            node = nodes[node_id]
            if node.next_tick != when:
                continue  # stale entry
            node.next_tick = None
            if chaos is not None:
                if chaos.node_killed(node_id, now):
                    continue  # fail-stopped: never ticks again
                stall_end = chaos.node_stall_until(node_id, now)
                if stall_end > now:
                    self._schedule_proc(node_id, stall_end)
                    continue
            proc = node.proc
            if not proc.fast_path:
                nxt = proc.tick(now)
            elif stop is None:
                # busy re-read per pop while idle: an earlier block in
                # this same pass may have launched a worm.  Both possible
                # deadlines are pass-constant (deliveries only commit
                # between passes), so each is computed at most once.
                if not busy:
                    busy = fabric.active
                deadline = deadlines[busy]
                if deadline is None:
                    deadline = deadlines[busy] = self._block_deadline(
                        ahead, busy, inj_bound)
                nxt = proc.tick(now, deadline)
            else:
                # A per-node deadline replaces virtual-time lockstep
                # (docs/PERFORMANCE.md "Stop conditions"): the block
                # stops before anything can reach this node, before any
                # other node could send (``first``: the earliest pending
                # peer — stale heap entries only make it earlier — or
                # delivery commit, which may wake a parked one) and
                # before the stop.  A SEND starts only before ``first``,
                # or at ``now`` ahead of higher-numbered peers due this
                # pass, so sends reach the fabric in reference order.
                # Pass-constant terms are computed once; busy and the
                # counts are read per pop, since an earlier block in
                # this pass may have sent.
                if horizon is None:
                    horizon = now + 1 + fabric.eject_latency
                    head = (self._delivery_heap[0][0] if self._delivery_heap
                            else NEVER)
                    injected = (NEVER if inj_bound is None
                                else max(now + inj_bound, now + 1))
                    staged_at, inbound = self._staged, self._inbound
                    injecting, window = self._injecting, stop.window
                    # Events in virtual-time order (window 0): a fabric
                    # that drops or corrupts worms emits as they complete,
                    # so while busy it is a peer due at now + 1.
                    emits = (now + 1 if window == 0 and chaos is not None
                             and chaos.fabric_rate_specs else horizon)
                if not busy:
                    busy = fabric.active
                commit = emits if busy and emits < head else head
                peer = heap[0][0] if heap else NEVER
                first = peer if peer < commit else commit
                deadline = ahead
                staged = staged_at[node_id]
                if staged and staged[0][0] < deadline:
                    deadline = staged[0][0]
                if inbound[node_id] and horizon < deadline:
                    deadline = horizon
                if injecting[node_id] and injected < deadline:
                    deadline = injected
                if first + window < deadline:
                    deadline = max(first + window, now + 1)
                nxt = proc.tick(now, stop.cap(node_id, deadline, horizon),
                                first if first > now else now + 1)
            if nxt is not None:
                # Popped, so not scheduled: no earlier entry to keep.
                when = nxt if nxt > now else now + 1
                node.next_tick = when
                heappush(heap, (when, node_id))
        return busy or fabric.active

    def _block_deadline(self, ahead: int, fabric_busy: bool,
                        inj_bound: Optional[int] = None) -> int:
        """How far a fast-path block may run ahead of the global clock in
        a free run (no stop condition).

        The bound keeps run-ahead invisible: a block may only batch
        through virtual time the rest of the machine is guaranteed not to
        touch.  A block observes the fabric at exactly two kinds of
        cycles, both bounded from below even while worms are in flight:

        * *Delivery commits* (queue state, preemption): the earliest is
          the staged-delivery heap head, and any completion still in the
          mesh cannot commit before ``now + 1 + eject_latency``.
        * *Send-buffer releases* (``injection_finished``, observed by the
          block-ending ``SEND``): the fabric's per-iteration
          ``injection_quiet_cycles`` bound — a worm with *r* phits left
          to inject cannot free its source's buffer for at least *r*
          cycles.  Worms launched later in the same pass only ever
          affect their own source node, whose block has already ended
          (sends are block boundaries), so the bound computed at
          iteration start stays valid for every pop of the pass.

        ``ahead`` is the run limit or the fault schedule's next action,
        whichever comes first.  A run under a stop condition bounds each
        processor by the traffic that can reach *it* instead
        (:meth:`_tick_procs`, docs/PERFORMANCE.md "Stop conditions").
        """
        now = self.now
        deadline = ahead
        if self._delivery_heap and self._delivery_heap[0][0] < deadline:
            deadline = self._delivery_heap[0][0]
        if fabric_busy:
            horizon = now + 1 + self.fabric.eject_latency
            if inj_bound is not None and now + inj_bound < horizon:
                horizon = max(now + inj_bound, now + 1)
            if horizon < deadline:
                deadline = horizon
        return deadline

    # ------------------------------------------------------------------- run

    def run(
        self,
        max_cycles: int = 1_000_000,
        until: Optional[StopFlags] = None,
    ) -> int:
        """Advance the machine until quiescence, ``until``, or the limit.

        Returns the cycle counter at stop.  "Quiescent" means no worms in
        flight, no staged deliveries, and every processor parked — the
        machine would never do anything again without external input.
        ``until`` is a :class:`~repro.machine.stop.StopFlags` condition:
        the run returns the first cycle at the end of which every listed
        word of node memory holds its value.

        The body runs under try/finally: even when a handler raises out
        of the run (an illegal instruction, a queue overflow surfaced to
        the host), end-of-run bookkeeping — the telemetry ``run-end``
        event — still happens, so a partial trace is still loadable.
        """
        if until is not None and not isinstance(until, StopFlags):
            raise TypeError(
                "run(until=...) takes a StopFlags([(node, address, value), "
                f"...]) condition or None, not {type(until).__name__}")
        limit = self.now + max_cycles
        try:
            if until is None:
                return self._run_loop(limit)
            until.arm(self)
            try:
                return self._run_loop(limit, until)
            finally:
                until.disarm()
        finally:
            self._run_ended()

    def _run_loop(self, limit: int, stop: Optional[StopFlags] = None) -> int:
        """The run loop (see :meth:`run`).

        Two hook sites, because the observers read two different states:
        checkpoints and live frames are taken *between* passes (loop
        top, where a restored machine would resume), the deadlock
        watchdog looks *after* the pass at ``now`` has ticked.  Chaos acts
        after checkpoints; no run-ahead or quiet jump passes its ``next_due``.

        An armed ``stop`` condition is told of every store to its flag
        words and keeps ``stop_at``: the cycle the run ends at once all
        flags are met (a later store may un-meet one and clear it).  The
        loop runs every pass up to and including that cycle — what the
        per-step reference has executed when it stops there.
        """
        hooks = RunHooks(self, self.now, limit, self.checkpoint, self.sampler)
        acting = RunHooks(self, self.now, limit, self.chaos)
        pass_hooks = RunHooks(self, self.now, limit, self.watchdog)
        chaos = self.chaos
        fabric = self.fabric
        # Quiet-window batching: while nothing but the fabric has
        # work scheduled, hand it a whole window of cycles at once
        # (see Fabric.advance).  Gated off whenever any per-pass
        # observer is installed, which keeps those paths on the
        # exact reference interleaving.
        batchable = not pass_hooks.observers
        # Whether worms are in the fabric; only a pass changes it.
        busy = fabric.active
        while self.now < limit:
            if self.now >= hooks.next_due:
                # Saving and sampling are read-only, so an observed run
                # stays bit-identical to a bare one.  Neither bounds
                # run-ahead: they see whatever cycle the loop lands on.
                hooks.fire(self.now)
            if self.now >= acting.next_due:
                acting.fire(self.now)
            ahead = acting.next_due if acting.next_due < limit else limit
            self._commit_deliveries(chaos)
            stop_at = NEVER if stop is None else stop.stop_at
            if busy:
                end = self.now + 1
                # Return-to-sender bounces have per-cycle effects
                # outside the fabric, so those runs take one step per
                # pass.
                if batchable and fabric.flow_control == "block":
                    # The passes that decide where the run ends — at
                    # stop_at, and the last one before the limit, whose
                    # quiet jump may overshoot it — are ordinary ones,
                    # and so is the pass a scheduled fault acts at.
                    horizon = ahead if ahead < limit else limit - 1
                    if stop_at < horizon:
                        horizon = stop_at
                    heap = self._delivery_heap
                    if heap and heap[0][0] < horizon:
                        horizon = heap[0][0]
                    heap = self._proc_heap
                    if heap and heap[0][0] < horizon:
                        horizon = heap[0][0]
                    end = horizon if horizon > end else end
                end = fabric.advance(self.now, end)
                busy = fabric.active
                if end > self.now + 1 and busy:
                    self.now = end
                    continue
                # This pass ends at the fabric's last cycle: a step, or a
                # window the fabric drained inside, which then jumps on
                # from that cycle as stepping would.
                self.now = end - 1
            busy = self._tick_procs(ahead, busy, stop, chaos)
            if self.now >= pass_hooks.next_due:
                pass_hooks.fire(self.now)
            if stop is not None:
                stop_at = stop.stop_at  # a store in this pass may move it
                if self.now >= stop_at:
                    return self.now
            if busy:
                self.now += 1
                continue
            next_times = []
            if self._proc_heap:
                next_times.append(self._proc_heap[0][0])
            if self._delivery_heap:
                next_times.append(self._delivery_heap[0][0])
            if not next_times:
                # Quiescent, even with faults still due: they stay
                # unapplied (docs/ROBUSTNESS.md).
                return self.now
            upcoming = min(min(next_times), stop_at, acting.next_due)
            self.now = max(self.now + 1, upcoming)
        return self.now

    def progress_signature(self) -> Tuple[int, int, int, int]:
        """What the deadlock watchdog watches: the counters that move
        whenever real work happens (see
        :class:`~repro.chaos.watchdog.DeadlockWatchdog`)."""
        instructions = 0
        for node in self.nodes:
            instructions += node.proc.counters.instructions
        stats = self.fabric.stats
        return (instructions, stats.completed, stats.submitted,
                self.deliveries_committed)

    def _run_ended(self) -> None:
        """End-of-run hook (normal return or raise): telemetry run-end."""
        telemetry = self.telemetry
        if telemetry is not None and telemetry.events is not None:
            telemetry.events.emit("run-end", self.now, -1)

    # -------------------------------------------------------------- snapshots

    def save(self, path: str, run_limit: Optional[int] = None,
             meta=None) -> dict:
        """Checkpoint the whole machine to ``path``; returns the header.

        ``run_limit`` records the absolute cycle limit of the run being
        checkpointed so ``repro.snapshot resume`` can finish it.  See
        docs/SNAPSHOT.md for the format and the capture contract.
        """
        from ..snapshot import save_machine

        return save_machine(self, path, run_limit=run_limit, meta=meta)

    @staticmethod
    def restore(path: str) -> "JMachine":
        """Rebuild a machine from a :meth:`save` checkpoint.

        Cycle-level snapshots are fully self-contained (code images are
        part of processor state), so the restored machine needs no
        re-setup: call ``run`` and it continues bit-identically.
        """
        from ..snapshot import load_machine

        return load_machine(path)

    def run_until_quiescent(self, max_cycles: int = 10_000_000) -> int:
        """Run to quiescence; raises :class:`DeadlockError` if the limit
        is hit with work still outstanding, carrying a per-node
        diagnostic snapshot of everything implicated."""
        end = self.run(max_cycles=max_cycles)
        if self.fabric.active or self._proc_heap or self._delivery_heap:
            from ..chaos.watchdog import machine_snapshots

            snapshots = machine_snapshots(self)
            raise DeadlockError(
                f"machine still busy after {max_cycles} cycles "
                f"(t={end}); {self.fabric.worms_in_flight} worms in "
                f"flight, {len(snapshots)} nodes implicated:",
                now=end,
                snapshots=snapshots,
                worms_in_flight=self.fabric.worms_in_flight,
            )
        return end

    # ------------------------------------------------------------------ stats

    def report(self, meta=None):
        """Snapshot the machine into a :class:`~repro.telemetry.SimReport`.

        Works with or without an attached telemetry rig (the standard
        metric sources are wired on the spot when absent).
        """
        from ..telemetry.report import SimReport

        return SimReport.from_machine(self, meta)

    def total_busy_cycles(self) -> int:
        return sum(node.proc.counters.busy_cycles for node in self.nodes)

    def total_instructions(self) -> int:
        return sum(node.proc.counters.instructions for node in self.nodes)
