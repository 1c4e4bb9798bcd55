"""The parallel coordinator: epoch barriers, fabric replay, fallback.

``run_parallel(machine, limit)`` attempts to run the machine's workload
on forked shard workers under the conservative epoch protocol
(see epoch.py).  Its cardinal rule is that **the attempt never mutates
the parent machine**: workers are forked copies, the fabric is replayed
on a purpose-built clone, telemetry and chaos side effects accumulate in
staging objects, and everything is folded back into the real machine
only when the whole run has succeeded.  Any ambiguity — a worker's
pessimistic send-buffer probe, a queue-acceptance check the parent
cannot decide soundly, a worker crash — abandons the attempt and
returns None, and the caller reruns the untouched machine serially.
The contract is therefore *bit-identical or serial*, never "close".

The parent's fabric replay needs one piece of worker state it cannot
have yet: destination queue occupancy at the probe cycle.  It bounds it
soundly instead — headroom at the epoch start (reported at the previous
barrier, when dequeues were still exact) minus everything committed
since.  A probe that passes under that lower bound passes in the serial
schedule too; a probe that fails even with the queue's full capacity is
a real refusal (the worm stalls, exactly as serial); anything in
between aborts the attempt.
"""

from __future__ import annotations

import copy
import heapq
from typing import Dict, List, Optional, Tuple

from ..core.hooks import RunHooks
from ..core.message import Message
from ..core.queues import MessageQueue
from ..core.registers import Priority
from ..network.fabric import Fabric
from .epoch import (EpochPlan, busy_window, shard_ranges,
                    unsupported_reason)
from .worker import PROC_SKIP_ATTRS, worker_main

__all__ = ["run_parallel", "ParallelFallback"]


class ParallelFallback(Exception):
    """Internal: abandon the attempt, the caller should run serially."""


def _event_sort_key(event):
    ts, kind, node, priority, name, dur, args = event
    detail = tuple(sorted(args.items())) if args else ()
    return (ts, node, kind, priority, name or "", dur or 0, repr(detail))


def run_parallel(machine, limit: int) -> Optional[int]:
    """Run ``machine`` to ``limit`` in parallel; None means "go serial".

    On success the machine is left exactly as the serial run loop would
    leave it (architectural state, statistics, metrics, and — up to the
    reordering of same-cycle emissions across nodes — telemetry
    events), and the final cycle count is returned.
    """
    shards = getattr(machine, "parallel_shards", 0)
    reason = unsupported_reason(machine, shards)
    if reason is not None:
        machine._note_parallel_skip(reason)
        return None
    # Two hook sites, because only an idle jump is resumable: saves
    # happen there (a cycle the serial loop would also pass through
    # with an empty fabric); the watchdog and the live sampler read the
    # coordinator's own counters after every epoch.  Built once per
    # run — the observers are armed at run start, as in the serial
    # loop — and handed to each segment's coordinator.
    idle_hooks = RunHooks(None, machine.now, limit, machine.checkpoint)
    epoch_hooks = RunHooks(None, machine.now, limit,
                           machine.watchdog, machine.sampler)
    # Checkpointing splits the run into segments: each save folds the
    # attempt back into the machine, and a fresh coordinator picks the
    # run back up.  The segments partition the event stream at the
    # save cycle, so the merged stream is identical to an unpaused
    # attempt's.
    while True:
        coordinator = _Coordinator(machine, shards, limit,
                                   idle_hooks, epoch_hooks)
        try:
            final = coordinator.run()
        except ParallelFallback as exc:
            machine._note_parallel_skip(str(exc))
            return None
        finally:
            coordinator.shutdown()
        if not coordinator.paused:
            return final


class _Coordinator:
    """One parallel run attempt: owns workers, replay fabric, schedule."""

    def __init__(self, machine, shards: int, limit: int,
                 idle_hooks: RunHooks, epoch_hooks: RunHooks) -> None:
        self.machine = machine
        self.limit = limit
        #: Observers polled at idle jumps / after each epoch; this
        #: coordinator is what they inspect (see :meth:`save`,
        #: :meth:`progress_signature`, ``LiveSampler.sample_parallel``).
        self.idle_hooks = idle_hooks
        self.epoch_hooks = epoch_hooks
        idle_hooks.target = epoch_hooks.target = self
        #: The idle-jump cycle a :meth:`save` folds the attempt at.
        self.now = machine.now
        #: Set by :meth:`save`: the attempt has been folded into the
        #: machine, so :meth:`run` returns instead of reaching the limit.
        self.paused = False
        self.shard_nodes = shard_ranges(machine.mesh.n_nodes, shards)
        self.n_shards = len(self.shard_nodes)
        self._shard_of = [0] * machine.mesh.n_nodes
        for s, owned in enumerate(self.shard_nodes):
            for node_id in owned:
                self._shard_of[node_id] = s
        self.procs: list = []
        self.pipes: list = []
        self._forked = False

        n = machine.mesh.n_nodes
        #: (arrival, node, tiebreak, message): commits the fabric replay
        #: has decided but no worker has been told about yet.
        self.sched: List[Tuple[int, int, int, Message]] = []
        self._tiebreak = 0
        self.staged_words = [0] * n
        self.pending_finishes: List[Tuple[int, int]] = []
        #: Per-node (p0_free, p1_free) at the current epoch start.
        self.free: Dict[int, Tuple[int, int]] = {}
        self.epoch_committed: Dict[Tuple[int, int], int] = {}
        self._rnow = machine.now
        self.fab_last_active: Optional[int] = None
        self.deliveries_base = machine.deliveries_committed
        self.instr_abs = [0] * self.n_shards
        self.deliv_abs = [machine.deliveries_committed] * self.n_shards
        self.wake: List[Optional[int]] = [None] * self.n_shards

        bus = machine.telemetry.events if machine.telemetry is not None \
            else None
        self._real_bus = bus
        self.staging_bus = None
        if bus is not None:
            from ..telemetry.events import EventBus

            self.staging_bus = EventBus(limit=bus.limit)
        self.chaos_copy = None
        if machine.chaos is not None:
            engine = machine.chaos
            events = engine._events
            engine._events = None  # don't drag the bus through deepcopy
            try:
                self.chaos_copy = copy.deepcopy(engine)
            finally:
                engine._events = events
            self.chaos_copy._events = self.staging_bus
            self._chaos_log_base = len(engine.log)
        self.replay = self._clone_fabric()

    # ------------------------------------------------------------------ setup

    def _clone_fabric(self) -> Fabric:
        src = self.machine.fabric
        fab = Fabric(
            self.machine.mesh,
            accept_fn=self._probe,
            deliver_fn=self._schedule,
            costs=src.costs,
            inject_latency=src.inject_latency,
            eject_latency=src.eject_latency,
            arbitration=src.arbitration,
            flow_control=src.flow_control,
        )
        fab._route_cache = dict(src._route_cache)
        fab.route_cache_max = src.route_cache_max
        fab.route_cache_hits = src.route_cache_hits
        fab.route_cache_misses = src.route_cache_misses
        fab._seq = src._seq
        fab.stats = copy.deepcopy(src.stats)
        fab.watchdog_cycles = src.watchdog_cycles
        # Observatory counters accumulate on the replay clone (the
        # whole fabric runs here); fold-back installs them like stats.
        fab.probe = (copy.deepcopy(src.probe)
                     if src.probe is not None else None)
        fab.on_injected = self._injection_done
        fab._events = self.staging_bus
        fab.chaos = self.chaos_copy
        # Host-injected (pre-run staged) worms are re-made around
        # message *copies* so an aborted attempt leaves the originals —
        # injection_reported flags included — untouched.  Bypasses
        # send() so stats and the send event are not double-counted.
        for release, _seq, worm in sorted(src._staged):
            msg = worm.message
            twin = Message(msg.words, msg.source, msg.dest, msg.priority)
            replayed = fab._make_worm(twin, worm.submit_time)
            heapq.heappush(fab._staged, (release, replayed.seq, replayed))
        # The re-makes above hit the copied route cache; the parent
        # already paid those lookups, so restore the exact counters.
        fab.route_cache_hits = src.route_cache_hits
        fab.route_cache_misses = src.route_cache_misses
        return fab

    def _fork(self) -> None:
        import multiprocessing

        ctx = multiprocessing.get_context("fork")
        for owned in self.shard_nodes:
            parent_conn, child_conn = ctx.Pipe()
            proc = ctx.Process(
                target=worker_main,
                args=(self.machine, owned, child_conn),
                daemon=True,
            )
            proc.start()
            child_conn.close()
            self.pipes.append(parent_conn)
            self.procs.append(proc)
        self._forked = True

    def shutdown(self) -> None:
        for conn in self.pipes:
            try:
                conn.send(("stop",))
            except Exception:
                pass
        for proc in self.procs:
            proc.join(timeout=5)
            if proc.is_alive():  # pragma: no cover - defensive
                proc.terminate()
                proc.join(timeout=5)
        for conn in self.pipes:
            try:
                conn.close()
            except Exception:
                pass

    # -------------------------------------------------- replay fabric hooks

    def _probe(self, node_id: int, message: Message) -> bool:
        proc = self.machine.nodes[node_id].proc
        if proc.spill_enabled:
            return True
        queue = proc.queues[message.priority]
        need = MessageQueue.footprint(message)
        staged = self.staged_words[node_id]
        free_start = self.free.get(node_id)
        if free_start is not None:
            pri = int(message.priority)
            lower_bound = (free_start[pri]
                           - self.epoch_committed.get((node_id, pri), 0))
            if need + staged <= lower_bound:
                return True  # sound: the serial schedule has at least this
        if need + staged > queue.capacity_words:
            return False  # certain refusal even from an empty queue
        raise ParallelFallback(
            f"queue-accept probe for node {node_id} at t={self._rnow} "
            f"is ambiguous under worst-case occupancy")

    def _schedule(self, node_id: int, message: Message, arrival: int) -> None:
        heapq.heappush(self.sched,
                       (arrival, node_id, self._tiebreak, message))
        self._tiebreak += 1
        self.staged_words[node_id] += len(message.words)

    def _injection_done(self, message: Message) -> None:
        self.pending_finishes.append(
            (message.source, len(message.words) + 1))

    # -------------------------------------------------------------- main run

    def run(self) -> int:
        machine = self.machine
        limit = self.limit
        # Seed scheduling state from the pristine parent before forking.
        for node in machine.nodes:
            proc = node.proc
            if not proc.spill_enabled:
                self.free[node.node_id] = (
                    proc.queues[Priority.P0].free_words,
                    proc.queues[Priority.P1].free_words,
                )
        for arrival, node_id, index in sorted(machine._delivery_heap):
            self._schedule(node_id, machine._staged_messages[index], arrival)
        for when, node_id in machine._proc_heap:
            s = self._shard_of[node_id]
            if self.wake[s] is None or when < self.wake[s]:
                self.wake[s] = when
        for s, owned in enumerate(self.shard_nodes):
            self.instr_abs[s] = sum(
                machine.nodes[i].proc.counters.instructions for i in owned)
        self._fork()

        w_busy = busy_window(self.replay.eject_latency)
        w_idle = self.replay.delivery_window()
        idle_hooks = self.idle_hooks
        epoch_hooks = self.epoch_hooks
        now = machine.now
        final = now
        while True:
            fabric_busy = self.replay.active
            wakes = [w for w in self.wake if w is not None]
            if not fabric_busy and not self.sched:
                if not wakes:
                    break  # quiescent
                target = max(now, min(wakes))
                if target >= limit:
                    # The serial loop jumps straight to the next event
                    # and only then notices it crossed the limit.
                    final = max(final, target)
                    break
                if target > now and target >= idle_hooks.next_due:
                    # The jump target is exactly where the serial
                    # loop's top-of-iteration state would be: fabric
                    # empty, no pending commits, clock at `target`.
                    self.now = target
                    idle_hooks.fire(target)
                    if self.paused:
                        return target
                now = target
            elif now >= limit:
                final = max(final, limit)
                break
            window = w_busy if fabric_busy else w_idle
            end = min(now + window, limit)
            if end <= now:
                end = now + 1
            final = max(final, self._run_epoch(now, end))
            if end >= epoch_hooks.next_due:
                epoch_hooks.fire(end)
            now = end
        self._finalize(final)
        return final

    def _run_epoch(self, start: int, end: int) -> int:
        """One barrier round: plan, worker execution, fabric replay.

        Returns the latest pass cycle any component processed (the
        serial run loop's final ``now`` is the max of these).
        """
        commits: List[Tuple[int, int, int, Message]] = []
        while self.sched and self.sched[0][0] < end:
            commits.append(heapq.heappop(self.sched))
        plans = [EpochPlan(start=start, end=end, limit=self.limit)
                 for _ in range(self.n_shards)]
        shard_of = self._shard_of
        for arrival, node_id, _tb, message in commits:
            plans[shard_of[node_id]].deliveries.append(
                (arrival, node_id, message))
        finishes = self.pending_finishes
        self.pending_finishes = []
        for node_id, words in finishes:
            plans[shard_of[node_id]].finishes.append((node_id, words))
        involved = [
            s for s in range(self.n_shards)
            if plans[s].deliveries or plans[s].finishes
            or (self.wake[s] is not None and self.wake[s] < end)
        ]
        for s in involved:
            self.pipes[s].send(("epoch", plans[s]))
        reports = []
        for s in involved:
            reply = self.pipes[s].recv()
            if reply[0] != "report":
                raise ParallelFallback(
                    f"shard {s} failed: {reply[1] if len(reply) > 1 else reply}")
            report = reply[1]
            if report.dirty is not None:
                raise ParallelFallback(report.dirty)
            reports.append((s, report))
        # Replay the fabric over [start, end) *before* folding in the
        # reported end-of-epoch queue headroom: accept probes inside
        # this window must start from the headroom at `start`.
        all_sends = []
        for s, report in reports:
            for idx, (snow, source, message) in enumerate(report.sends):
                all_sends.append((snow, source, idx, message))
        all_sends.sort(key=lambda item: item[:3])
        for snow, _source, _idx, message in all_sends:
            self.replay.send(message, snow)
        latest = self._replay_window(start, end, commits)
        for s, report in reports:
            self.wake[s] = report.next_wake
            self.free.update(report.free_words)
            self.instr_abs[s] = report.instructions
            self.deliv_abs[s] = report.deliveries_committed
            if report.last_activity is not None:
                latest = max(latest, report.last_activity)
        return latest

    def _replay_window(self, start: int, end: int,
                       commits: List[Tuple[int, int, int, Message]]) -> int:
        fab = self.replay
        self.epoch_committed.clear()
        latest = start - 1
        ci = 0
        c = start
        while c < end:
            while ci < len(commits) and commits[ci][0] <= c:
                _arrival, node_id, _tb, message = commits[ci]
                ci += 1
                self.staged_words[node_id] -= len(message.words)
                key = (node_id, int(message.priority))
                self.epoch_committed[key] = (
                    self.epoch_committed.get(key, 0)
                    + MessageQueue.footprint(message))
            if fab.active:
                self._rnow = c
                fab.step(c)
                self.fab_last_active = c
                latest = c
            elif ci >= len(commits):
                break
            c += 1
        return latest

    # ------------------------------------------- what the observers inspect

    @property
    def deliveries_committed(self) -> int:
        """Machine-wide committed deliveries as of the last barrier."""
        return (self.deliveries_base + sum(self.deliv_abs)
                - self.n_shards * self.deliveries_base)

    def progress_signature(self) -> Tuple[int, int, int, int]:
        """``JMachine.progress_signature`` from the coordinator's own
        exact knowledge (the parent's node state is stale mid-attempt:
        the forked workers own it)."""
        stats = self.replay.stats
        return (sum(self.instr_abs), stats.completed, stats.submitted,
                self.deliveries_committed)

    def wedged_machine(self, now: int):
        """Pull worker state first so the DeadlockError's per-node
        snapshots describe the wedged state, not the fork point."""
        self._finalize(now)
        return self.machine

    def save(self, path: str, run_limit: Optional[int] = None,
             meta=None) -> dict:
        """Fold the attempt into the machine and checkpoint *it*.

        Worker deltas are cumulative since fork, so this coordinator
        cannot continue after folding: it is :attr:`paused`, and
        ``run_parallel`` resumes with a fresh one.
        """
        self._finalize(self.now)
        self.paused = True
        return self.machine.save(path, run_limit=run_limit, meta=meta)

    # --------------------------------------------------------------- install

    def _finalize(self, final_now: int) -> None:
        """Pull every shard's state and fold the attempt into the parent."""
        machine = self.machine
        for conn in self.pipes:
            conn.send(("finalize",))
        bundles = []
        for s, conn in enumerate(self.pipes):
            reply = conn.recv()
            if reply[0] != "final":
                raise ParallelFallback(
                    f"shard {s} failed during finalize: {reply[1:]}")
            bundles.append(reply[1])

        pending = {}
        for node_id, words in self.pending_finishes:
            pending[node_id] = pending.get(node_id, 0) + words
        new_events: List[tuple] = []
        if self.staging_bus is not None:
            new_events.extend(self.staging_bus.events)
        heap_entries: List[Tuple[int, int]] = []
        for bundle in bundles:
            heap_entries.extend(bundle.heap_entries)
            new_events.extend(bundle.events)
            for node_id, packed in bundle.nodes.items():
                state, outstanding, building, next_tick = packed
                node = machine.nodes[node_id]
                proc = node.proc
                keep = {name: getattr(proc, name)
                        for name in PROC_SKIP_ATTRS}
                proc.__dict__.update(state)
                for name, value in keep.items():
                    setattr(proc, name, value)
                proc.drop_compiled()
                iface = node.interface
                iface._outstanding_words = (outstanding
                                            - pending.get(node_id, 0))
                iface._building = building
                node.next_tick = next_tick

        heapq.heapify(heap_entries)
        machine._proc_heap = heap_entries
        machine._delivery_heap = []
        machine._staged_messages = []
        machine._staged_words_per_node = [0] * machine.mesh.n_nodes
        for arrival, node_id, _tb, message in sorted(self.sched):
            machine._deliver(node_id, message, arrival)
        machine.deliveries_committed = self.deliveries_committed
        machine.now = final_now

        dst = machine.fabric
        src = self.replay
        src.sync()  # worms move over awake: sleep bookkeeping stays behind
        dst._owner = src._owner
        dst._active = src._active
        dst._pending = src._pending
        dst._pending_count = src._pending_count
        dst._staged = src._staged
        dst._route_cache = src._route_cache
        dst.route_cache_hits = src.route_cache_hits
        dst.route_cache_misses = src.route_cache_misses
        dst._seq = src._seq
        dst.stats = src.stats
        dst.probe = src.probe

        if self._real_bus is not None and new_events:
            bus = self._real_bus
            for event in sorted(new_events, key=_event_sort_key):
                if len(bus.events) >= bus.limit:
                    bus.dropped += 1
                else:
                    bus.events.append(event)

        engine = machine.chaos
        if engine is not None:
            twin = self.chaos_copy
            chaos_log: List[tuple] = list(twin.log[self._chaos_log_base:])
            counters = dict(twin.counters)
            for bundle in bundles:
                for name, delta in bundle.chaos_counters.items():
                    counters[name] = counters.get(name, 0) + delta
                chaos_log.extend(bundle.chaos_log)
                engine._kill_recorded |= bundle.chaos_kills
                engine._stall_recorded |= bundle.chaos_stalls
            engine.counters = counters
            chaos_log.sort(key=lambda entry: entry[0])
            for entry in chaos_log:
                if len(engine.log) < engine._log_limit:
                    engine.log.append(entry)
            engine._fabric_rng = twin._fabric_rng
