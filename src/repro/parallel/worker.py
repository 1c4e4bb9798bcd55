"""The shard worker: one process owning a contiguous block of nodes.

A worker is a forked copy of the whole machine that only *advances* its
own shard.  It reuses the machine's own ``_commit_deliveries`` /
``_tick_procs`` / ``_deliver`` methods on the copy, so the per-pass
semantics — commit-before-tick ordering, chaos kill/stall checks at pop
time, fast-path block deadlines, stale-heap-entry pops — are the serial
code paths themselves, not a reimplementation.  Three things are
rewired after the fork:

* the fabric copy is emptied, so block deadlines see an idle network
  and the worker never simulates worms (the parent owns the fabric);
* owned interfaces submit into a send recorder instead of a fabric, so
  SENDs are captured with their cycle-exact virtual submit times;
* owned interfaces get a guarded ``can_accept``: the worker's view of
  the send buffer is *pessimistic* (release notices apply only at epoch
  starts), so a refusal that an already-in-flight release might have
  turned into an acceptance is *ambiguous* — the worker aborts the
  whole parallel attempt (:class:`EpochAbort`) and the pristine parent
  reruns serially.  A pessimistic acceptance is always exact, and a
  refusal that would stand even with every outstanding word freed is a
  real send fault, identical to serial.
"""

from __future__ import annotations

import heapq
import traceback
from typing import List, Optional, Tuple

from ..core.processor import Mdp
from ..core.registers import Priority
from .epoch import EpochPlan, EpochReport, FinalState

__all__ = ["EpochAbort", "ShardWorker", "worker_main"]

#: Processor attributes that stay parent-side: re-attached on install
#: instead of being pickled (closures and shared infrastructure).
PROC_SKIP_ATTRS = Mdp.UNCAPTURED_ATTRS + ("code",)


class EpochAbort(BaseException):
    """Control-flow escape: this epoch's state is ambiguous, go serial.

    Derives from BaseException so no fault-handling ``except Exception``
    inside the processor can swallow it mid-block.
    """


class ShardWorker:
    """Epoch-driven executor for one shard of nodes."""

    def __init__(self, machine, owned: range, conn) -> None:
        self.machine = machine
        self.owned = list(owned)
        self.conn = conn
        self.sends: List[Tuple[int, int, object]] = []
        self.dirty: Optional[str] = None
        self.last_activity: Optional[int] = None

    # ------------------------------------------------------------------ setup

    def prepare(self) -> None:
        m = self.machine
        fabric = m.fabric
        # The parent owns the network; an emptied fabric also keeps
        # _block_deadline on its idle branch.
        fabric._active = []
        fabric._staged = []
        fabric._pending = {}
        fabric._pending_count = 0
        # Delivery staging restarts empty; the parent schedules commits
        # through epoch plans (pre-run staged deliveries included).
        m._delivery_heap = []
        m._staged_messages = []
        m._staged_words_per_node = [0] * m.mesh.n_nodes
        # Keep the *whole* inherited proc heap for owned nodes — stale
        # entries included, because their no-op pops are real serial
        # passes and can be the run's final cycle.
        owned = set(self.owned)
        m._proc_heap = [e for e in m._proc_heap if e[1] in owned]
        heapq.heapify(m._proc_heap)
        for node_id in self.owned:
            self._patch_interface(m.nodes[node_id])
        bus = None
        if m.telemetry is not None:
            bus = m.telemetry.events
        self._bus = bus
        self._events_base = len(bus.events) if bus is not None else 0
        chaos = m.chaos
        if chaos is not None:
            self._chaos_counters_base = dict(chaos.counters)
            self._chaos_log_base = len(chaos.log)
            self._chaos_kills_base = set(chaos._kill_recorded)
            self._chaos_stalls_base = set(chaos._stall_recorded)

    def _patch_interface(self, node) -> None:
        iface = node.interface
        sends = self.sends
        node_id = node.node_id

        def submit(message, now):
            sends.append((now, node_id, message))

        orig_can_accept = type(iface).can_accept.__get__(iface)

        def can_accept(priority, nwords):
            ok = orig_can_accept(priority, nwords)
            if not ok and iface._outstanding_words > 0:
                optimistic = iface._used_words() - iface._outstanding_words
                if optimistic + nwords <= iface.capacity_words:
                    raise EpochAbort(
                        f"node {node_id}: send-buffer probe ambiguous "
                        f"under pessimistic release accounting")
            return ok

        iface._submit = submit
        iface.can_accept = can_accept

    # ------------------------------------------------------------------ epoch

    def run_epoch(self, plan: EpochPlan) -> EpochReport:
        m = self.machine
        for node_id, words in plan.finishes:
            m.nodes[node_id].interface._outstanding_words -= words
        for arrival, node_id, message in plan.deliveries:
            m._deliver(node_id, message, arrival)
        end = plan.end
        cap = min(plan.limit, end)
        pheap = m._proc_heap
        dheap = m._delivery_heap
        try:
            while True:
                t = None
                if dheap:
                    t = dheap[0][0]
                if pheap and (t is None or pheap[0][0] < t):
                    t = pheap[0][0]
                if t is None or t >= end:
                    break
                if t < plan.start:
                    t = plan.start
                m.now = t
                m._commit_deliveries()
                m._tick_procs(cap)
                self.last_activity = t
        except EpochAbort as exc:
            self.dirty = str(exc)
        except Exception:
            # A handler fault the parent would surface serially (e.g. a
            # host-inject queue overflow): fall back and let the serial
            # rerun raise it at the exact cycle.
            self.dirty = f"shard raised:\n{traceback.format_exc()}"
        report = EpochReport(
            sends=list(self.sends),
            next_wake=pheap[0][0] if pheap else None,
            last_activity=self.last_activity,
            deliveries_committed=m.deliveries_committed,
            dirty=self.dirty,
        )
        self.sends.clear()
        instructions = 0
        for node_id in self.owned:
            proc = m.nodes[node_id].proc
            instructions += proc.counters.instructions
            if not proc.spill_enabled:
                report.free_words[node_id] = (
                    proc.queues[Priority.P0].free_words,
                    proc.queues[Priority.P1].free_words,
                )
        report.instructions = instructions
        return report

    # --------------------------------------------------------------- finalize

    def finalize(self) -> FinalState:
        m = self.machine
        final = FinalState(heap_entries=list(m._proc_heap))
        for node_id in self.owned:
            node = m.nodes[node_id]
            state = {k: v for k, v in node.proc.__dict__.items()
                     if k not in PROC_SKIP_ATTRS}
            iface = node.interface
            final.nodes[node_id] = (
                state, iface._outstanding_words, iface._building,
                node.next_tick,
            )
        if self._bus is not None:
            final.events = self._bus.events[self._events_base:]
        chaos = m.chaos
        if chaos is not None:
            final.chaos_counters = {
                k: v - self._chaos_counters_base[k]
                for k, v in chaos.counters.items()
                if v != self._chaos_counters_base[k]
            }
            final.chaos_log = chaos.log[self._chaos_log_base:]
            final.chaos_kills = chaos._kill_recorded - self._chaos_kills_base
            final.chaos_stalls = (chaos._stall_recorded
                                  - self._chaos_stalls_base)
        return final

    # ------------------------------------------------------------------ serve

    def serve(self) -> None:
        self.prepare()
        conn = self.conn
        while True:
            request = conn.recv()
            tag = request[0]
            if tag == "epoch":
                conn.send(("report", self.run_epoch(request[1])))
            elif tag == "finalize":
                conn.send(("final", self.finalize()))
            elif tag == "stop":
                break


def worker_main(machine, owned: range, conn) -> None:
    """Process entry point (fork start method: state rides in memory)."""
    try:
        ShardWorker(machine, owned, conn).serve()
    except EOFError:
        pass
    except BaseException:
        try:
            conn.send(("crash", traceback.format_exc()))
        except Exception:
            pass
    finally:
        try:
            conn.close()
        except Exception:
            pass
