"""The Message-Driven Processor: execution engine of one J-Machine node.

This module implements the MDP's execution model at instruction
granularity with cycle-accurate costs drawn from
:class:`~repro.core.costs.CostModel`:

* **Message-driven execution.**  The processor is idle until a message
  reaches the head of a queue; dispatch then takes 4 cycles, during which
  the IP is loaded from the message header and ``A3`` is pointed at the
  message so the thread can read its arguments (Section 2.1).
* **Two priorities plus background.**  Priority-1 messages preempt
  priority-0 threads at instruction boundaries; a background thread runs
  whenever both queues are empty.  Each level has its own register set, so
  switching is free of save/restore cost.
* **Presence tags.**  Moving a ``cfut`` or using a ``fut`` faults; the
  installed :class:`~repro.core.faults.FaultPolicy` typically suspends the
  thread and watches the faulted address, restarting the thread when a
  value is written there.
* **Send instructions.**  ``SEND``/``SEND2`` stream words into the network
  interface at up to 2 words/cycle; ``SENDE``/``SEND2E`` launch the
  message.  A full send buffer raises a send fault, which the default
  policy turns into a 1-cycle stall-and-retry — exactly the backpressure
  behaviour the paper describes for congested networks (Section 4.3.2).

The processor is scheduled externally: the machine calls :meth:`Mdp.tick`
whenever the simulation clock reaches the processor's ``ready_at`` time,
and the processor executes one dispatch or one instruction per call,
returning when it will next be runnable.  A parked (idle) processor
returns ``None`` and is woken by message delivery.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from .amt import AssociativeMatchTable
from .costs import CostModel, DEFAULT_COSTS
from .errors import (
    CfutFault,
    FutUseFault,
    IllegalInstructionFault,
    SendFault,
    TypeFault,
    XlateMissFault,
)
from .faults import FaultPolicy, RuntimeFaultPolicy
from .fastpath import (STATS, BlockTables, bind_block, block_text, context,
                       tables_for)
from .isa import Imm, Instr, MemIdx, MemOff, Operand, Reg
from .memory import MSG_WINDOW_P0, MSG_WINDOW_P1, MSG_WINDOW_WORDS, NodeMemory
from .message import Message
from .queues import MessageQueue
from .registers import Priority, RegisterFile, RegisterSet
from .tags import Tag
from .word import Word

__all__ = [
    "Mdp",
    "MdpCounters",
    "NetworkInterface",
    "NullNetworkInterface",
    "MSG_WINDOW_WORDS",
    "MSG_WINDOW_P0",
    "MSG_WINDOW_P1",
]

#: Interned A3 message-window descriptors, keyed (window base, length).
#: Both coordinates are drawn from a handful of values, and ADDR words
#: are immutable, so dispatch can reuse them instead of repacking.
_A3_SEGMENTS: Dict[tuple, "Word"] = {}


class NetworkInterface:
    """What the processor needs from the node's network interface.

    Implementations buffer the words streamed by SEND instructions and
    launch a worm when the end-marked word arrives.  ``send_word`` raises
    :class:`~repro.core.errors.SendFault` when no buffer space is
    available, which the fault policy converts into a stall-and-retry.
    """

    def send_word(self, priority: Priority, word: Word, end: bool, now: int) -> None:
        raise NotImplementedError

    def can_accept(self, priority: Priority, nwords: int) -> bool:
        raise NotImplementedError


class NullNetworkInterface(NetworkInterface):
    """Interface for standalone single-processor use: sending is an error."""

    def send_word(self, priority: Priority, word: Word, end: bool, now: int) -> None:
        raise IllegalInstructionFault("this processor has no network attached")

    def can_accept(self, priority: Priority, nwords: int) -> bool:
        return False


@dataclass
class MdpCounters:
    """Per-processor activity counters.

    Cycle counts are split by the *function* being performed, which is what
    Figure 6 of the paper reports: computation, communication (send
    instructions), synchronization (tag faults, suspends, restarts),
    naming (xlate/enter), plus dispatch and stall overheads.  Idle time is
    derived by the machine as total time minus busy time.
    """

    instructions: int = 0
    dispatches: int = 0
    threads_completed: int = 0
    messages_sent: int = 0
    words_sent: int = 0
    send_faults: int = 0
    suspends: int = 0
    restarts: int = 0
    spills: int = 0

    compute_cycles: int = 0
    comm_cycles: int = 0
    sync_cycles: int = 0
    xlate_cycles: int = 0
    dispatch_cycles: int = 0
    fault_cycles: int = 0
    stall_cycles: int = 0

    @property
    def busy_cycles(self) -> int:
        """All cycles the processor was doing something."""
        return (
            self.compute_cycles
            + self.comm_cycles
            + self.sync_cycles
            + self.xlate_cycles
            + self.dispatch_cycles
            + self.fault_cycles
            + self.stall_cycles
        )

    def breakdown(self) -> Dict[str, int]:
        """Busy cycles by category (Figure 6 input)."""
        return {
            "compute": self.compute_cycles,
            "comm": self.comm_cycles,
            "sync": self.sync_cycles,
            "xlate": self.xlate_cycles,
            "dispatch": self.dispatch_cycles,
            "fault": self.fault_cycles,
            "stall": self.stall_cycles,
        }


@dataclass
class _Thread:
    """A running thread at one priority level."""

    priority: Priority
    message: Optional[Message] = None
    #: True until the 4-cycle dispatch sequence has completed.
    needs_dispatch: bool = False
    #: Trace context of the dispatching message (None when untraced);
    #: sends issued by this thread become children of it.
    trace: Optional[tuple] = None


@dataclass
class _SuspendedThread:
    """A thread suspended on a presence fault, awaiting a write."""

    priority: Priority
    ip: int
    registers: List[Word] = field(default_factory=list)
    window: List[Word] = field(default_factory=list)
    window_base: int = 0
    trace: Optional[tuple] = None


# Categories for instruction kinds (Figure 6 accounting).
_KIND_CATEGORY = {
    "move": "compute",
    "alu": "compute",
    "branch": "compute",
    "control": "compute",
    "send": "comm",
    "name": "xlate",
    "sync": "sync",
}

_ALU_FUNCS: Dict[str, Callable[[int, int], int]] = {
    "ADD": lambda a, b: a + b,
    "SUB": lambda a, b: a - b,
    "MUL": lambda a, b: a * b,
    "DIV": lambda a, b: _div(a, b),
    "MOD": lambda a, b: _mod(a, b),
    "AND": lambda a, b: a & b,
    "OR": lambda a, b: a | b,
    "XOR": lambda a, b: a ^ b,
    "ASH": lambda a, b: a << b if b >= 0 else a >> (-b),
    "LSH": lambda a, b: _lsh(a, b),
    "EQ": lambda a, b: int(a == b),
    "NE": lambda a, b: int(a != b),
    "LT": lambda a, b: int(a < b),
    "LE": lambda a, b: int(a <= b),
    "GT": lambda a, b: int(a > b),
    "GE": lambda a, b: int(a >= b),
}

_COMPARE = {"EQ", "NE", "LT", "LE", "GT", "GE"}
_MULTICYCLE_ALU = {"MUL": 1, "DIV": 12, "MOD": 12}


def _div(a: int, b: int) -> int:
    if b == 0:
        raise TypeFault("division by zero")
    return int(a / b)  # truncating division, C-style


def _mod(a: int, b: int) -> int:
    if b == 0:
        raise TypeFault("modulo by zero")
    return a - _div(a, b) * b


def _lsh(a: int, b: int) -> int:
    unsigned = a & 0xFFFFFFFF
    return unsigned << b if b >= 0 else unsigned >> (-b)


class Mdp:
    """One Message-Driven Processor with its memory, AMT, and queues."""

    #: Attributes owned by the machine wiring or rebuilt on demand, never
    #: part of the processor's captured state: the network binding, the
    #: telemetry bus, the compiled blocks with the context they run
    #: against, the host completion callbacks, the stop condition a run
    #: armed, and the cycle of the tick in progress.  Snapshot capture
    #: builds its skip list on this tuple.
    UNCAPTURED_ATTRS = ("network", "_events", "_blocks", "_context",
                        "on_thread_complete", "_stop", "_clock")

    def __init__(
        self,
        node_id: int,
        memory: Optional[NodeMemory] = None,
        costs: CostModel = DEFAULT_COSTS,
        fault_policy: Optional[FaultPolicy] = None,
        queue_words: Optional[int] = None,
        network: Optional[NetworkInterface] = None,
        fast_path: bool = False,
    ) -> None:
        self.node_id = node_id
        self.costs = costs
        self.memory = memory if memory is not None else NodeMemory(costs=costs)
        self.amt = AssociativeMatchTable()
        self.fault_policy = fault_policy if fault_policy is not None else RuntimeFaultPolicy()
        self.network = network if network is not None else NullNetworkInterface()

        queue_kwargs = {} if queue_words is None else {"capacity_words": queue_words}
        self.queues: Dict[Priority, MessageQueue] = {
            Priority.P0: MessageQueue(**queue_kwargs),
            Priority.P1: MessageQueue(**queue_kwargs),
        }

        self.registers = RegisterFile()
        self.code: Dict[int, Instr] = {}
        self.counters = MdpCounters()

        self._current: Dict[Priority, Optional[_Thread]] = {
            Priority.P0: None,
            Priority.P1: None,
            Priority.BACKGROUND: None,
        }
        self._runnable: Dict[Priority, List[_SuspendedThread]] = {
            Priority.P0: [],
            Priority.P1: [],
        }
        self._watch: Dict[int, List[_SuspendedThread]] = {}
        self._background_ip: Optional[int] = None
        #: When True, queue overflow spills to memory instead of
        #: backpressuring the network (the paper's software fault path).
        self.spill_enabled = False
        self._spill: List[Message] = []
        self._active_priority: Optional[Priority] = None
        self._current_instr_addr: int = 0
        self.halted = False
        #: Compiled-block execution (see :mod:`repro.core.fastpath`).  Off
        #: by default so bare processors keep the documented one-step-per-
        #: tick contract; the machine turns it on via MachineConfig.
        self.fast_path = fast_path
        #: Compiled blocks for this processor's code, keyed by start
        #: address: one table per emitted mode (bare, events attached),
        #: shared with every processor holding the same program image
        #: (:func:`~repro.core.fastpath.tables_for`); and what they run
        #: against (fastpath.context), which is this processor's own.
        self._blocks: BlockTables = tables_for(None, self)
        self._context: Optional[tuple] = None
        #: The cycle the tick in progress was called at: a queue row
        #: freed by an instruction starting later is freed ahead of the
        #: network (:meth:`MessageQueue.dequeue`).
        self._clock = 0
        #: The stop condition the current ``JMachine.run`` armed
        #: (:class:`~repro.machine.stop.StopFlags`), or None.  While set,
        #: its flag words on this node sit in :attr:`_watch` (an empty
        #: list when no thread waits on one) so every store to them
        #: reaches :meth:`_wake_watchers`.
        self._stop = None
        #: Set by :meth:`_wake_watchers`; tells a running block that the
        #: scheduler's view changed and the block must end.
        self._woke = False
        #: Observers called as fn(proc, message) when a thread completes.
        self.on_thread_complete: List[Callable[["Mdp", Optional[Message]], None]] = []
        #: Telemetry event bus, installed by repro.telemetry.wiring; None
        #: keeps every emission site on its cheap ``is None`` branch.
        self._events = None
        #: Virtual time the current instruction started at: what
        #: suspension/thread-end events and watched stores are stamped
        #: with, identically on the fast and reference paths.  The
        #: interpreter always maintains it; compiled blocks only while
        #: events are enabled (they pass ``vnow`` to the store hook).
        self._event_time = 0

    # ------------------------------------------------------------------ setup

    def install_code(self, placed: Iterable[Tuple[int, Instr]],
                     image: object = None) -> None:
        """Place decoded instructions at their ``(address, instr)`` slots.

        The one way code gets into a processor.  Instruction *objects*
        live in a side table; their addresses still classify as
        internal/external memory for fetch-cost purposes.  A load
        invalidates every block compiled from the old code.  ``image``
        names where ``placed`` came from (``Program.load`` passes the
        program): a processor whose whole code is that one image binds
        blocks into the image's shared tables, any other into its own.
        """
        fresh = not self.code
        self.code.update(placed)
        self.drop_compiled(image if fresh else None)

    def drop_compiled(self, image: object = None) -> None:
        """Forget every compiled block (rebuilt on next execution).

        The tables map this processor's code to shared blocks and the
        context holds its memory, counters and watch table by identity,
        so anything that replaces either — a code load, a snapshot
        restore — must call this.  The processor gets tables of its own,
        or ``image``'s shared ones; tables it shared before stay with
        the processors still holding that image.
        """
        self._blocks = tables_for(image, self)
        self._context = None

    def block_source(self, addr: int) -> str:
        """The generated Python of the compiled block containing ``addr``.

        Each instruction is preceded by a ``# @<addr> <OP> <operands>``
        comment.  Blocks overlap (a branch into the middle of a run
        starts a new one), so the block *starting* at ``addr`` wins, then
        any bound block covering it; with neither, the block at ``addr``
        is compiled.  "" for an instruction the generator declines.
        """
        bound = self._blocks[0]
        for block in [bound[addr]] if addr in bound else bound.values():
            text = block_text(block)
            if f"# @{addr} " in text:
                return text
        block = bind_block(self, addr, False)
        return block_text(block) if block is not None else ""

    def set_background(self, ip: Optional[int]) -> None:
        """Install (or clear) the background thread's entry point."""
        self._background_ip = ip
        if ip is not None:
            self.registers[Priority.BACKGROUND].ip = ip
            self._current[Priority.BACKGROUND] = None

    # --------------------------------------------------------------- delivery

    def can_accept(self, message: Message) -> bool:
        """True if the target queue has room (network flow control).

        With :attr:`spill_enabled` the processor never refuses: overflow
        messages go to the software-managed spill area instead (the
        paper's "system-level queue overflow fault handler", Section
        4.3.3 — "relatively expensive and ... intended for transient
        traffic overruns").
        """
        if self.spill_enabled:
            return True
        return self.queues[message.priority].would_fit(message)

    def deliver(self, message: Message, now: int) -> None:
        """Accept an arriving message into its priority queue."""
        queue = self.queues[message.priority]
        if self.spill_enabled and not queue.would_fit(message):
            self._spill.append(message)
            self.counters.spills += 1
            if self._events is not None:
                self._events.emit("queue-overflow", now, self.node_id,
                                  int(message.priority),
                                  src=message.source, trace=message.trace)
            return
        queue.enqueue(message)
        if self._events is not None:
            self._events.emit("deliver", now, self.node_id,
                              int(message.priority), src=message.source,
                              trace=message.trace)

    def checksum_reject(self, message: Message, now: int) -> int:
        """Discard a corrupted arrival: the software integrity check failed.

        Fault injection (:mod:`repro.chaos`) can flip flits in transit;
        the machine routes such messages here instead of enqueueing them.
        The fault handler vectors, scans the message (charged per word),
        and drops it — recovery, if any, is end-to-end (the sender's
        reliable transport notices the missing acknowledgment and
        retransmits).  Returns the cycles charged.
        """
        cost = self.costs.fault_vector + 2 * message.length
        self._charge("fault", cost)
        if self._events is not None:
            self._events.emit("chaos", now, self.node_id,
                              int(message.priority),
                              name="checksum-reject", src=message.source,
                              trace=message.trace)
        return cost

    def _refill_from_spill(self) -> int:
        """Move spilled messages back into the hardware queue.

        Returns the software cost charged (per message re-queued).
        """
        if not self._spill:
            return 0
        cost = 0
        while self._spill:
            message = self._spill[0]
            queue = self.queues[message.priority]
            if not queue.would_fit(message):
                break
            queue.enqueue(message)
            self._spill.pop(0)
            cost += self.costs.queue_overflow_per_msg
        if cost:
            self._charge("fault", cost)
        return cost

    def current_trace(self) -> Optional[tuple]:
        """Trace context of the thread executing right now, or None.

        The network interface consults this when a SEND launches a
        message, so the message becomes a child span of the message that
        dispatched the sending thread (:mod:`repro.telemetry.trace`).
        """
        priority = self._active_priority
        if priority is None:
            return None
        thread = self._current[priority]
        return thread.trace if thread is not None else None

    def has_work(self) -> bool:
        """True if the processor would do anything if ticked."""
        if self.halted:
            return False
        if any(self._current.values()):
            return True
        if self.queues[Priority.P1] or self.queues[Priority.P0]:
            return True
        if self._runnable[Priority.P1] or self._runnable[Priority.P0]:
            return True
        if self._spill:
            return True
        return self._background_ip is not None

    # ------------------------------------------------------------- scheduling

    def _charge(self, category: str, cycles: int) -> None:
        setattr(
            self.counters,
            f"{category}_cycles",
            getattr(self.counters, f"{category}_cycles") + cycles,
        )

    def _window_base(self, priority: Priority) -> int:
        return MSG_WINDOW_P1 if priority is Priority.P1 else MSG_WINDOW_P0

    def _select(self) -> Optional[Tuple[Priority, str]]:
        """Choose what to run next: (priority, action) or None if idle.

        Preference order implements preemption: priority 1 work always
        precedes priority 0 work, which precedes the background thread.
        Within a priority, a thread already running continues, restartable
        suspended threads go next, then new messages are dispatched.
        """
        for priority in (Priority.P1, Priority.P0):
            if self._current[priority] is not None:
                return priority, "run"
            if self._runnable[priority]:
                return priority, "restart"
            if self.queues[priority]:
                return priority, "dispatch"
        if self._background_ip is not None:
            return Priority.BACKGROUND, "run"
        return None

    def tick(
        self,
        now: int,
        deadline: Optional[int] = None,
        send_before: int = sys.maxsize,
    ) -> Optional[int]:
        """Execute one scheduling step; return the next ready time.

        Returns ``None`` when the processor has nothing to do (parked);
        the machine re-ticks it after the next delivery.

        With :attr:`fast_path` enabled, one call executes an entire
        straight-line *block* of instructions instead of a single step:
        execution continues, accumulating cycle charges in virtual time,
        until the thread suspends, sends, faults, stores to a watched
        address, or the virtual clock reaches ``deadline`` (exclusive:
        every instruction *starting* before the deadline runs to
        completion, exactly as the per-step reference would execute it).
        A SEND-family instruction additionally starts only before
        ``send_before``: the order of ``fabric.send`` calls is
        arbitration order, so under a stop condition the machine lets a
        processor send only while no peer could send earlier.  The
        returned next-ready time is identical to what the per-step
        reference path would eventually produce.
        """
        self._clock = now
        if not self.fast_path:
            return self._tick_reference(now)
        if self.halted:
            return None
        if self._spill:
            refill_cost = self._refill_from_spill()
            if refill_cost:
                return now + refill_cost
        selection = self._select()
        if selection is None:
            return None
        priority, action = selection

        vnow = now
        if action == "dispatch":
            vnow += self._do_dispatch(priority, now)
        elif action == "restart":
            vnow += self._do_restart(priority, now)
        if action != "run" and deadline is not None and vnow >= deadline:
            return vnow

        if priority is Priority.BACKGROUND and self._current[priority] is None:
            self._current[priority] = _Thread(Priority.BACKGROUND)
        assert self._current[priority] is not None
        return self._run_blocks(priority, vnow, deadline, send_before)

    def _tick_reference(self, now: int) -> Optional[int]:
        """The per-step scheduler: one dispatch/restart/instruction."""
        if self.halted:
            return None
        if self._spill:
            # Software overflow handler runs ahead of normal dispatch.
            refill_cost = self._refill_from_spill()
            if refill_cost:
                return now + refill_cost
        selection = self._select()
        if selection is None:
            return None
        priority, action = selection

        if action == "dispatch":
            return now + self._do_dispatch(priority, now)
        if action == "restart":
            return now + self._do_restart(priority, now)

        thread = self._current[priority]
        if priority is Priority.BACKGROUND and thread is None:
            thread = _Thread(Priority.BACKGROUND)
            self._current[Priority.BACKGROUND] = thread
        assert thread is not None
        return now + self._execute_one(priority, thread, now)

    def _run_blocks(
        self,
        priority: Priority,
        vnow: int,
        deadline: Optional[int],
        send_before: int,
    ) -> int:
        """Run compiled blocks, chained, until one must stop.

        A block replicates :meth:`_execute_one` per instruction — same
        charge order, same fault handling, same counter updates — and
        returns ``(vnow, stop)``: ``stop`` after a boundary op, a fault,
        a watched store or a send held back by ``send_before``;
        otherwise the block at the new ``ip`` runs next, without
        re-entering the scheduler.
        """
        regset = self.registers[priority]
        events = self._events is not None
        blocks = self._blocks[events]
        ctx = self._context
        if ctx is None:
            ctx = self._context = context(self)
        end = deadline if deadline is not None else sys.maxsize
        self._active_priority = priority
        self._woke = False
        stop = False
        while vnow < end and not stop:
            block = blocks.get(regset.ip)
            if block is None:
                block = blocks[regset.ip] = (
                    bind_block(self, regset.ip, events) or _step_block)
            vnow, stop = block(regset, vnow, end, send_before, ctx)
        return vnow

    def _block_fault(self, exc: BaseException, regset: RegisterSet, addr: int,
                     vnow: int, instructions: int,
                     compute: int) -> Tuple[int, bool]:
        """A compiled block's ``except``: the instruction at ``addr``,
        started at ``vnow``, raised ``exc``; the block had not yet
        counted ``instructions`` retired and ``compute`` compute cycles.
        Leaves what the per-instruction loop leaves, then resolves or
        re-raises."""
        counters = self.counters
        counters.instructions += instructions
        counters.compute_cycles += compute
        regset.ip = addr + 1
        self._current_instr_addr = addr
        self._event_time = vnow  # a fault-suspend frees its row then
        if not isinstance(exc, (SendFault, CfutFault, FutUseFault)):
            raise exc
        return vnow + self._resolve_fault(exc, regset, addr), True

    def _resolve_fault(self, fault: Exception, regset: RegisterSet,
                       addr: int) -> int:
        """Hand a send or presence fault from the instruction at ``addr``
        to the fault policy; return the cycles it charged."""
        meter = self.memory.meter
        if isinstance(fault, SendFault):
            regset.ip = addr  # retry the send
            meter.cycles = 0
            cost = self.fault_policy.on_send_fault(self, fault)
            self.counters.stall_cycles += cost
            return cost
        resolve = (self.fault_policy.on_cfut if isinstance(fault, CfutFault)
                   else self.fault_policy.on_fut_use)
        cost = resolve(self, fault_address(fault), fault)
        self.counters.sync_cycles += cost
        meter.cycles = 0
        return cost

    def _do_dispatch(self, priority: Priority, now: int) -> int:
        """Hardware dispatch: 4 cycles from queue head to runnable thread."""
        queue = self.queues[priority]
        message = queue.head()
        assert message is not None
        window = self._window_base(priority)
        for i, word in enumerate(message.words[:MSG_WINDOW_WORDS]):
            self.memory.poke(window + i, word)
        regset = self.registers[priority]
        regset.ip = message.handler_ip
        seg_key = (window, min(len(message.words), MSG_WINDOW_WORDS))
        seg = _A3_SEGMENTS.get(seg_key)
        if seg is None:
            seg = _A3_SEGMENTS[seg_key] = Word.segment(*seg_key)
        regset.write("A3", seg)
        self._current[priority] = _Thread(priority, message=message,
                                          trace=message.trace)
        counters = self.counters
        counters.dispatches += 1
        counters.dispatch_cycles += self.costs.dispatch
        if self._events is not None:
            self._events.emit("dispatch", now, self.node_id,
                              int(priority),
                              name=f"handler@{message.handler_ip}",
                              src=message.source, trace=message.trace)
        return self.costs.dispatch

    def _do_restart(self, priority: Priority, now: int) -> int:
        """Resume a suspended thread whose awaited value has arrived."""
        suspended = self._runnable[priority].pop(0)
        regset = self.registers[priority]
        regset.restore(suspended.registers)
        regset.ip = suspended.ip
        for i, word in enumerate(suspended.window):
            self.memory.poke(suspended.window_base + i, word)
        if suspended.window:
            regset.write(
                "A3", Word.segment(suspended.window_base, len(suspended.window))
            )
        self._current[priority] = _Thread(priority, message=None,
                                          trace=suspended.trace)
        self.counters.restarts += 1
        restart = self.costs.restart
        self._charge("sync", restart)
        if self._events is not None:
            self._events.emit("restart", now, self.node_id,
                              int(priority), name=f"restart@{suspended.ip}",
                              trace=suspended.trace)
        return restart

    # -------------------------------------------------------------- execution

    def _execute_one(self, priority: Priority, thread: _Thread, now: int) -> int:
        regset = self.registers[priority]
        addr = regset.ip
        instr = self.code.get(addr)
        if instr is None:
            raise IllegalInstructionFault(
                f"node {self.node_id}: no instruction at {addr}"
            )
        self._current_instr_addr = addr
        self._active_priority = priority
        self._event_time = now
        regset.ip = addr + 1
        self.memory.meter.take_cycles()  # discard any stale charge

        category = _KIND_CATEGORY[instr.spec.kind]
        base = self.costs.reg_op
        if not self.memory.is_internal(addr):
            base += self.costs.emem_fetch_per_word // 2

        try:
            extra = self._dispatch_instr(instr, regset, priority, now)
        except (SendFault, CfutFault, FutUseFault) as fault:
            return self._resolve_fault(fault, regset, addr)

        mem_cycles = self.memory.meter.take_cycles()
        cost = base + extra + mem_cycles
        self.counters.instructions += 1
        self._charge(category, cost)
        return cost

    # -- operand access ------------------------------------------------------

    def _operand_address(self, operand: Operand, regset: RegisterSet) -> int:
        """Resolve a memory operand to a flat address (bounds checked)."""
        if isinstance(operand, MemOff):
            descriptor = regset.read(operand.areg.name)
            base, length = descriptor.as_segment()
            index = operand.offset
        elif isinstance(operand, MemIdx):
            descriptor = regset.read(operand.areg.name)
            base, length = descriptor.as_segment()
            index_word = regset.read(operand.idxreg.name)
            self._guard_use(index_word, None)
            index = index_word.value
        else:
            raise IllegalInstructionFault("not a memory operand")
        if not 0 <= index < length:
            from .errors import SegmentationFault

            raise SegmentationFault(
                f"index {index} outside segment base={base} length={length}"
            )
        return base + index

    def _guard_read(self, word: Word, address: Optional[int]) -> None:
        """cfut faults on *any* read (move/copy included)."""
        if word.tag is Tag.CFUT:
            raise _with_address(CfutFault("read of cfut slot"), address)

    def _guard_use(self, word: Word, address: Optional[int]) -> None:
        """fut faults when the value is *used*; cfut faults here too."""
        if word.tag is Tag.CFUT:
            raise _with_address(CfutFault("use of cfut slot"), address)
        if word.tag is Tag.FUT:
            raise _with_address(FutUseFault("use of unresolved future"), address)

    def _read_operand(
        self,
        operand: Operand,
        regset: RegisterSet,
        use: bool,
        raw: bool = False,
    ) -> Word:
        if isinstance(operand, Imm):
            return operand.word
        if isinstance(operand, Reg):
            word = regset.read(operand.name)
            address = None
        else:
            address = self._operand_address(operand, regset)
            word = self.memory.read(address)
        if raw:
            return word
        if use:
            self._guard_use(word, address)
        else:
            self._guard_read(word, address)
        return word

    def _write_operand(self, operand: Operand, regset: RegisterSet, word: Word) -> None:
        if isinstance(operand, Reg):
            regset.write(operand.name, word)
            return
        if isinstance(operand, Imm):
            raise IllegalInstructionFault("immediate cannot be a destination")
        address = self._operand_address(operand, regset)
        self.memory.write(address, word)
        if self._watch and address in self._watch:
            self._wake_watchers(address, self._event_time)

    # -- suspension ------------------------------------------------------------

    def suspend_on(self, address: int) -> None:
        """Suspend the current thread until ``address`` is written.

        Called by the fault policy from inside instruction execution.  The
        thread's registers and message window are saved; the IP is rolled
        back so the faulting instruction re-executes on restart.
        """
        priority = self._active_priority
        if priority is None or priority is Priority.BACKGROUND:
            raise IllegalInstructionFault("only message threads may suspend")
        thread = self._current[priority]
        assert thread is not None
        regset = self.registers[priority]
        window_base = self._window_base(priority)
        window: List[Word] = []
        if thread.message is not None:
            length = min(thread.message.length, MSG_WINDOW_WORDS)
            window = self.memory.dump_block(window_base, length)
            # The thread owns its message now; release the queue slot.
            self.queues[priority].dequeue(self._event_time, self._clock)
        suspended = _SuspendedThread(
            priority=priority,
            ip=self._current_instr_addr,
            registers=regset.snapshot(),
            window=window,
            window_base=window_base,
            trace=thread.trace,
        )
        self._watch.setdefault(address, []).append(suspended)
        self._current[priority] = None
        self.counters.suspends += 1
        if self._events is not None:
            # _event_time is the faulting instruction's start time, which
            # is identical on the fast and reference paths.
            self._events.emit("suspend", self._event_time, self.node_id,
                              int(priority), addr=address,
                              trace=thread.trace)

    def _wake_watchers(self, address: int, when: int) -> None:
        """The instruction that started at ``when`` stored to the watched
        ``address``: make the threads suspended on it runnable and tell
        the armed stop condition, which keeps its flag words watched.
        Either ends the running block (:attr:`_woke`)."""
        waiting = self._watch.pop(address)
        stop = self._stop
        if stop is not None and stop.stored(self, address, when):
            self._watch[address] = []
            self._woke = True
        for suspended in waiting:
            self._runnable[suspended.priority].append(suspended)
            self._woke = True

    # -- instruction semantics ---------------------------------------------------

    def _dispatch_instr(
        self, instr: Instr, regset: RegisterSet, priority: Priority, now: int
    ) -> int:
        """Execute ``instr``; return extra cycles beyond the base cost."""
        op = instr.op
        ops = instr.operands

        if op in _ALU_FUNCS:
            s1 = self._read_operand(ops[0], regset, use=True)
            s2 = self._read_operand(ops[1], regset, use=True)
            if not (s1.is_numeric() and s2.is_numeric()):
                raise TypeFault(f"{op} on non-numeric tags {s1.tag.name},{s2.tag.name}")
            value = _ALU_FUNCS[op](s1.value, s2.value)
            tag = Tag.BOOL if op in _COMPARE else Tag.INT
            self._write_operand(ops[2], regset, Word(tag, value))
            return _MULTICYCLE_ALU.get(op, 0)

        if op == "MOVE":
            word = self._read_operand(ops[0], regset, use=False)
            self._write_operand(ops[1], regset, word)
            return 0
        if op == "MOVER":
            word = self._read_operand(ops[0], regset, use=False, raw=True)
            self._write_operand(ops[1], regset, word)
            return 0
        if op == "WTAG":
            word = self._read_operand(ops[0], regset, use=False, raw=True)
            tag = Tag(self._read_operand(ops[1], regset, use=False, raw=True).value)
            self._write_operand(ops[2], regset, Word(tag, word.value))
            return 0
        if op == "RTAG":
            word = self._read_operand(ops[0], regset, use=False, raw=True)
            self._write_operand(ops[1], regset, Word.from_int(int(word.tag)))
            return 0
        if op == "MOVEID":
            self._write_operand(ops[0], regset, Word.from_int(self.node_id))
            return 0
        if op == "CYCLE":
            self._write_operand(ops[0], regset, Word.from_int(now))
            return 0
        if op == "NOT":
            word = self._read_operand(ops[0], regset, use=True)
            self._write_operand(ops[1], regset, Word.from_int(~word.value))
            return 0
        if op == "NEG":
            word = self._read_operand(ops[0], regset, use=True)
            self._write_operand(ops[1], regset, Word.from_int(-word.value))
            return 0

        if op == "BR":
            regset.ip = self._read_operand(ops[0], regset, use=True).value
            return self.costs.branch_taken_extra
        if op in ("BT", "BF"):
            cond = self._read_operand(ops[0], regset, use=True)
            taken = cond.truthy() if op == "BT" else not cond.truthy()
            if taken:
                regset.ip = self._read_operand(ops[1], regset, use=True).value
                return self.costs.branch_taken_extra
            return 0
        if op == "CALL":
            return_addr = Word.from_int(regset.ip)
            regset.ip = self._read_operand(ops[0], regset, use=True).value
            self._write_operand(ops[1], regset, return_addr)
            return self.costs.branch_taken_extra
        if op == "JMP":
            regset.ip = self._read_operand(ops[0], regset, use=True).value
            return self.costs.branch_taken_extra

        if op == "SUSPEND":
            self._finish_thread(priority, now)
            return 0
        if op == "HALT":
            self.halted = True
            return 0
        if op == "NOP":
            return 0

        if op in ("SEND", "SENDE"):
            word = self._read_operand(ops[0], regset, use=False)
            # The word enters the interface when the instruction retires,
            # so a slow (external-memory) operand delays the launch.
            retire = now + self.memory.meter.cycles + self.costs.reg_op
            self.network.send_word(priority, word, end=(op == "SENDE"),
                                   now=retire)
            self.counters.words_sent += 1
            if op == "SENDE":
                self.counters.messages_sent += 1
            return 0
        if op in ("SEND2", "SEND2E"):
            end = op == "SEND2E"
            w1 = self._read_operand(ops[0], regset, use=False)
            w2 = self._read_operand(ops[1], regset, use=False)
            if not self.network.can_accept(priority, 2):
                raise SendFault("send buffer full")
            retire = now + self.memory.meter.cycles + self.costs.reg_op
            self.network.send_word(priority, w1, end=False, now=retire)
            self.network.send_word(priority, w2, end=end, now=retire)
            self.counters.words_sent += 2
            if end:
                self.counters.messages_sent += 1
            return 0

        if op == "ENTER":
            key = self._read_operand(ops[0], regset, use=False)
            value = self._read_operand(ops[1], regset, use=False)
            self.amt.enter(key, value)
            return self.costs.enter - self.costs.reg_op
        if op == "XLATE":
            key = self._read_operand(ops[0], regset, use=False)
            try:
                value = self.amt.xlate(key)
                extra = self.costs.xlate_hit - self.costs.reg_op
            except XlateMissFault as fault:
                miss_cost = self.fault_policy.on_xlate_miss(self, key, fault)
                value = self.amt.probe(key)
                if value is None:
                    raise
                extra = miss_cost
            self._write_operand(ops[1], regset, value)
            return extra
        if op == "PROBE":
            key = self._read_operand(ops[0], regset, use=False)
            value = self.amt.probe(key)
            self._write_operand(
                ops[1], regset, value if value is not None else Word.from_int(0)
            )
            return self.costs.xlate_hit - self.costs.reg_op

        if op == "CHECK":
            word = self._read_operand(ops[0], regset, use=False, raw=True)
            tag = Tag(self._read_operand(ops[1], regset, use=False, raw=True).value)
            self._write_operand(ops[2], regset, Word.from_bool(word.tag is tag))
            return 0

        raise IllegalInstructionFault(f"unimplemented opcode {op}")

    def _finish_thread(self, priority: Priority, when: int) -> None:
        """SUSPEND semantics, by the instruction that started at
        ``when``: retire the thread, free its message."""
        thread = self._current[priority]
        message = thread.message if thread else None
        if priority is Priority.BACKGROUND:
            self._background_ip = None
            self._current[Priority.BACKGROUND] = None
        else:
            if message is not None:
                self.queues[priority].dequeue(when, self._clock)
            self._current[priority] = None
            self.counters.threads_completed += 1
        if self._events is not None:
            self._events.emit(
                "thread-end", when, self.node_id, int(priority),
                trace=thread.trace if thread is not None else None)
        for observer in self.on_thread_complete:
            observer(self, message)


def _step_block(regset: RegisterSet, vnow: int, end: int, send_before: int,
                ctx: tuple) -> Tuple[int, bool]:
    """Stand-in block for an instruction the generator declines: one
    reference step on the context's processor, then stop (conservative,
    and vanishingly rare).  A plain function, like the blocks it stands
    in for, so image-shared tables can hold it."""
    STATS["fallback_instructions"] += 1
    proc = ctx[0]
    priority = proc._active_priority
    cost = proc._execute_one(priority, proc._current[priority], vnow)
    return vnow + cost, True


def _with_address(fault, address):
    """Attach the faulting memory address (if any) to a presence fault."""
    fault.address = address
    return fault


def fault_address(fault) -> Optional[int]:
    """The memory address a presence fault occurred at, or None."""
    return getattr(fault, "address", None)
