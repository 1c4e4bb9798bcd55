"""Remote-procedure-call micro-benchmark programs (Figure 2).

These are the paper's latency probes, written in MDP assembly:

* **Ping** — node A sends a two-word request; node B replies with a
  single-word acknowledgment ("sending a two-word request message to the
  remote node and waiting for and receiving a single word
  acknowledgment").
* **Remote read** — A sends a three-word request (handler, reply-to,
  index); B reads 1 or 6 words from internal or external memory and
  replies with a 2- or 7-word message.

Each experiment ping-pongs ``iterations`` times so per-trip cost can be
averaged, exactly like the hardware measurement.  Node-local state lives
in a small globals segment addressed through ``A0`` (the runtime's
global-segment convention); the remote node's readable array is addressed
through ``A1`` and can be placed in internal or external memory to get
the Imem/Emem variants.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..asm.assembler import Program, assemble
from ..core.errors import ConfigurationError, DeliveryError, SimulationError
from ..core.registers import Priority
from ..core.word import Word
from ..machine.jmachine import JMachine
from ..machine.stop import StopFlags

__all__ = ["PingResult", "run_ping", "run_remote_read", "RPC_SOURCE",
           "ReliableLayer", "backoff_delay"]


def backoff_delay(base: float, backoff: float, attempt: int,
                  jitter: float = 0.0, seed: int = 0, key=0) -> int:
    """Exponential backoff with seeded, deterministic jitter.

    Returns ``base * backoff**attempt`` scaled by a factor drawn
    uniformly from ``[1, 1 + jitter)``.  The draw is a pure function of
    ``(seed, key, attempt)`` — seeded through the string form, which
    hashes stably across processes — so concurrent timeouts with
    distinct keys de-synchronize while every replay of the same run
    produces the same schedule.  ``jitter=0`` skips the RNG entirely
    and reproduces the exact pre-jitter delays.
    """
    delay = base * (backoff ** attempt)
    if jitter:
        rng = random.Random(f"{seed}:{key!r}:{attempt}")
        delay *= 1.0 + jitter * rng.random()
    return int(delay)

#: Globals segment layout (offsets into the A0 segment).
_G_COUNT = 0      # iterations remaining
_G_PEER = 1       # the remote node id
_G_SELF = 2       # our own node id
_G_DONE = 3       # completion flag
_G_INDEX = 4      # index to read remotely
_G_DATA = 5       # landing area for read replies (up to 6 words)
GLOBALS_WORDS = 12

RPC_SOURCE = """
; ---- requester side -------------------------------------------------
; ack message: [IP:ping_ack]
ping_ack:
    SUB   [A0+0], #1, R0      ; --count
    MOVE  R0, [A0+0]
    BF    R0, ping_done
    SEND  [A0+1]              ; dest: peer node
    SEND2E #IP:ping_req, [A0+2]
    SUSPEND
ping_done:
    MOVE  #1, [A0+3]
    SUSPEND

; kickoff message: [IP:ping_go]
ping_go:
    SEND  [A0+1]
    SEND2E #IP:ping_req, [A0+2]
    SUSPEND

; ---- responder side -------------------------------------------------
; request: [IP:ping_req, replyto]
ping_req:
    SEND  [A3+1]
    SENDE #IP:ping_ack
    SUSPEND

; ---- remote read ----------------------------------------------------
; reply: [IP:read1_ack, value]
read1_ack:
    MOVE  [A3+1], [A0+5]
    SUB   [A0+0], #1, R0
    MOVE  R0, [A0+0]
    BF    R0, ping_done
    SEND  [A0+1]
    SEND2 #IP:read1_req, [A0+2]
    SENDE [A0+4]
    SUSPEND

read1_go:
    SEND  [A0+1]
    SEND2 #IP:read1_req, [A0+2]
    SENDE [A0+4]
    SUSPEND

; request: [IP:read1_req, replyto, index]
read1_req:
    SEND  [A3+1]
    MOVE  [A3+2], R0
    SEND  #IP:read1_ack
    SENDE [A1+R0]
    SUSPEND

; reply: [IP:read6_ack, v0..v5]
read6_ack:
    MOVE  [A3+1], [A0+5]
    MOVE  [A3+2], [A0+6]
    MOVE  [A3+3], [A0+7]
    MOVE  [A3+4], [A0+8]
    MOVE  [A3+5], [A0+9]
    MOVE  [A3+6], [A0+10]
    SUB   [A0+0], #1, R0
    MOVE  R0, [A0+0]
    BF    R0, ping_done
    SEND  [A0+1]
    SEND2 #IP:read6_req, [A0+2]
    SENDE [A0+4]
    SUSPEND

read6_go:
    SEND  [A0+1]
    SEND2 #IP:read6_req, [A0+2]
    SENDE [A0+4]
    SUSPEND

; request: [IP:read6_req, replyto, index]
read6_req:
    SEND  [A3+1]
    MOVE  [A3+2], R0
    SEND  #IP:read6_ack
    SEND  [A1+R0]
    ADD   R0, #1, R0
    SEND  [A1+R0]
    ADD   R0, #1, R0
    SEND  [A1+R0]
    ADD   R0, #1, R0
    SEND  [A1+R0]
    ADD   R0, #1, R0
    SEND  [A1+R0]
    ADD   R0, #1, R0
    SENDE [A1+R0]
    SUSPEND
"""


class ReliableLayer:
    """End-to-end reliable messaging over a lossy macro-level network.

    The J-Machine's network never loses messages, so its runtime has no
    retransmission layer; once the chaos engine can drop messages, the
    macro benchmarks need one.  This is the classic end-to-end recipe in
    simulated cycles:

    * every application message is wrapped in a ``__rel.recv`` envelope
      carrying a global **sequence number** (for acking), a per
      source→destination **stream sequence number** (for ordering), and
      the real handler name;
    * the receiver **acks** every envelope, dispatches each stream
      strictly in order — stashing early arrivals until the gap fills —
      and drops duplicates, so retransmission yields **exactly-once,
      in-order** dispatch (handlers need no idempotence of their own:
      the layer replays the envelope, not the handler, and hardware-like
      FIFO ordering per channel is preserved);
    * the sender keeps unacked envelopes in flight, retransmitting on a
      timer with **exponential backoff** (``timeout * backoff**attempt``
      cycles) until acked or ``max_retries`` is exhausted, at which point
      it raises :class:`~repro.core.errors.DeliveryError`.  ``jitter``
      spreads each delay by a *seeded, per-(seq, attempt)* factor in
      ``[1, 1 + jitter)`` so simultaneous timeouts — e.g. a link outage
      dropping a whole wavefront of messages at once — do not retransmit
      in lockstep and re-collide; the draw is a pure function of
      ``(jitter_seed, seq, attempt)``, so replays stay bit-identical
      (the determinism contract ``make chaos-smoke`` enforces).

    One modelling simplification: streams are keyed by source node only,
    so priority-1 traffic from a node is serialized with its priority-0
    traffic at the receiver.

    Envelopes and acks travel over the same lossy network as the traffic
    they protect — a lost ack simply causes one duplicate delivery, which
    the seen-set suppresses.  Install with ``ReliableLayer(sim)`` *after*
    registering application handlers and *before* running; the layer
    shadows ``sim.post`` with an instance attribute, so every
    ``ctx.send`` is covered without touching application code.

    Cost model: the envelope adds :data:`ENVELOPE_WORDS` words per
    message (sequence number + reply-to), and the receiver charges a few
    instructions for the sequence check — the measured overhead the
    chaos sweep reports.

    Retries surface in telemetry as ``retry`` events and, when a chaos
    engine is attached, in the ``chaos.retries`` / ``chaos.give_ups``
    counters.
    """

    RECV = "__rel.recv"
    ACK = "__rel.ack"
    #: Extra message words the envelope costs (seq + stream-seq + reply-to).
    ENVELOPE_WORDS = 3
    #: Instructions the receiver charges to check/record a sequence number.
    SEQ_CHECK_INSTRUCTIONS = 4

    def __init__(self, sim, timeout: int = 10_000, max_retries: int = 10,
                 backoff: float = 2.0, jitter: float = 0.0,
                 jitter_seed: int = 0) -> None:
        if timeout <= 0:
            raise ConfigurationError("reliable-layer timeout must be > 0")
        if backoff < 1.0:
            raise ConfigurationError("backoff multiplier must be >= 1")
        if jitter < 0.0:
            raise ConfigurationError("backoff jitter must be >= 0")
        self.sim = sim
        self.timeout = timeout
        self.max_retries = max_retries
        self.backoff = backoff
        self.jitter = jitter
        self.jitter_seed = jitter_seed
        #: seq -> (source, dest, handler, args, length, priority, attempts)
        self._pending: Dict[int, Tuple] = {}
        self._next_seq = 0
        #: (source, dest) -> next stream sequence number to assign.
        self._stream_next: Dict[Tuple[int, int], int] = {}
        #: Receiver state, per node: source -> next stream seq expected,
        #: and source -> {stream seq -> (handler, args)} early arrivals.
        self._expected = [dict() for _ in range(sim.n_nodes)]
        self._stash = [dict() for _ in range(sim.n_nodes)]
        self.retries = 0
        self.give_ups = 0
        self.duplicates = 0
        self.reordered = 0
        self.acked = 0
        sim.register(self.RECV, self._on_recv)
        sim.register(self.ACK, self._on_ack)
        # Shadow the bound method with an instance attribute: every
        # ctx.send / sim.inject now routes through the envelope path.
        self._raw_post = sim.post
        sim.post = self._wrapped_post

    # -- the sending side ---------------------------------------------------

    def _wrapped_post(self, source, dest, handler, args, length, priority,
                      send_time, trace=None):
        if handler.startswith("__rel."):
            # Control traffic (envelopes being retransmitted, acks) goes
            # out raw; it is protected by retry + dedup, not recursion.
            self._raw_post(source, dest, handler, args, length, priority,
                           send_time, trace)
            return
        if handler not in self.sim.handlers:
            raise SimulationError(f"no handler named {handler!r}")
        seq = self._next_seq
        self._next_seq += 1
        stream = (source, dest)
        sseq = self._stream_next.get(stream, 0)
        self._stream_next[stream] = sseq + 1
        wrapped_args = (seq, sseq, source, handler, args)
        wrapped_length = length + self.ENVELOPE_WORDS
        # The trace context sticks to the *message*, not the attempt:
        # every retransmission of this envelope reuses it, so a retry
        # chain shows up as one span with a retry count, not a forest.
        self._pending[seq] = (source, dest, handler, args, wrapped_length,
                              priority, 0, sseq, trace)
        self._raw_post(source, dest, self.RECV, wrapped_args, wrapped_length,
                       priority, send_time, trace)
        self._arm_timer(seq, send_time, 0)

    def _arm_timer(self, seq: int, sent_at: int, attempt: int) -> None:
        delay = backoff_delay(self.timeout, self.backoff, attempt,
                              jitter=self.jitter, seed=self.jitter_seed,
                              key=seq)
        self.sim.schedule_call(sent_at + delay, _RetryTimer(self, seq))

    def _on_timeout(self, seq: int, now: int) -> None:
        entry = self._pending.get(seq)
        if entry is None:
            return  # acked in the meantime: the timer was stale
        (source, dest, handler, args, wrapped_length, priority, attempts,
         sseq, trace) = entry
        attempts += 1
        chaos = getattr(self.sim, "_chaos", None)
        if attempts > self.max_retries:
            self.give_ups += 1
            if chaos is not None:
                chaos.counters["give_ups"] += 1
            del self._pending[seq]
            raise DeliveryError(
                f"message seq={seq} ({handler!r} {source}->{dest}) "
                f"undelivered after {attempts - 1} retransmissions",
                source=source, dest=dest, seq=seq, attempts=attempts,
            )
        self.retries += 1
        if chaos is not None:
            chaos.counters["retries"] += 1
        ebus = getattr(self.sim, "_ebus", None)
        if ebus is not None:
            ebus.emit("retry", now, source, 1 if priority else 0,
                      name=handler, dest=dest, seq=seq, attempt=attempts,
                      trace=trace)
        self._pending[seq] = (source, dest, handler, args, wrapped_length,
                              priority, attempts, sseq, trace)
        # Retransmit with the *original* trace context (same span id).
        self._raw_post(source, dest, self.RECV,
                       (seq, sseq, source, handler, args),
                       wrapped_length, priority, now, trace)
        self._arm_timer(seq, now, attempts)

    # -- the receiving side -------------------------------------------------

    def _on_recv(self, ctx, seq, sseq, reply_to, handler, args):
        ctx.charge(self.SEQ_CHECK_INSTRUCTIONS, category="comm")
        # Ack unconditionally: a duplicate means our previous ack (or the
        # whole first delivery) was lost.
        ctx.send(reply_to, self.ACK, seq, length=2)
        node = ctx.node_id
        expected = self._expected[node].get(reply_to, 0)
        if sseq < expected:
            self.duplicates += 1
            return
        stash = self._stash[node].setdefault(reply_to, {})
        if sseq > expected:
            # An earlier message from this stream is missing (dropped and
            # not yet retransmitted): hold this one until the gap fills.
            if sseq not in stash:
                stash[sseq] = (handler, args)
                self.reordered += 1
            else:
                self.duplicates += 1
            return
        # In order: dispatch, then drain any stashed successors.  The
        # real handlers run inline, in this task's context, so their
        # charges land on this node at this simulated time.
        self.sim.handlers[handler](ctx, *args)
        expected += 1
        while expected in stash:
            stashed_handler, stashed_args = stash.pop(expected)
            self.sim.handlers[stashed_handler](ctx, *stashed_args)
            expected += 1
        self._expected[node][reply_to] = expected

    def _on_ack(self, ctx, seq):
        ctx.charge(2, category="comm")
        if self._pending.pop(seq, None) is not None:
            self.acked += 1

    # -- observation --------------------------------------------------------

    @property
    def in_flight(self) -> int:
        return len(self._pending)

    def stats(self) -> Dict[str, int]:
        return {
            "retries": self.retries,
            "give_ups": self.give_ups,
            "duplicates": self.duplicates,
            "reordered": self.reordered,
            "acked": self.acked,
            "in_flight": self.in_flight,
        }

    # -- snapshot contract ----------------------------------------------------

    #: Attributes established by construction against a live simulator
    #: (``__init__`` registers handlers and shadows ``sim.post``) rather
    #: than captured by :meth:`state_dict`.
    EXTERNAL_ATTRS = frozenset({"sim", "_raw_post"})

    def state_dict(self) -> dict:
        """The transport's resumable state: windows, streams, counters.

        The retransmit *timers* are not here — they live in the macro
        simulator's event heap as :class:`_RetryTimer` entries, which
        the snapshot layer re-binds to the restored layer by sequence
        number.
        """
        return {
            "timeout": self.timeout,
            "max_retries": self.max_retries,
            "backoff": self.backoff,
            "jitter": self.jitter,
            "jitter_seed": self.jitter_seed,
            "pending": dict(self._pending),
            "next_seq": self._next_seq,
            "stream_next": dict(self._stream_next),
            "expected": [dict(d) for d in self._expected],
            "stash": [dict(d) for d in self._stash],
            "retries": self.retries,
            "give_ups": self.give_ups,
            "duplicates": self.duplicates,
            "reordered": self.reordered,
            "acked": self.acked,
        }

    def load_state(self, state: dict) -> None:
        """Resume a :meth:`state_dict` capture on this (installed) layer."""
        if len(state["expected"]) != self.sim.n_nodes:
            raise SimulationError(
                "reliable-layer state was captured on a machine of "
                f"{len(state['expected'])} nodes, not {self.sim.n_nodes}")
        self.timeout = state["timeout"]
        self.max_retries = state["max_retries"]
        self.backoff = state["backoff"]
        # Pre-jitter snapshots (format additive within a major version).
        self.jitter = state.get("jitter", 0.0)
        self.jitter_seed = state.get("jitter_seed", 0)
        self._pending = dict(state["pending"])
        self._next_seq = state["next_seq"]
        self._stream_next = dict(state["stream_next"])
        self._expected = [dict(d) for d in state["expected"]]
        self._stash = [dict(d) for d in state["stash"]]
        self.retries = state["retries"]
        self.give_ups = state["give_ups"]
        self.duplicates = state["duplicates"]
        self.reordered = state["reordered"]
        self.acked = state["acked"]


class _RetryTimer:
    """A retransmit-timer callback that names its layer and sequence.

    ``schedule_call`` accepts any callable, and the layer used to pass a
    lambda — opaque to everything else.  A named class makes the timer
    *serializable by intent*: the snapshot layer can recognise it in the
    event heap, store it as its sequence number, and rebuild it against
    the restored layer on resume (closures cannot be captured).
    """

    __slots__ = ("layer", "seq")

    def __init__(self, layer: ReliableLayer, seq: int) -> None:
        self.layer = layer
        self.seq = seq

    def __call__(self, now: int) -> None:
        self.layer._on_timeout(self.seq, now)


@dataclass
class PingResult:
    """Round-trip latency measurement between two nodes."""

    requester: int
    responder: int
    hops: int
    iterations: int
    total_cycles: int

    @property
    def round_trip_cycles(self) -> float:
        return self.total_cycles / self.iterations


def _setup(
    machine: JMachine,
    requester: int,
    responder: int,
    iterations: int,
    read_index: int,
    remote_internal: bool,
) -> Program:
    program = assemble(RPC_SOURCE)
    machine.load(program, nodes={requester, responder})
    req = machine.node(requester).proc
    res = machine.node(responder).proc

    globals_base = program.end + 4
    req.memory.poke(globals_base + _G_COUNT, Word.from_int(iterations))
    req.memory.poke(globals_base + _G_PEER, Word.from_int(responder))
    req.memory.poke(globals_base + _G_SELF, Word.from_int(requester))
    req.memory.poke(globals_base + _G_DONE, Word.from_int(0))
    req.memory.poke(globals_base + _G_INDEX, Word.from_int(read_index))
    req.registers[Priority.P0].write(
        "A0", Word.segment(globals_base, GLOBALS_WORDS)
    )

    # Remote readable array: internal just above the program, or external.
    array_words = 16
    if remote_internal:
        array_base = globals_base + GLOBALS_WORDS
    else:
        array_base = res.memory.imem_words + 64
    for i in range(array_words):
        res.memory.poke(array_base + i, Word.from_int(1000 + i))
    res.registers[Priority.P0].write("A1", Word.segment(array_base, array_words))
    res.registers[Priority.P0].write(
        "A0", Word.segment(globals_base, GLOBALS_WORDS)
    )
    return program


def _run(
    machine: JMachine,
    program: Program,
    go_label: str,
    requester: int,
    responder: int,
    iterations: int,
    max_cycles: int,
    stop: str = "predicate",
) -> PingResult:
    globals_base = program.end + 4
    done = StopFlags([(requester, globals_base + _G_DONE, 1)])
    start = machine.now
    machine.inject(requester, program.entry(go_label))
    if stop == "quiescent":
        # Run to machine quiescence instead of watching the done flag.
        # The experiment naturally quiesces once the flag is set (all
        # threads end), so this measures the same work plus the final
        # drain.
        machine.run(max_cycles=max_cycles)
    else:
        machine.run(max_cycles=max_cycles, until=done)
    if not done.holds(machine):
        raise ConfigurationError("RPC experiment did not complete")
    return PingResult(
        requester=requester,
        responder=responder,
        hops=machine.mesh.hops(requester, responder),
        iterations=iterations,
        total_cycles=machine.now - start,
    )


def run_ping(
    machine: JMachine,
    requester: int = 0,
    responder: Optional[int] = None,
    iterations: int = 20,
    max_cycles: int = 2_000_000,
    stop: str = "predicate",
) -> PingResult:
    """Measure null-RPC round-trip latency (the Figure 2 "Ping" line).

    ``stop="quiescent"`` runs to machine quiescence instead of stopping
    the moment the done flag is observed; cycle counts then include the
    final drain.  Such a *free* run is not cycle-exact between the fast
    path and ``fast_path=False`` (tests/test_free_run_deviation.py).
    """
    responder = requester if responder is None else responder
    program = _setup(machine, requester, responder, iterations, 0, True)
    return _run(machine, program, "ping_go", requester, responder,
                iterations, max_cycles, stop=stop)


def run_remote_read(
    machine: JMachine,
    words: int,
    internal: bool,
    requester: int = 0,
    responder: Optional[int] = None,
    iterations: int = 20,
    max_cycles: int = 2_000_000,
) -> PingResult:
    """Measure a remote read of 1 or 6 words from Imem or Emem."""
    if words not in (1, 6):
        raise ConfigurationError("the paper's remote reads are 1 or 6 words")
    responder = requester if responder is None else responder
    program = _setup(machine, requester, responder, iterations, 0, internal)
    label = "read1_go" if words == 1 else "read6_go"
    return _run(machine, program, label, requester, responder,
                iterations, max_cycles)
