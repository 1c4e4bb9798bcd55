"""One J-Machine node: an MDP plus its network interface.

The network interface implements the SEND-instruction contract: words
stream in at up to 2/cycle, the first word of every message names the
destination node, and the end-marked word launches the message into the
fabric.  Buffer space is finite (``send_buffer_words``); when the network
is congested and worms cannot drain, the buffer stays full and further
SEND instructions take send faults — the backpressure behaviour the paper
observed during radix sort's reorder phase.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from ..core.errors import SendFault, TypeFault
from ..core.memory import NodeMemory
from ..core.message import Message
from ..core.processor import Mdp, NetworkInterface
from ..core.registers import Priority
from ..core.tags import Tag
from ..core.tlb import NodeTlb
from ..core.word import Word
from .config import MachineConfig

__all__ = ["Node", "NodeNetworkInterface"]


class NodeNetworkInterface(NetworkInterface):
    """Send-side coupling between a processor and the fabric."""

    def __init__(
        self,
        node_id: int,
        capacity_words: int,
        submit: Callable[[Message, int], None],
        inbound: List[int],
        injecting: List[int],
        node_tlb: Optional["NodeTlb"] = None,
    ) -> None:
        self.node_id = node_id
        self.capacity_words = capacity_words
        self._submit = submit
        #: The machine's per-node traffic counts (``JMachine._inbound``
        #: by destination, ``_injecting`` by source): a launch adds one
        #: to each.
        self._inbound = inbound
        self._injecting = injecting
        self._building: dict = {Priority.P0: [], Priority.P1: []}
        #: Send-buffer words in use: those of launched messages whose
        #: tail has not left (freed by :meth:`injection_finished`) plus
        #: those of the messages being built.
        self._used_words = 0
        #: Optional automatic virtual-node-id translation (the paper's
        #: proposed node TLB): VNODE-tagged destinations are translated
        #: in the interface, for free on a hit.
        self.node_tlb = node_tlb
        #: Causal tracing (:mod:`repro.telemetry.trace`): the shared
        #: :class:`TraceState` allocator, installed by the telemetry
        #: wiring (None keeps launches on the cheap ``is None`` branch),
        #: and a zero-arg callable returning the sending thread's trace
        #: context (the processor's ``current_trace``, bound by
        #: :class:`Node`).
        self.trace_state = None
        self.trace_parent: Optional[Callable[[], Optional[tuple]]] = None

    def injection_finished(self, message: Message) -> None:
        """Fabric callback: the worm's tail has left this interface."""
        self._used_words -= len(message.words) + 1  # +1 dest word

    # -- the SEND contract ----------------------------------------------------

    def send_word(self, priority: Priority, word: Word, end: bool, now: int) -> None:
        if priority is Priority.BACKGROUND:
            priority = Priority.P0  # background threads send normal messages
        if self._used_words >= self.capacity_words:
            raise SendFault("send buffer full")
        self._building[priority].append(word)
        self._used_words += 1
        if end:
            self._launch(priority, now)

    def send_two(self, priority: Priority, first: Word, second: Word,
                 end: bool, now: int) -> None:
        if priority is Priority.BACKGROUND:
            priority = Priority.P0
        if self._used_words + 2 > self.capacity_words:
            raise SendFault("send buffer full")
        building = self._building[priority]
        building.append(first)
        building.append(second)
        self._used_words += 2
        if end:
            self._launch(priority, now)

    def _launch(self, priority: Priority, now: int) -> None:
        words = self._building[priority]
        self._building[priority] = []
        # Until submitted, a message that fails to launch frees its words.
        self._used_words -= len(words)
        if len(words) < 2:
            raise TypeFault("a message needs a destination word and a header")
        dest_word, body = words[0], words[1:]
        dest = self._decode_dest(dest_word)
        message = Message(body, source=self.node_id, dest=dest, priority=priority)
        if self.trace_state is not None:
            message.trace = self.trace_state.derive(self.trace_parent())
        self._used_words += len(words)
        self._submit(message, now)
        self._inbound[dest] += 1
        self._injecting[self.node_id] += 1

    def _decode_dest(self, word: Word) -> int:
        if word.tag is Tag.VNODE:
            if self.node_tlb is not None:
                return self.node_tlb.translate(word.value)
            return word.value
        if word.tag in (Tag.INT, Tag.SYM):
            return word.value
        raise TypeFault(
            f"message destination must be a node id, found {word.tag.name}"
        )


class Node:
    """An MDP, its DRAM, and its network interface, ready to schedule."""

    def __init__(
        self,
        node_id: int,
        config: MachineConfig,
        submit: Callable[[Message, int], None],
        inbound: List[int],
        injecting: List[int],
    ) -> None:
        self.node_id = node_id
        self.config = config
        node_tlb = (
            NodeTlb(config.n_nodes) if config.auto_node_translation else None
        )
        self.interface = NodeNetworkInterface(
            node_id, config.send_buffer_words, submit, inbound, injecting,
            node_tlb=node_tlb
        )
        self.proc = Mdp(
            node_id=node_id,
            memory=NodeMemory(costs=config.costs),
            costs=config.costs,
            queue_words=config.queue_words,
            network=self.interface,
            fast_path=config.fast_path,
        )
        self.proc.spill_enabled = config.queue_overflow_spills
        # Sends become children of the message that dispatched the
        # sending thread; the interface asks the processor at launch time.
        self.interface.trace_parent = self.proc.current_trace
        #: Next scheduled tick time, or None when parked (machine-owned).
        self.next_tick: Optional[int] = None

    def __repr__(self) -> str:
        return f"Node({self.node_id})"
