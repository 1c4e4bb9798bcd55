"""The MDP's hardware message queues.

Arriving messages are buffered automatically in an on-chip queue — one per
priority — and a task is dispatched when a message reaches the head
(Section 2.1).  Capacity is limited: "This queue can contain no more than
256 minimum-length messages (four words) and is configured for 128 of
these messages in Tuned-J" (Section 4.3.3).  We therefore model each queue
as a *word-capacity* ring: a message occupies ``max(len, MIN_MESSAGE_WORDS)``
words, matching the hardware's row-granularity allocation.

When a message would not fit, the queue raises
:class:`~repro.core.errors.QueueOverflowFault`.  The processor model
responds the way the real system software does: an expensive fault handler
spills the message to a memory-backed overflow list (Section 4.3.3 calls
this "relatively expensive ... intended to be used for transient traffic
overruns").  While a queue is refusing words the router backs up, which is
how backpressure propagates (and how send faults arise at remote nodes).

The network asks about free space at a cycle of its own
(:meth:`MessageQueue.free_words_at`): a compiled block may have run its
processor ahead of that cycle and freed rows at a virtual cycle the
network has not reached, and those rows stay taken until it does.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional, Sequence, Tuple

from .errors import ConfigurationError, QueueOverflowFault, QueueUnderflowError
from .message import Message

__all__ = ["MessageQueue", "MIN_MESSAGE_WORDS", "DEFAULT_QUEUE_WORDS"]

#: Queue space is allocated in rows of four words (minimum message size).
MIN_MESSAGE_WORDS = 4

#: Tuned-J configures 128 minimum-length messages per queue.
DEFAULT_QUEUE_WORDS = 128 * MIN_MESSAGE_WORDS


class MessageQueue:
    """A word-capacity-bounded FIFO of messages for one priority level."""

    #: ``(cycle, words)`` of each free made ahead of the cycle its
    #: processor was ticked at, possibly not yet visible to the network
    #: (see :meth:`dequeue`): restored state, a list from the first such
    #: free on.  Until then, this empty default.
    pending_frees: Sequence[Tuple[int, int]] = ()

    def __init__(self, capacity_words: int = DEFAULT_QUEUE_WORDS) -> None:
        if capacity_words < MIN_MESSAGE_WORDS:
            raise ConfigurationError(
                f"queue capacity {capacity_words} below minimum message size"
            )
        self.capacity_words = capacity_words
        self._messages: Deque[Message] = deque()
        self._used_words = 0
        #: Words withheld from the free pool by fault injection (see
        #: :mod:`repro.chaos`): a forced-exhaustion fault shrinks the
        #: queue's effective capacity without touching real occupancy.
        #: Always 0 outside chaos runs.
        self.pressure_words = 0
        # statistics
        self.enqueued = 0
        self.overflows = 0
        self.high_water = 0

    # -- space accounting ---------------------------------------------------

    @staticmethod
    def footprint(message: Message) -> int:
        """Words of queue space a message occupies (row granularity)."""
        rows = (message.length + MIN_MESSAGE_WORDS - 1) // MIN_MESSAGE_WORDS
        return rows * MIN_MESSAGE_WORDS

    @property
    def used_words(self) -> int:
        """Words of queue space currently occupied."""
        return self._used_words

    @property
    def free_words(self) -> int:
        """Words of queue space currently available."""
        return self.capacity_words - self._used_words - self.pressure_words

    def free_words_at(self, cycle: int) -> int:
        """Free words as the network sees them at ``cycle``.

        The processor frees rows during its tick, after the network has
        stepped that cycle, so a free by an instruction that started at
        ``cycle`` or later is not visible yet.
        """
        free = self.capacity_words - self._used_words - self.pressure_words
        if self.pending_frees:
            for stamp, words in self.pending_frees:
                if stamp >= cycle:
                    free -= words
        return free

    def would_fit(self, message: Message) -> bool:
        """True if ``message`` can be enqueued without overflow."""
        return self.footprint(message) <= self.free_words

    # -- queue operations -----------------------------------------------------

    def enqueue(self, message: Message) -> None:
        """Append a message; raises :class:`QueueOverflowFault` if full."""
        need = self.footprint(message)
        if need > self.free_words:
            self.overflows += 1
            raise QueueOverflowFault(
                f"message of {message.length} words needs {need}, "
                f"only {self.free_words} free"
            )
        self._messages.append(message)
        self._used_words += need
        self.enqueued += 1
        if self._used_words > self.high_water:
            self.high_water = self._used_words

    def head(self) -> Optional[Message]:
        """The message at the head, or None if empty (no dequeue)."""
        return self._messages[0] if self._messages else None

    def dequeue(self, at: Optional[int] = None, clock: int = 0) -> Message:
        """Remove and return the head message.

        ``at`` is the start cycle of the instruction that frees it and
        ``clock`` the cycle its processor was ticked at.  A free ahead of
        the clock — a compiled block running ahead — is recorded in
        :attr:`pending_frees` for :meth:`free_words_at`; frees at or
        before the clock are visible to the network's next look, so
        they are not recorded, and older records are dropped from the
        front (a stamp only goes back after a commit pulled a free
        run's tick back, so one left behind a live one is dropped later).

        Raises :class:`QueueUnderflowError` on an empty queue: that is a
        simulation-host bug (dispatch only fires when a message is at
        the head), not the architectural overflow fault.
        """
        if not self._messages:
            raise QueueUnderflowError("dequeue from empty queue")
        message = self._messages.popleft()
        need = self.footprint(message)
        self._used_words -= need
        if at is not None and at > clock:
            pending = self.pending_frees
            if pending:
                while pending and pending[0][0] <= clock:
                    del pending[0]
                pending.append((at, need))
            else:
                self.pending_frees = [(at, need)]
        return message

    def __len__(self) -> int:
        return len(self._messages)

    def __bool__(self) -> bool:
        return bool(self._messages)

    def clear(self) -> None:
        """Drop all buffered messages (machine reset)."""
        self._messages.clear()
        self._used_words = 0
        self.pressure_words = 0
        self.pending_frees = ()
