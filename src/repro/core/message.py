"""Messages: the unit of communication and of task creation.

Section 2.1: "The format of a message is arbitrary except that the first
word must contain the address of the code to run at the destination and
the length of the message."  We model a message as an immutable sequence
of tagged words whose word 0 is ``IP``-tagged, plus routing metadata
(source, destination, priority) that in hardware rides in the head flit.

The network stamps the injection time for latency accounting; it is not
visible to programs.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence, Tuple

from .errors import TypeFault
from .registers import Priority
from .tags import Tag
from .word import Word

__all__ = ["Message"]


class Message:
    """An MDP message: header word (handler IP) plus body words."""

    __slots__ = (
        "words",
        "source",
        "dest",
        "priority",
        "inject_time",
        "bounce_of",
        "injection_reported",
        "corrupted",
        "trace",
    )

    def __init__(
        self,
        words: Sequence[Word],
        source: int,
        dest: int,
        priority: Priority = Priority.P0,
    ) -> None:
        words = tuple(words)
        if not words:
            raise TypeFault("a message must contain at least its header word")
        if words[0].tag is not Tag.IP:
            raise TypeFault(
                f"message word 0 must be IP-tagged, found {words[0].tag.name}"
            )
        self.words: Tuple[Word, ...] = words
        self.source = source
        self.dest = dest
        # Priority(member) is member: skip the enum lookup when given one.
        self.priority = (priority if priority.__class__ is Priority
                         else Priority(priority))
        self.inject_time: Optional[int] = None
        #: Under return-to-sender flow control: the refused message this
        #: one is carrying back to its sender (None for normal messages).
        self.bounce_of: Optional["Message"] = None
        #: Fabric bookkeeping: the injection-complete callback has fired
        #: (must be once-only even when the message retries after a
        #: bounce, or send-buffer accounting would double-free).
        self.injection_reported = False
        #: Fault injection flipped a flit in transit (see
        #: :mod:`repro.chaos`); the receiving node's software checksum
        #: will reject the message instead of dispatching it.
        self.corrupted = False
        #: Causal-tracing context ``(trace_id, span_id, parent_span)``
        #: stamped by the sending interface when tracing is enabled (see
        #: :mod:`repro.telemetry.trace`); None otherwise.  Like the
        #: injection time above, it is carrier metadata — programs never
        #: see it, and it occupies no message words.
        self.trace = None

    @property
    def handler_ip(self) -> int:
        """Address of the code the destination will run."""
        return self.words[0].value

    @property
    def length(self) -> int:
        """Message length in words, including the header."""
        return len(self.words)

    def body(self) -> Tuple[Word, ...]:
        """The argument words (everything after the header)."""
        return self.words[1:]

    @staticmethod
    def build(
        handler_ip: int,
        args: Iterable[Word],
        source: int,
        dest: int,
        priority: Priority = Priority.P0,
    ) -> "Message":
        """Convenience constructor from a handler address and arguments."""
        return Message(
            [Word.ip(handler_ip), *args], source=source, dest=dest, priority=priority
        )

    def __len__(self) -> int:
        return len(self.words)

    def __getitem__(self, index: int) -> Word:
        return self.words[index]

    def __repr__(self) -> str:
        return (
            f"Message(ip={self.handler_ip}, len={self.length}, "
            f"{self.source}->{self.dest}, P{int(self.priority)})"
        )
