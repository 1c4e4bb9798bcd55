"""The 36-bit tagged word: the MDP's universal unit of state.

A :class:`Word` is an immutable (tag, value) pair.  The value is always
stored as a Python int normalised to the signed 32-bit range; helper
constructors and packers are provided for the architectural tags that carry
structured payloads:

* ``ADDR`` words pack a segment descriptor: 20-bit *base* and 12-bit
  *length*, both in words.  Segments therefore cover the full 1 MByte node
  memory and may be up to 4095 words long, which comfortably holds every
  object the paper's applications allocate.
* ``MSG`` words pack a message descriptor: 16-bit destination node id and a
  16-bit handler hint.
* ``PHYS`` words pack a physical router address: three 6-bit mesh
  coordinates (enough for a 64×64×64 machine, far beyond the 8×8×8 /
  16×8×8 prototypes).

Equality compares tag and value; hashing matches, so words can key
dictionaries (the associative match table relies on this).
"""

from __future__ import annotations

from typing import Tuple

from .errors import TypeFault
from .tags import Tag

__all__ = ["Word", "NIL", "TRUE", "FALSE"]

_INT_MIN = -(1 << 31)
_INT_MAX = (1 << 31) - 1
_MASK32 = (1 << 32) - 1

_BASE_BITS = 20
_LEN_BITS = 12
_BASE_MASK = (1 << _BASE_BITS) - 1
_LEN_MASK = (1 << _LEN_BITS) - 1

_NODE_BITS = 16
_NODE_MASK = (1 << _NODE_BITS) - 1


class Word:
    """An immutable 36-bit MDP word: 4-bit :class:`Tag` + 32-bit value."""

    __slots__ = ("tag", "value")

    def __init__(self, tag: Tag, value: int = 0) -> None:
        if type(tag) is not Tag:
            tag = Tag(tag)
        value = int(value) & _MASK32
        if value > _INT_MAX:
            value -= 1 << 32
        _set_tag(self, tag)
        _set_value(self, value)

    # -- immutability -----------------------------------------------------

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Word is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError("Word is immutable")

    def __reduce__(self):
        # Default slot-state unpickling would go through __setattr__ and
        # hit the immutability guard; rebuild through the constructor.
        return (Word, (self.tag, self.value))

    # -- constructors -----------------------------------------------------

    @staticmethod
    def from_int(value: int) -> "Word":
        """An ``INT``-tagged word.

        Small values come from an interning cache: words are immutable
        and compare by (tag, value), so sharing them is unobservable,
        and the hot ALU/counter paths allocate mostly small ints.
        """
        cached = _SMALL_INTS.get(value)
        if cached is not None:
            return cached
        return Word(Tag.INT, value)

    @staticmethod
    def from_bool(value: bool) -> "Word":
        """A ``BOOL``-tagged word (value 0 or 1)."""
        return Word(Tag.BOOL, 1 if value else 0)

    @staticmethod
    def from_sym(code: int) -> "Word":
        """A ``SYM``-tagged word carrying a character/symbol code."""
        return Word(Tag.SYM, code)

    @staticmethod
    def ip(address: int) -> "Word":
        """An ``IP``-tagged word: the address of code to run."""
        return Word(Tag.IP, address)

    @staticmethod
    def cfut(token: int = 0) -> "Word":
        """A ``CFUT`` presence tag marking a not-yet-produced slot."""
        return Word(Tag.CFUT, token)

    @staticmethod
    def fut(token: int = 0) -> "Word":
        """A ``FUT`` (copyable) future referencing a pending value."""
        return Word(Tag.FUT, token)

    @staticmethod
    def segment(base: int, length: int) -> "Word":
        """An ``ADDR`` word describing the segment [base, base+length)."""
        if not 0 <= base <= _BASE_MASK:
            raise TypeFault(f"segment base {base} out of range")
        if not 0 <= length <= _LEN_MASK:
            raise TypeFault(f"segment length {length} out of range")
        return Word(Tag.ADDR, (base << _LEN_BITS) | length)

    @staticmethod
    def msg(node: int, hint: int = 0) -> "Word":
        """A ``MSG`` descriptor addressed to ``node``."""
        return Word(Tag.MSG, ((node & _NODE_MASK) << _NODE_BITS) | (hint & _NODE_MASK))

    # -- structured accessors ----------------------------------------------

    def as_segment(self) -> Tuple[int, int]:
        """Unpack an ``ADDR`` word into (base, length)."""
        if self.tag is not Tag.ADDR:
            raise TypeFault(f"expected ADDR, found {self.tag.name}")
        raw = self.value & _MASK32
        return (raw >> _LEN_BITS) & _BASE_MASK, raw & _LEN_MASK

    def as_msg(self) -> Tuple[int, int]:
        """Unpack a ``MSG`` word into (node, hint)."""
        if self.tag is not Tag.MSG:
            raise TypeFault(f"expected MSG, found {self.tag.name}")
        raw = self.value & _MASK32
        return (raw >> _NODE_BITS) & _NODE_MASK, raw & _NODE_MASK

    # -- predicates ---------------------------------------------------------

    def is_numeric(self) -> bool:
        """True if the word may be an arithmetic operand."""
        return self.tag in (Tag.INT, Tag.BOOL, Tag.SYM, Tag.FLOAT)

    def is_future(self) -> bool:
        """True for either presence-tag type."""
        return self.tag.is_future()

    def truthy(self) -> bool:
        """Branch-condition interpretation: nonzero value is true."""
        return self.value != 0

    # -- dunder -------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Word):
            return NotImplemented
        return self.tag is other.tag and self.value == other.value

    def __hash__(self) -> int:
        return hash((int(self.tag), self.value))

    def __repr__(self) -> str:
        if self.tag is Tag.ADDR:
            base, length = self.as_segment()
            return f"Word.segment({base}, {length})"
        if self.tag is Tag.MSG:
            node, hint = self.as_msg()
            return f"Word.msg({node}, {hint})"
        return f"Word({self.tag.name}, {self.value})"


#: The slot descriptors' own setters: they bypass ``Word.__setattr__``
#: (which refuses every assignment) at a fraction of the cost of
#: ``object.__setattr__``.  Only the constructor uses them.
_set_tag = Word.tag.__set__
_set_value = Word.value.__set__


#: Interned INT words for the small values the hot paths churn through.
_SMALL_INTS = {v: Word(Tag.INT, v) for v in range(-256, 1025)}

#: Conventional "no value" word: an INT zero.  Registers reset to NIL.
NIL = Word(Tag.INT, 0)
TRUE = Word(Tag.BOOL, 1)
FALSE = Word(Tag.BOOL, 0)
