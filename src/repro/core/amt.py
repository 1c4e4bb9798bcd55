"""The associative match table (AMT): ``enter`` / ``xlate`` hardware.

Section 2.1: "A hardware name-translation table is provided to accelerate
virtual address to physical segment descriptor conversion.  Virtual-
physical pairs are inserted in the table using the ``enter`` instruction
and extracted using ``xlate``.  A successful ``xlate`` takes three
cycles."

The MDP's table is a small set-associative memory; entries can be evicted,
at which point a later ``xlate`` takes a miss fault and system software
reloads the binding from its (memory-resident) table.  We model:

* a bounded table with 2-way set-associative placement and LRU-within-set
  replacement (the MDP used its on-chip SRAM rows similarly),
* an unbounded software backing map, which the miss handler consults,
* hit/miss statistics, which Table 5 of the paper reports for TSP
  (5.1e8 xlates, 1.6e4 xlate faults — a tiny miss ratio).

Keys and values are tagged :class:`~repro.core.word.Word` objects: the tag
participates in matching, so an integer 7 and a symbol 7 are different
names (the MDP compares the full 36-bit key).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from .errors import ConfigurationError, XlateMissFault
from .word import Word

__all__ = ["AssociativeMatchTable"]


class AssociativeMatchTable:
    """Bounded 2-way associative name cache over an unbounded backing map."""

    def __init__(self, sets: int = 64, ways: int = 2) -> None:
        if sets <= 0 or ways <= 0:
            raise ConfigurationError("AMT geometry must be positive")
        self.sets = sets
        self.ways = ways
        # Set index -> LRU-ordered list of (key, value), index 0 = LRU.
        # A set exists only while it holds an entry: a node that never
        # enters a name holds no sets.
        self._table: Dict[int, List[Tuple[Word, Word]]] = {}
        self._backing: Dict[Word, Word] = {}
        # statistics
        self.hits = 0
        self.misses = 0
        self.enters = 0
        self.evictions = 0

    def _set_for(self, key: Word) -> List[Tuple[Word, Word]]:
        """The key's set, built on first use (enter and miss fill)."""
        index = hash(key) % self.sets
        entry_set = self._table.get(index)
        if entry_set is None:
            entry_set = self._table[index] = []
        return entry_set

    def _lookup_set(self, key: Word) -> Sequence[Tuple[Word, Word]]:
        """The key's set, or nothing if it was never built."""
        return self._table.get(hash(key) % self.sets, ())

    # -- architecture-visible operations -------------------------------------

    def enter(self, key: Word, value: Word) -> None:
        """The ``enter`` instruction: insert/replace a binding.

        The binding is recorded in the software backing map and installed
        in the hardware table, evicting the set's LRU entry if needed.
        """
        self.enters += 1
        self._backing[key] = value
        entry_set = self._set_for(key)
        for i, (existing, _) in enumerate(entry_set):
            if existing == key:
                del entry_set[i]
                break
        else:
            if len(entry_set) >= self.ways:
                entry_set.pop(0)
                self.evictions += 1
        entry_set.append((key, value))

    def xlate(self, key: Word) -> Word:
        """The ``xlate`` instruction: translate ``key`` or fault.

        A hit refreshes LRU order and returns the value (3 cycles on the
        real chip; the caller charges cycles).  A miss raises
        :class:`XlateMissFault`; the processor's fault path then calls
        :meth:`miss_fill`.
        """
        entry_set = self._lookup_set(key)
        for i, (existing, value) in enumerate(entry_set):
            if existing == key:
                self.hits += 1
                if i != len(entry_set) - 1:
                    entry_set.append(entry_set.pop(i))
                return value
        self.misses += 1
        raise XlateMissFault(f"no binding for {key!r}")

    # -- fault path ------------------------------------------------------------

    def miss_fill(self, key: Word) -> Word:
        """The software miss handler: reload from the backing map.

        Raises :class:`XlateMissFault` again if the name is genuinely
        unbound — that is a program error the runtime surfaces.
        """
        try:
            value = self._backing[key]
        except KeyError:
            raise XlateMissFault(f"name {key!r} is unbound") from None
        entry_set = self._set_for(key)
        if len(entry_set) >= self.ways:
            entry_set.pop(0)
            self.evictions += 1
        entry_set.append((key, value))
        return value

    # -- fault injection ------------------------------------------------------

    def poison(self, rng, fraction: float = 1.0) -> int:
        """Evict a deterministic random ``fraction`` of hardware entries.

        Models a transient corruption of the on-chip table (see
        :mod:`repro.chaos`): the *backing map is untouched*, so every
        poisoned name is still bound — the next ``xlate`` simply takes
        the miss fault and the software reload path, exactly the recovery
        the real system performs after losing AMT state.  Returns the
        number of entries evicted; counted in :attr:`evictions`.
        """
        victims = 0
        # In set order, one draw per entry: the victims are a function
        # of the rng stream and the table's contents alone.
        for index in sorted(self._table):
            keep = []
            for pair in self._table[index]:
                if rng.random() < fraction:
                    victims += 1
                else:
                    keep.append(pair)
            if keep:
                self._table[index] = keep
            else:
                del self._table[index]
        self.evictions += victims
        return victims

    # -- management ---------------------------------------------------------------

    def probe(self, key: Word) -> Optional[Word]:
        """Non-faulting lookup (hardware ``probe``): value or None."""
        for existing, value in self._lookup_set(key):
            if existing == key:
                return value
        return self._backing.get(key)

    def clear(self) -> None:
        """Drop all bindings and statistics (machine reset)."""
        self._table = {}
        self._backing.clear()
        self.hits = self.misses = self.enters = self.evictions = 0
