"""Translation lookaside buffers — the paper's proposed naming upgrade.

Section 5 (Critique): "The naming mechanisms of the MDP are inadequate to
transparently and inexpensively provide a global name space. ...
Automatic translation from virtual memory addresses to physical memory
address and from virtual node id's to physical router addresses would
eliminate the need for explicit name management.  This mechanism could be
implemented with a pair of TLBs."

This module implements that proposal so its effect can be measured:

* :class:`TranslationBuffer` — a set-associative TLB mapping virtual page
  numbers to physical frame numbers, with LRU replacement and a software-
  walked backing map, mirroring the AMT's structure but *indexed* (no
  explicit ``xlate`` instruction: translation happens on use, for free on
  a hit).
* :class:`NodeTlb` — the second TLB of the pair: virtual node ids to
  physical router node ids.  The machine's network interface consults it
  automatically when a message's destination word carries the ``VNODE``
  tag, which removes the software NNR calculation the applications
  otherwise pay (Figure 6's "NNR Calc" slice) and, because translations
  are confined to the TLB, isolates partitions from each other — the
  protection benefit the paper highlights.

The ablation benchmark ``benchmarks/bench_ablations_naming.py`` measures
both effects.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .errors import ConfigurationError, XlateMissFault

__all__ = ["TranslationBuffer", "NodeTlb", "DEFAULT_PAGE_WORDS"]

#: Virtual memory pages of 256 words (1 KByte of data).
DEFAULT_PAGE_WORDS = 256


class TranslationBuffer:
    """A set-associative virtual-to-physical translation buffer.

    Keys and values are plain ints (page/frame numbers or node ids);
    timing is the caller's concern: hits are meant to be free (pipelined
    into the access), misses cost a software walk.
    """

    def __init__(self, sets: int = 16, ways: int = 2) -> None:
        if sets <= 0 or ways <= 0:
            raise ConfigurationError("TLB geometry must be positive")
        self.sets = sets
        self.ways = ways
        self._table: List[List[Tuple[int, int]]] = [[] for _ in range(sets)]
        self._backing: Dict[int, int] = {}
        self.hits = 0
        self.misses = 0
        self.walks = 0

    # -- management ---------------------------------------------------------

    def map(self, virtual: int, physical: int) -> None:
        """Install a mapping in the backing table (page-table write)."""
        self._backing[virtual] = physical

    def _set_for(self, virtual: int) -> List[Tuple[int, int]]:
        return self._table[virtual % self.sets]

    # -- translation -----------------------------------------------------------

    def lookup(self, virtual: int) -> Optional[int]:
        """TLB-only probe: physical id on a hit, None on a miss."""
        entry_set = self._set_for(virtual)
        for i, (key, value) in enumerate(entry_set):
            if key == virtual:
                if i != len(entry_set) - 1:
                    entry_set.append(entry_set.pop(i))
                self.hits += 1
                return value
        self.misses += 1
        return None

    def translate(self, virtual: int) -> int:
        """Full translation: TLB, then software walk; faults if unmapped."""
        result = self.lookup(virtual)
        if result is not None:
            return result
        self.walks += 1
        physical = self._walk(virtual)
        entry_set = self._set_for(virtual)
        if len(entry_set) >= self.ways:
            entry_set.pop(0)
        entry_set.append((virtual, physical))
        return physical

    def _walk(self, virtual: int) -> int:
        """The software walk of the backing map."""
        try:
            return self._backing[virtual]
        except KeyError:
            raise XlateMissFault(f"virtual id {virtual} is unmapped") from None

    def clear(self) -> None:
        self._table = [[] for _ in range(self.sets)]
        self._backing.clear()
        self.hits = self.misses = self.walks = 0


class NodeTlb(TranslationBuffer):
    """Virtual node id -> physical node id, one flat partition at first.

    A fresh machine maps every node to itself (one flat partition); that
    map is implicit, so the backing map holds only the ids remapped on
    top of it.  Partitioning experiments remap subsets; ids outside the
    map fault, which is the protection property the paper wants: a
    program cannot name nodes outside its partition.
    """

    def __init__(self, n_nodes: int, sets: int = 16, ways: int = 2) -> None:
        super().__init__(sets=sets, ways=ways)
        self.n_nodes = n_nodes
        self._flat = True

    def _walk(self, virtual: int) -> int:
        if (self._flat and virtual not in self._backing
                and 0 <= virtual < self.n_nodes):
            return virtual
        return super()._walk(virtual)

    def clear(self) -> None:
        super().clear()
        self._flat = False

    def restrict_partition(self, members: List[int]) -> None:
        """Keep only ``members`` visible (virtual = rank in partition)."""
        self.clear()
        for rank, node in enumerate(members):
            if not 0 <= node < self.n_nodes:
                raise ConfigurationError(f"node {node} outside machine")
            self.map(rank, node)
