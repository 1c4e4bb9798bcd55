"""Stop conditions the run loop can watch: ``JMachine.run(until=...)``.

Every cycle-level experiment ends a run on the same question — *are
these words of node memory equal to these values* — so the condition is
data, not a callable the machine would have to poll.  A flag word is
node memory, and only its owner's stores can change it: arming puts each
address in the owner's watch table, the store hook
(``Mdp._wake_watchers``) reports every store to one with the storing
instruction's start cycle, and :class:`StopFlags` keeps, per flag, since
which cycle it has been met.  The cost is one dict probe per store to a
flag word; nothing is evaluated per instruction or per pass.
"""

from __future__ import annotations

import sys
from itertools import chain
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..core.errors import ConfigurationError
from ..core.processor import USER_BASE

__all__ = ["StopFlags", "NEVER"]

#: ``StopFlags.stop_at`` while some flag is unmet.
NEVER = sys.maxsize


class StopFlags:
    """Holds when every listed word of node memory equals its value.

    ``StopFlags([(node, address, value), ...])``: the word at
    ``address`` in node ``node``'s memory must have ``.value == value``
    (the tag is not compared).  ``machine.run(until=flags)`` returns the
    first cycle at the end of which all flags are met — the start cycle
    of the store that met the last one — in the state the per-step
    reference interpreter has after the pass at that cycle.
    """

    def __init__(self, flags: Iterable[Tuple[int, int, int]]) -> None:
        self.flags = tuple((int(node), int(address), int(value))
                           for node, address, value in flags)
        #: While armed: the cycle the run ends at (the latest cycle a
        #: flag became met, all being met), or :data:`NEVER`.
        self.stop_at = NEVER
        #: While armed: how far past the earliest pending peer a block
        #: may run before that peer could deliver to it.  The fabric's
        #: delivery window — or 0 with an event bus attached, so that
        #: blocks stop at the next peer and events are emitted in
        #: virtual-time order.
        self.window = 0
        #: While armed: the machine's nodes, its staged deliveries and
        #: messages in flight per node, and the cycles from a delivery
        #: commit to a parked processor's first instruction.
        self._nodes: Sequence = ()
        self._staged: Sequence = ()
        self._inbound: Sequence[int] = ()
        self._dispatch = 0
        #: (node, address) -> wanted value / cycle met since (None: unmet).
        self._want: Dict[Tuple[int, int], int] = {}
        self._since: Dict[Tuple[int, int], Optional[int]] = {}
        self._unmet = 0
        #: The flags in arming order, and the index of one that last
        #: showed the stop to be far enough away (see :meth:`cap`).
        self._keys: List[Tuple[int, int]] = []
        self._witness = 0

    def holds(self, machine) -> bool:
        """Whether every flag is met in ``machine``'s memory right now."""
        return all(
            machine.nodes[node].proc.memory.peek(address).value == value
            for node, address, value in self.flags)

    # ------------------------------------------------------ run-loop protocol

    def arm(self, machine) -> None:
        """Start watching ``machine``'s flag words (``JMachine.run``)."""
        nodes = machine.nodes
        if not self.flags:
            raise ConfigurationError("StopFlags needs at least one flag")
        want: Dict[Tuple[int, int], int] = {}
        for node_id, address, value in self.flags:
            if not 0 <= node_id < len(nodes):
                raise ConfigurationError(
                    f"stop flag on node {node_id}, outside the "
                    f"{len(nodes)}-node mesh")
            words = nodes[node_id].proc.memory.total_words
            if not USER_BASE <= address < words:
                raise ConfigurationError(
                    f"stop flag address {address} outside [{USER_BASE}, "
                    f"{words}): dispatch writes the message windows below "
                    "USER_BASE unwatched")
            if want.setdefault((node_id, address), value) != value:
                raise ConfigurationError(
                    f"stop flag ({node_id}, {address}) listed with two values")
        self._nodes, self._want, self._since = nodes, want, {}
        fabric = machine.fabric
        self.window = (0 if fabric._events is not None
                       else fabric.delivery_window())
        self._dispatch = machine.config.costs.dispatch
        self._staged, self._inbound = machine._staged, machine._inbound
        now = machine.now
        for (node_id, address), value in want.items():
            proc = nodes[node_id].proc
            met = proc.memory.peek(address).value == value
            self._since[node_id, address] = now if met else None
            proc._watch.setdefault(address, [])
            proc._stop = self
        self._unmet = sum(since is None for since in self._since.values())
        self._keys, self._witness = list(want), 0
        self.stop_at = NEVER if self._unmet else now

    def disarm(self) -> None:
        """Stop watching: leave the watch tables as they were found."""
        for node_id, address in self._want:
            proc = self._nodes[node_id].proc
            proc._stop = None
            if not proc._watch.get(address, True):
                del proc._watch[address]
        self._nodes, self._want, self._since = (), {}, {}
        self._staged = self._inbound = ()

    def stored(self, proc, address: int, when: int) -> bool:
        """The store hook: ``proc`` wrote the watched ``address`` in the
        instruction that started at cycle ``when``.  Returns whether the
        address is one of this condition's flag words."""
        key = (proc.node_id, address)
        want = self._want.get(key)
        if want is None:
            return False
        since = self._since[key]
        if (proc.memory.peek(address).value == want) != (since is not None):
            self._since[key] = when if since is None else None
            self._unmet += 1 if since is not None else -1
            self.stop_at = (NEVER if self._unmet
                            else max(self._since.values()))
        return True

    def cap(self, node_id: int, deadline: int, horizon: int) -> int:
        """``deadline`` of a block on ``node_id``, lowered so that no
        instruction starts after the run's stop cycle; ``horizon`` is
        the earliest cycle a worm still in the fabric can commit.

        The condition cannot hold before every unmet flag's owner
        executes again nor before the cycle a met flag was last set, so
        instructions may start up to the latest of those cycles
        inclusive.  An owner executes again at its ``next_tick`` — or
        earlier, when a delivery to it commits first and pulls that back
        — and a parked one not before such a commit plus the dispatch it
        starts.  (A message not yet sent commits after ``deadline``.)
        An unmet flag bounds nothing when this node owns it (its own
        watched store ends the block) or its owner cannot execute before
        the deadline: one such *witness* is remembered, and when it stops
        sufficing the flags are rescanned from the one after it, so a
        scan does not keep passing the same busy owners first.
        """
        if not self._unmet:
            return min(deadline, self.stop_at + 1)
        since, keys = self._since, self._keys
        start = self._witness
        key = keys[start]
        bound = since[key]
        if bound is None:
            if key[0] == node_id:
                return deadline
            bound = self._resumes(key[0], horizon)
            if bound + 1 >= deadline:
                return deadline
        others = (chain(range(start + 1, len(keys)), range(start))
                  if len(keys) > 1 else ())
        for i in others:
            key = keys[i]
            cycle = since[key]
            if cycle is None:
                owner = key[0]
                if owner == node_id:
                    self._witness = i
                    return deadline
                cycle = self._resumes(owner, horizon)
                if cycle + 1 >= deadline:
                    self._witness = i
                    return deadline
            if cycle > bound:
                bound = cycle
        return min(deadline, bound + 1)

    def _resumes(self, owner: int, horizon: int) -> int:
        """The earliest cycle ``owner`` can start an instruction (see
        :meth:`cap`)."""
        queue = self._staged[owner]
        commit = queue[0][0] if queue else NEVER
        if self._inbound[owner] and horizon < commit:
            commit = horizon
        tick = self._nodes[owner].next_tick
        if tick is None:
            return commit + self._dispatch
        return commit if commit < tick else tick
