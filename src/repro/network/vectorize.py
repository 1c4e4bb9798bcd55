"""Integer lanes for conflict-free worms in the flit fabric.

:meth:`repro.network.fabric.Fabric.advance` partitions in-flight worms
into a *conflict pool* (worms sharing at least one virtual channel with
another worm, stepped one-by-one through the exact arbitration path) and
a *solo* set whose channel footprints are disjoint from every other
worm's.  A solo worm's per-cycle evolution never consults the channel
owner map — its head always advances, nothing ever blocks on it — so the
whole solo population is advanced by :class:`PyLanes` with pure integer
arithmetic over parallel state lists: head position, released tail,
injected and delivered phit counts.

The lanes must produce worm state bit-identical to the per-cycle
reference :meth:`Fabric.step`; tests/network/test_lanes.py drives the
two against each other.  (A whole-array backend for large solo
populations was measured and removed: docs/PERFORMANCE.md, "Solo lanes:
one backend".)
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

__all__ = ["PyLanes"]

#: accept(node, message) -> bool: the fabric's ``accept_fn``.
AcceptFn = Callable[[int, object], bool]


class PyLanes:
    """Solo lanes: parallel lists of ints, one short loop per worm."""

    def __init__(self, worms: List, buffer_phits: int,
                 accept: AcceptFn, track_stalls: bool = False) -> None:
        self.worms = worms
        self.buffer = buffer_phits
        self.accept = accept
        #: Per-lane refused-at-eject cycle counts, kept only when the
        #: fabric has an observatory probe attached (the aggregate
        #: ``stalls`` return stays unconditional and unchanged).
        self.stall_lane: Optional[List[int]] = (
            [0] * len(worms) if track_stalls else None)
        self.h = [w.head for w in worms]
        self.r = [w.released for w in worms]
        self.inj = [w.injected for w in worms]
        self.dlv = [w.delivered for w in worms]
        self.tot = [w.total_phits for w in worms]
        self.last = [len(w.path) - 1 for w in worms]
        self.res = [w.reserved for w in worms]
        # Destination-queue verdict, frozen for the batch window:
        # -1 unknown, 0 refused, 1 reserved.  The caller guarantees the
        # accept function's inputs cannot change inside the window.
        self.acc = [-1] * len(worms)
        #: Lane indices (into ``worms``) still in flight.
        self.alive = list(range(len(worms)))

    def cycle(self) -> Tuple[Optional[List[int]], Optional[List[int]], int]:
        """Advance every live lane one cycle.

        Returns ``(completed, injection_done, stall_cycles)`` where the
        lists hold lane indices (or None when empty).  The update mirrors
        :meth:`Fabric._step_worm` exactly, minus the owner-map traffic
        that solo worms by construction never need.
        """
        completed: Optional[List[int]] = None
        inj_done: Optional[List[int]] = None
        stalls = 0
        buffer_phits = self.buffer
        h, r, inj, dlv = self.h, self.r, self.inj, self.dlv
        tot, last, res, acc = self.tot, self.last, self.res, self.acc
        dead = None
        for j in self.alive:
            moved = False
            hj = h[j]
            # 1. Head acquisition: always free for a solo worm.
            if hj < last[j]:
                h[j] = hj = hj + 1
                moved = True
            # 2. Delivery streaming behind a (frozen) reservation.
            if hj == last[j]:
                if not res[j]:
                    a = acc[j]
                    if a < 0:
                        message = self.worms[j].message
                        a = acc[j] = \
                            1 if self.accept(message.dest, message) else 0
                    if a:
                        res[j] = True
                    else:
                        stalls += 1
                        if self.stall_lane is not None:
                            self.stall_lane[j] += 1
                if res[j]:
                    dj = dlv[j]
                    ij = inj[j]
                    limit = ij if ij < tot[j] else tot[j]
                    if dj < limit:
                        dlv[j] = dj = dj + 1
                        moved = True
                        if dj == tot[j]:
                            if completed is None:
                                completed = []
                            completed.append(j)
                            if dead is None:
                                dead = set()
                            dead.add(j)
                            continue  # completion skips phases 3 and 4
            # 3. Injection, bounded by the held span's buffer slack.
            ij = inj[j]
            if ij < tot[j]:
                if ij - dlv[j] < buffer_phits * (hj - r[j] + 1):
                    inj[j] = ij = ij + 1
                    moved = True
                    if ij == tot[j]:
                        if inj_done is None:
                            inj_done = []
                        inj_done.append(j)
            # 4. Tail release keeps the span matched to in-flight phits.
            if ij == tot[j] and moved:
                in_flight = ij - dlv[j]
                span_needed = -(-in_flight // buffer_phits)
                if span_needed < 1:
                    span_needed = 1
                target = hj - span_needed + 1
                if r[j] < target:
                    r[j] = target
        if dead:
            self.alive = [j for j in self.alive if j not in dead]
        return completed, inj_done, stalls

    def alive_states(self):
        """Yield (worm, head, released, injected, delivered, reserved)
        for every lane still in flight, for write-back at batch end."""
        for j in self.alive:
            yield (self.worms[j], self.h[j], self.r[j], self.inj[j],
                   self.dlv[j], bool(self.res[j]))

    def stall_counts(self):
        """Yield ``(lane, cycles)`` for lanes that stalled refused.

        Empty unless constructed with ``track_stalls=True``.  Covers all
        lanes ever tracked (a refused lane's verdict is frozen for the
        window, so stalled lanes are in practice still alive).
        """
        if self.stall_lane is None:
            return
        for j, n in enumerate(self.stall_lane):
            if n:
                yield j, n
