"""The solo lanes against the per-cycle reference.

``Fabric.advance`` moves worms whose channel footprints touch no other
worm's on integer lanes (:class:`repro.network.vectorize.PyLanes`)
instead of through ``_step_worm``.  The contract is cycle-exactness
with ``step``: identical worm state, owner map, statistics, and
callback order at every cycle — checked here on an 8x8x1 mesh carrying
32 mutually disjoint worms, with one refusing destination so the
frozen-verdict stall path is on the lanes too.
"""

import pytest

from repro.core.message import Message
from repro.core.word import Word
from repro.network import fabric as fabric_module
from repro.network.fabric import Fabric
from repro.network.topology import Mesh3D

REFUSING = 3  # destination of row 0's eastbound worm


def _disjoint_sends(mesh):
    """Four worms per row that share no channel and no router port:
    0->3 and 4->7 eastbound, 7->4 and 3->0 westbound."""
    sends = []
    for y in range(8):
        for k, (sx, dx) in enumerate(((0, 3), (4, 7), (7, 4), (3, 0))):
            length = 2 + (3 * y + k) % 7
            words = [Word.ip(1)] + [Word.from_int(0)] * (length - 1)
            sends.append(Message(words, source=mesh.node_id((sx, y, 0)),
                                 dest=mesh.node_id((dx, y, 0))))
    return sends


class _Harness:
    """One fabric plus an ordered log of every callback it makes."""

    def __init__(self, probe=False):
        self.log = []
        mesh = Mesh3D(8, 8, 1)
        self.fabric = Fabric(
            mesh,
            accept_fn=lambda node, message: node != REFUSING,
            deliver_fn=lambda node, message, at: self.log.append(
                ("deliver", node, message.source, at)))
        self.fabric.on_injected = lambda message: self.log.append(
            ("injected", message.source, message.dest))
        if probe:
            self.fabric.attach_probe()
        for message in _disjoint_sends(mesh):
            self.fabric.send(message, 0)

    def state(self):
        fabric = self.fabric
        return {
            "worms": sorted(
                (w.seq, w.head, w.released, w.injected, w.delivered,
                 w.reserved, w.akey, w.launch_time)
                for w in fabric._active),
            "owner": sorted((key, w.seq) for key, w in fabric._owner.items()),
            "stats": {k: v for k, v in vars(fabric.stats).items()
                      if isinstance(v, int)},
            "latency": fabric.stats.latency.snapshot(),
            "log": list(self.log),
        }


def _step_to(harness, now, until):
    while now < until:
        harness.fabric.step(now)
        now += 1
    return now


def _advance_to(harness, now, until):
    while now < until:
        now = harness.fabric.advance(now, until)
        if not harness.fabric.active:
            break
    return until


@pytest.mark.parametrize("probe", [False, True], ids=["bare", "probed"])
def test_advance_matches_step_cycle_for_cycle(probe, monkeypatch):
    populations = []

    class RecordingLanes(fabric_module.PyLanes):
        def __init__(self, worms, *args, **kwargs):
            populations.append(len(worms))
            super().__init__(worms, *args, **kwargs)

    monkeypatch.setattr(fabric_module, "PyLanes", RecordingLanes)
    stepped, batched = _Harness(probe), _Harness(probe)
    s_now = b_now = 0
    # Uneven checkpoints so windows open and close mid-injection,
    # mid-stream and mid-drain.
    for until in (1, 3, 4, 9, 10, 17, 23, 24, 31, 40, 64):
        s_now = _step_to(stepped, s_now, until)
        b_now = _advance_to(batched, b_now, until)
        assert batched.state() == stepped.state(), f"diverged by t={until}"
    assert max(populations) >= 24, "the lanes never carried the population"
    # Everything but the refused worm arrived; it sits at its ejection
    # port stalling, identically on both paths.
    assert stepped.fabric.stats.completed == 31
    assert [w.message.dest for w in batched.fabric._active] == [REFUSING]
    assert (batched.fabric.stats.delivery_stall_cycles
            == stepped.fabric.stats.delivery_stall_cycles > 0)
    if probe:
        assert (batched.fabric.probe.to_dict()
                == stepped.fabric.probe.to_dict())
        assert batched.fabric.probe.node_backpressure[REFUSING] > 0


def test_whole_window_equals_stepping():
    """One ``advance`` over the whole run (the machine's idle-processor
    case) ends where stepping ends, with the same callbacks in order."""
    stepped, batched = _Harness(), _Harness()
    stepped.fabric.accept_fn = batched.fabric.accept_fn = \
        lambda node, message: True
    end = stepped.fabric.drain(0)
    now = 0
    while batched.fabric.active:
        now = batched.fabric.advance(now, 10_000)
    assert now == end
    assert batched.state() == stepped.state()
    assert stepped.fabric.stats.completed == 32
