"""The worm kernel against the per-cycle reference.

``Fabric.step`` and ``Fabric.advance`` are two drives of one kernel that
visits a worm only in cycles where the visit can change something
(frozen and streaming worms sleep; see ``Fabric.advance``).  The
contract is cycle-exactness with visiting every worm every cycle —
:class:`tests.network.reference_fabric.ReferenceFabric` — on worm
state, owner map, statistics, probe counters and callback order.
Checked here on an 8x8x1 mesh carrying 32 mutually disjoint worms with
one refusing destination (streaming sleepers, a refused worm polling
``accept_fn``), and on an all-to-one hotspot with mixed lengths (frozen
sleepers, release wake-ups, re-freezing losers).
"""

import pytest

from repro.core.message import Message
from repro.core.word import Word
from repro.network.fabric import Fabric
from repro.network.topology import Mesh3D

from .reference_fabric import ReferenceFabric, observable_state

REFUSING = 3  # destination of row 0's eastbound worm
HOTSPOT = 27  # (3, 3, 0): every other node sends here

# Uneven checkpoints so windows open and close mid-injection,
# mid-stream and mid-drain.
CHECKPOINTS = (1, 3, 4, 9, 10, 17, 23, 24, 31, 40, 64)


def _message(source, dest, length):
    words = [Word.ip(1)] + [Word.from_int(0)] * (length - 1)
    return Message(words, source=source, dest=dest)


def _disjoint_sends(mesh):
    """Four worms per row that share no channel and no router port:
    0->3 and 4->7 eastbound, 7->4 and 3->0 westbound."""
    return [_message(mesh.node_id((sx, y, 0)), mesh.node_id((dx, y, 0)),
                     2 + (3 * y + k) % 7)
            for y in range(8)
            for k, (sx, dx) in enumerate(((0, 3), (4, 7), (7, 4), (3, 0)))]


def _hotspot_sends(mesh):
    """Every node but the hotspot sends it one 2-16 word message."""
    return [_message(node, HOTSPOT, 2 + (5 * node) % 15)
            for node in range(mesh.n_nodes) if node != HOTSPOT]


class _Harness:
    """One fabric plus an ordered log of every callback it makes."""

    def __init__(self, cls, sends, probe, refusing=None):
        self.log = []
        mesh = Mesh3D(8, 8, 1)
        self.fabric = cls(
            mesh,
            accept_fn=lambda node, message: node != refusing,
            deliver_fn=lambda node, message, at: self.log.append(
                ("deliver", node, message.source, at)))
        self.fabric.on_injected = lambda message: self.log.append(
            ("injected", message.source, message.dest))
        if probe:
            self.fabric.attach_probe()
        for message in sends(mesh):
            self.fabric.send(message, 0)

    def state(self):
        return observable_state(self.fabric, self.log)


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
@pytest.mark.parametrize("drive", [_step_to, _advance_to],
                         ids=["step", "advance"])
def test_disjoint_worms_match_the_reference(drive, probe):
    oracle = _Harness(ReferenceFabric, _disjoint_sends, probe, REFUSING)
    kernel = _Harness(Fabric, _disjoint_sends, probe, REFUSING)
    o_now = k_now = 0
    slept = 0
    for until in CHECKPOINTS:
        o_now = _step_to(oracle, o_now, until)
        k_now = drive(kernel, k_now, until)
        slept += sum(w.wake > until for w in kernel.fabric._active)
        assert kernel.state() == oracle.state(), f"diverged by t={until}"
    assert slept, "no worm ever slept: the kernel was not exercised"
    # Everything but the refused worm arrived; it sits at its ejection
    # port stalling, identically on both sides.
    assert oracle.fabric.stats.completed == 31
    assert [w.message.dest for w in kernel.fabric._active] == [REFUSING]
    assert (kernel.fabric.stats.delivery_stall_cycles
            == oracle.fabric.stats.delivery_stall_cycles > 0)
    if probe:
        assert kernel.fabric.probe.node_backpressure[REFUSING] > 0


@pytest.mark.parametrize("probe", [False, True], ids=["bare", "probed"])
@pytest.mark.parametrize("drive", [_step_to, _advance_to],
                         ids=["step", "advance"])
def test_hotspot_matches_the_reference(drive, probe):
    oracle = _Harness(ReferenceFabric, _hotspot_sends, probe)
    kernel = _Harness(Fabric, _hotspot_sends, probe)
    o_now = k_now = 0
    frozen = 0
    # The 63 worms serialize through one ejection port: ~1300 cycles.
    for until in CHECKPOINTS + tuple(range(100, 1500, 97)):
        o_now = _step_to(oracle, o_now, until)
        k_now = drive(kernel, k_now, until)
        frozen = max(frozen, kernel.fabric._n_frozen)
        assert kernel.state() == oracle.state(), f"diverged by t={until}"
    assert frozen >= 8, "the hotspot never froze a crowd"
    assert oracle.fabric.stats.completed == 63
    assert oracle.fabric.stats.block_cycles > 10_000
    assert not kernel.fabric.active


def test_whole_window_equals_stepping():
    """One ``advance`` over the whole run (the machine's idle-processor
    case) ends where stepping ends, with the same callbacks in order."""
    oracle = _Harness(ReferenceFabric, _disjoint_sends, False)
    kernel = _Harness(Fabric, _disjoint_sends, False)
    end = oracle.fabric.drain(0)
    now = 0
    while kernel.fabric.active:
        now = kernel.fabric.advance(now, 10_000)
    assert now == end
    assert kernel.state() == oracle.state()
    assert oracle.fabric.stats.completed == 32


def test_skipped_cycles_are_not_network_time():
    """An owner that jumps its clock while worms sleep (a bare-fabric
    driver may) must not have the jump counted as blocked or streamed
    cycles."""
    oracle = _Harness(ReferenceFabric, _hotspot_sends, False)
    kernel = _Harness(Fabric, _hotspot_sends, False)
    for now in list(range(30)) + list(range(50, 90)) + [200, 201, 202]:
        oracle.fabric.step(now)
        kernel.fabric.step(now)
    assert kernel.state() == oracle.state()
