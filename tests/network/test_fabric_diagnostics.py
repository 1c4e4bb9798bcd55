"""Tests for the fabric's diagnostics: channel load and the watchdog."""

import pytest

from repro.core.errors import DeadlockError, SimulationError
from repro.core.message import Message
from repro.core.word import Word
from repro.network.fabric import Fabric
from repro.network.routing import INJECT
from repro.network.topology import Mesh3D


def _message(src, dst, length=2):
    words = [Word.ip(1)] + [Word.from_int(0)] * (length - 1)
    return Message(words, source=src, dest=dst)


def _run(fabric, limit=20_000):
    now = 0
    while fabric.active and now < limit:
        fabric.step(now)
        now += 1
    return now


class TestChannelLoad:
    def test_off_by_default(self):
        fabric = Fabric(Mesh3D(4, 1, 1), lambda n, m: True,
                        lambda n, m, t: None)
        fabric.send(_message(0, 3), 0)
        _run(fabric)
        assert fabric.probe is None

    def test_counts_every_path_channel(self):
        fabric = Fabric(Mesh3D(4, 1, 1), lambda n, m: True,
                        lambda n, m, t: None)
        link_phits = fabric.attach_probe().link_phits
        fabric.send(_message(0, 3, length=2), 0)
        _run(fabric)
        # 3 hops, each crossed by 2*2+2 = 6 phits.
        assert len(link_phits) == 3
        assert all(v == 6 for v in link_phits.values())

    def test_mesh_channels_only(self):
        fabric = Fabric(Mesh3D(2, 2, 2), lambda n, m: True,
                        lambda n, m, t: None)
        link_phits = fabric.attach_probe().link_phits
        fabric.send(_message(0, 7), 0)
        _run(fabric)
        assert link_phits
        assert all(dim < INJECT for (_, dim, _) in link_phits)

    def test_ecube_concentrates_load_in_x(self):
        """Uniform random traffic loads X channels hardest (e-cube
        corrects X first, so X carries every misrouted dimension)."""
        import random
        fabric = Fabric(Mesh3D(4, 4, 4), lambda n, m: True,
                        lambda n, m, t: None)
        link_phits = fabric.attach_probe().link_phits
        rng = random.Random(11)
        for _ in range(300):
            src = rng.randrange(64)
            dst = rng.randrange(64)
            if src != dst:
                fabric.send(_message(src, dst, 4), 0)
        _run(fabric, limit=100_000)
        by_dim = {0: 0, 1: 0, 2: 0}
        for (_, dim, _), phits in link_phits.items():
            by_dim[dim] += phits
        # Symmetric traffic: roughly equal by dimension (each corrected
        # once); but midplane X channels individually carry the most.
        x_channels = {k: v for k, v in link_phits.items()
                      if k[1] == 0}
        mid_x = [v for (node, _, _), v in x_channels.items()
                 if fabric.mesh.coord(node)[0] in (1, 2)]
        edge_x = [v for (node, _, _), v in x_channels.items()
                  if fabric.mesh.coord(node)[0] in (0, 3)]
        assert sum(mid_x) / len(mid_x) > sum(edge_x) / len(edge_x)


class TestWatchdog:
    def test_disabled_by_default(self):
        fabric = Fabric(Mesh3D(2, 1, 1), lambda n, m: False,
                        lambda n, m, t: None)
        fabric.send(_message(0, 1), 0)
        for now in range(500):
            fabric.step(now)  # stalled forever, but no watchdog

    def test_trips_on_refused_delivery(self):
        fabric = Fabric(Mesh3D(2, 1, 1), lambda n, m: False,
                        lambda n, m, t: None)
        fabric.watchdog_cycles = 100
        fabric.send(_message(0, 1), 0)
        with pytest.raises(DeadlockError, match="no progress"):
            for now in range(1_000):
                fabric.step(now)

    def test_diagnostic_names_the_stuck_message(self):
        fabric = Fabric(Mesh3D(2, 1, 1), lambda n, m: False,
                        lambda n, m, t: None)
        fabric.watchdog_cycles = 50
        fabric.send(_message(0, 1), 0)
        with pytest.raises(DeadlockError, match="0->1"):
            for now in range(1_000):
                fabric.step(now)

    def test_error_is_typed_and_carries_diagnostics(self):
        fabric = Fabric(Mesh3D(2, 1, 1), lambda n, m: False,
                        lambda n, m, t: None)
        fabric.watchdog_cycles = 100
        fabric.send(_message(0, 1), 0)
        with pytest.raises(DeadlockError) as excinfo:
            for now in range(1_000):
                fabric.step(now)
        err = excinfo.value
        assert isinstance(err, SimulationError)
        assert err.worms_in_flight == 1
        assert err.now >= fabric.watchdog_cycles

    def test_stagnation_emits_watchdog_event(self):
        from repro.telemetry.events import EventBus

        fabric = Fabric(Mesh3D(2, 1, 1), lambda n, m: False,
                        lambda n, m, t: None)
        fabric.watchdog_cycles = 50
        fabric._events = bus = EventBus()
        fabric.send(_message(0, 1), 0)
        with pytest.raises(DeadlockError):
            for now in range(1_000):
                fabric.step(now)
        kinds = [e[1] for e in bus.events]
        assert "watchdog" in kinds
        watchdog_events = [e for e in bus.events if e[1] == "watchdog"]
        assert watchdog_events[0][4] == "net-stagnation"

    def test_diagnostic_names_the_blocking_worm(self):
        """A worm stuck behind another worm reports its blocker."""
        accepted = []

        def accept(node, message):
            # Refuse everything: both worms wedge, the second behind
            # the first on the shared X channel.
            return False

        fabric = Fabric(Mesh3D(4, 1, 1), accept, lambda n, m, t: None)
        fabric.watchdog_cycles = 60
        fabric.send(_message(0, 3, length=8), 0)
        fabric.send(_message(1, 3, length=8), 0)
        with pytest.raises(DeadlockError, match="blocked_by"):
            for now in range(1_000):
                fabric.step(now)
        assert not accepted


class TestBounce:
    """Return-to-sender flow control (the critique's proposed protocol)."""

    def _refuse_n_times(self, n):
        refusals = {"left": n}

        def accept(node, message):
            if refusals["left"] > 0:
                refusals["left"] -= 1
                return False
            return True

        return accept

    def test_refused_message_bounces_and_retries(self):
        delivered = []
        fabric = Fabric(Mesh3D(4, 1, 1), self._refuse_n_times(1),
                        lambda n, m, t: delivered.append((n, m, t)),
                        flow_control="return_to_sender")
        fabric.send(_message(0, 3), 0)
        _run(fabric, limit=10_000)
        assert fabric.stats.bounces == 1
        # The original message is eventually delivered, once.
        assert len(delivered) == 1
        assert delivered[0][0] == 3
        assert delivered[0][1].dest == 3

    def test_bounce_frees_the_path(self):
        """After a bounce no channel stays owned by the dead worm."""
        fabric = Fabric(Mesh3D(4, 1, 1), self._refuse_n_times(1),
                        lambda n, m, t: None,
                        flow_control="return_to_sender")
        fabric.send(_message(0, 3), 0)
        _run(fabric, limit=10_000)
        assert not fabric.active
        assert fabric._owner == {} or all(
            w.done is False for w in fabric._owner.values())

    def test_repeated_refusal_bounces_repeatedly(self):
        delivered = []
        fabric = Fabric(Mesh3D(4, 1, 1), self._refuse_n_times(3),
                        lambda n, m, t: delivered.append(n),
                        flow_control="return_to_sender")
        fabric.send(_message(0, 3), 0)
        _run(fabric, limit=50_000)
        assert fabric.stats.bounces == 3
        assert delivered == [3]

    def test_block_mode_never_bounces(self):
        fabric = Fabric(Mesh3D(4, 1, 1), self._refuse_n_times(5),
                        lambda n, m, t: None)  # default: block
        fabric.send(_message(0, 3), 0)
        _run(fabric, limit=200)
        assert fabric.stats.bounces == 0
        assert fabric.stats.delivery_stall_cycles > 0

    def test_does_not_trip_on_healthy_traffic(self):
        fabric = Fabric(Mesh3D(4, 4, 4), lambda n, m: True,
                        lambda n, m, t: None)
        fabric.watchdog_cycles = 100
        for dst in range(1, 40):
            fabric.send(_message(0, dst % 64, 4), 0)
        _run(fabric)
        assert not fabric.active
