"""The fabric observatory: probe accounting and reports.

docs/OBSERVABILITY.md §8: a :class:`FabricProbe` attached to a fabric
accumulates per-link phits, blocked-at-head cycles split by cause, and
per-dimension hop attribution, all at message-rate sites behind
``is None`` guards; a :class:`FabricReport` analyzes the counters.
The load-bearing promises pinned here: the batched ``advance`` path
produces the same counters as per-cycle ``step``, and reports
round-trip through JSON unchanged.
"""

import pytest

from repro.core.message import Message
from repro.core.registers import Priority
from repro.core.word import Word
from repro.network.fabric import Fabric
from repro.network.observatory import (FABRIC_METRICS, FabricProbe,
                                       FabricReport, QUEUE_OCCUPANCY_BOUNDS,
                                       link_name, parse_link_name)
from repro.network.routing import EJECT, INJECT
from repro.network.topology import Mesh3D


def _message(src, dst, words=2, priority=Priority.P0):
    payload = [Word.ip(0)] + [Word.from_int(i) for i in range(words - 1)]
    return Message(payload, source=src, dest=dst, priority=priority)


def _drain(fabric, now=0, limit=50_000):
    while fabric.stats.completed < fabric.stats.submitted and now < limit:
        fabric.step(now)
        now += 1
    assert fabric.stats.completed == fabric.stats.submitted, "did not drain"
    return now


def _probed_fabric(mesh=None, accept=None):
    mesh = mesh or Mesh3D(4, 4, 1)
    delivered = []
    fabric = Fabric(mesh,
                    accept if accept is not None
                    else (lambda node, message: True),
                    lambda node, message, now: delivered.append(node))
    fabric.attach_probe()
    return fabric, delivered


class TestLinkNames:
    @pytest.mark.parametrize("link,name", [
        ((12, 0, 1), "12.x+"),
        ((12, 0, -1), "12.x-"),
        ((0, 1, 1), "0.y+"),
        ((63, 2, -1), "63.z-"),
        ((7, INJECT, 0), "7.inj"),
        ((7, EJECT, 0), "7.ej"),
    ])
    def test_roundtrip(self, link, name):
        assert link_name(link) == name
        assert parse_link_name(name) == link

    def test_schema_is_well_formed(self):
        # (name, type, unit, site) rows with the three metric types the
        # docs table (and its sync test) rely on.
        for row in FABRIC_METRICS:
            assert len(row) == 4
            assert row[1] in ("counter", "gauge", "histogram")


class TestProbeAccounting:
    def test_unprobed_fabric_has_no_probe(self):
        fabric = Fabric(Mesh3D(2, 2, 1), lambda n, m: True,
                        lambda n, m, now: None)
        assert fabric.probe is None

    def test_completion_attributes_every_mesh_hop(self):
        fabric, delivered = _probed_fabric()
        fabric.send(_message(0, 5, words=3), 0)  # one x hop + one y hop
        _drain(fabric)
        probe = fabric.probe
        assert delivered == [5]
        assert probe.messages == 1
        assert probe.dim_hops == [1, 1, 0]
        # Every phit crossed every mesh channel of the path once.
        phits = sum(probe.link_phits.values())
        assert phits == sum(probe.dim_phits)
        assert set(probe.link_phits) == set(probe.link_messages)
        assert all(n == 1 for n in probe.link_messages.values())

    def test_contention_counts_blocked_cycles(self):
        fabric, _ = _probed_fabric()
        # Two worms from the same row through the same x+ channels: the
        # second blocks at head while the first streams.
        fabric.send(_message(0, 3, words=8), 0)
        fabric.send(_message(1, 3, words=8), 0)
        _drain(fabric)
        probe = fabric.probe
        assert probe.stall_channel_busy > 0
        assert probe.stall_link_outage == 0
        assert sum(probe.link_blocked.values()) == probe.stall_channel_busy

    def test_backpressure_split_from_contention(self):
        refusals = {"left": 30}

        def accept(node, message):
            if refusals["left"] > 0:
                refusals["left"] -= 1
                return False
            return True

        fabric, delivered = _probed_fabric(accept=accept)
        fabric.send(_message(0, 1), 0)
        _drain(fabric)
        probe = fabric.probe
        assert delivered == [1]
        assert probe.stall_backpressure > 0
        assert probe.node_backpressure == {1: probe.stall_backpressure}
        # Refusal cycles are backpressure, not channel contention.
        assert probe.stall_channel_busy == 0

    def test_queue_depth_histogram(self):
        probe = FabricProbe()
        for depth in (1, 2, 3):
            probe.record_queue_depth(0, depth)
        probe.record_queue_depth(1, 200)
        merged = probe.inject_queue_summary()
        assert merged.count == 4
        assert merged.max == 200
        assert merged.bounds == QUEUE_OCCUPANCY_BOUNDS

    def test_elapsed_never_zero(self):
        probe = FabricProbe(opened_at=100)
        assert probe.elapsed(100) == 1
        assert probe.elapsed(350) == 250


class TestStepAdvanceEquality:
    def test_advance_matches_step_counters(self):
        pairs = [(0, 15), (3, 12), (5, 6), (9, 2), (14, 1), (7, 8)]
        stepped, _ = _probed_fabric()
        for src, dst in pairs:
            stepped.send(_message(src, dst, words=4), 0)
        _drain(stepped)

        batched, _ = _probed_fabric()
        for src, dst in pairs:
            batched.send(_message(src, dst, words=4), 0)
        assert batched.can_batch()
        now = 0
        while (batched.stats.completed < batched.stats.submitted
               and now < 50_000):
            now = batched.advance(now, now + 64)
        assert batched.stats.completed == batched.stats.submitted
        assert batched.probe.to_dict() == stepped.probe.to_dict()


class TestSnapshotCarriesProbe:
    def test_state_dict_roundtrip(self):
        fabric, _ = _probed_fabric()
        fabric.send(_message(0, 5), 0)
        _drain(fabric)
        state = fabric.state_dict()
        fresh, _ = _probed_fabric()
        fresh.probe = None
        fresh.load_state(state)
        assert fresh.probe is not None
        assert fresh.probe.to_dict() == fabric.probe.to_dict()

    def test_pre_observatory_state_restores_unprobed(self):
        fabric, _ = _probed_fabric()
        state = fabric.state_dict()
        del state["probe"]
        fabric.load_state(state)
        assert fabric.probe is None


class TestFabricReport:
    def _report(self):
        fabric, _ = _probed_fabric()
        for src in range(4):           # all of column x=0..3, y=0
            fabric.send(_message(src, src + 12), 0)   # straight up y
        fabric.send(_message(0, 3, words=6), 0)       # along the x row
        fabric.send(_message(4, 7, words=6), 0)
        now = _drain(fabric)
        return FabricReport.from_fabric(fabric, now)

    def test_from_fabric_requires_probe(self):
        fabric = Fabric(Mesh3D(2, 2, 1), lambda n, m: True,
                        lambda n, m, now: None)
        with pytest.raises(ValueError):
            FabricReport.from_fabric(fabric, 100)

    def test_midplane_convention_matches_topology(self):
        mesh = Mesh3D(4, 4, 1)
        report = self._report()
        for link in report.links:
            node, dim, direction = link
            if dim != 0:
                assert not report.is_midplane(link)
                continue
            crossing = mesh.crosses_x_midplane(node, node + direction)
            assert report.is_midplane(link) == crossing

    def test_top_links_ranked_and_deterministic(self):
        report = self._report()
        top = report.top_links(4)
        phits = [info["phits"] for _, info in top]
        assert phits == sorted(phits, reverse=True)
        assert top == report.top_links(4)  # stable tie-break

    def test_midplane_split_partitions_all_links(self):
        report = self._report()
        split = report.midplane_split()
        assert (split["midplane"]["links"] + split["off_midplane"]["links"]
                == len(report.links))
        assert (split["midplane"]["phits"] + split["off_midplane"]["phits"]
                == sum(info["phits"] for info in report.links.values()))

    def test_utilization_is_phits_over_elapsed(self):
        report = self._report()
        for info in report.links.values():
            assert info["utilization"] == pytest.approx(
                info["phits"] / report.elapsed)

    def test_heatmap_shape_and_bounds(self):
        report = self._report()
        grid = report.heatmap(dim=1, z=0, direction=1)
        lines = grid.splitlines()
        assert "dim=Y" in lines[0]
        assert len(lines) == 1 + 4            # header + one row per y
        assert all(len(line.split()) == 4 for line in lines[1:])
        with pytest.raises(ValueError):
            report.heatmap(z=5)

    def test_format_mentions_the_essentials(self):
        text = self._report().format(top=3)
        assert "fabric observatory: 4x4x1 mesh" in text
        assert "channel_busy=" in text
        assert "top 3 links by phits:" in text
        assert "link load: dim=X" in text

    def test_json_roundtrip_and_equality(self, tmp_path):
        report = self._report()
        path = tmp_path / "fabric.json"
        report.save(str(path))
        loaded = FabricReport.load(str(path))
        assert loaded == report
        assert loaded.to_dict() == report.to_dict()

    def test_diff_finds_changed_links(self):
        report_a = self._report()
        report_b = FabricReport.from_dict(report_a.to_dict())
        assert report_a.diff(report_b) == {}
        assert report_a.format_diff(report_b) == \
            "fabric: no per-link differences"
        link = next(iter(report_b.links))
        report_b.links[link]["phits"] += 10
        report_b.stalls["channel_busy"] += 1
        pairs = report_a.diff(report_b)
        assert link_name(link) in pairs
        assert "stall.channel_busy" in pairs
        assert str(link_name(link)) in report_a.format_diff(report_b)
