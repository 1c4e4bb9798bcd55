"""Unit tests for the metrics registry."""

import pytest

from repro.network.stats import LatencySummary
from repro.telemetry.metrics import MetricsRegistry


class TestRegistry:
    def test_source_name_conflicts_rejected(self):
        reg = MetricsRegistry()
        reg.register_source("s", lambda: 1)
        with pytest.raises(ValueError):
            reg.register_source("s", lambda: 2)
        assert reg.snapshot() == {"s": 1}

    def test_snapshot_is_flat_and_sorted(self):
        reg = MetricsRegistry()
        reg.register_source("z.count", lambda: 2)
        reg.register_source("a.value", lambda: 7)
        snap = reg.snapshot()
        assert snap == {"a.value": 7, "z.count": 2}
        assert list(snap) == sorted(snap)

    def test_dict_source_expands_with_prefix(self):
        reg = MetricsRegistry()
        reg.register_source("node.0.proc", lambda: {"instructions": 5,
                                                    "suspends": 1})
        snap = reg.snapshot()
        assert snap["node.0.proc.instructions"] == 5
        assert snap["node.0.proc.suspends"] == 1

    def test_latency_summary_source_expands(self):
        summary = LatencySummary()
        summary.record(16)
        reg = MetricsRegistry()
        reg.register_source("net.latency", lambda: summary)
        snap = reg.snapshot()
        assert snap["net.latency.count"] == 1
        assert snap["net.latency.p50"] == 16

    def test_sources_sampled_at_snapshot_time(self):
        box = {"v": 1}
        reg = MetricsRegistry()
        reg.register_source("box", lambda: box["v"])
        assert reg.snapshot()["box"] == 1
        box["v"] = 9
        assert reg.snapshot()["box"] == 9

    def test_names_lists_everything(self):
        reg = MetricsRegistry()
        reg.register_source("s", lambda: 0)
        reg.register_source("c", lambda: {"x": 1})
        assert reg.names() == ("c", "s")
