"""Unit tests for network statistics helpers."""

import pytest

from repro.network.stats import LatencySummary, NetworkStats
from repro.network.topology import Mesh3D


class TestLatencySummary:
    def test_empty(self):
        summary = LatencySummary()
        assert summary.count == 0
        assert summary.mean == 0.0
        assert summary.min is None and summary.max is None

    def test_single_value(self):
        summary = LatencySummary()
        summary.record(42)
        assert summary.mean == 42
        assert summary.min == summary.max == 42

    def test_running_stats(self):
        summary = LatencySummary()
        for value in (10, 20, 60):
            summary.record(value)
        assert summary.count == 3
        assert summary.mean == pytest.approx(30)
        assert summary.min == 10
        assert summary.max == 60


class TestPercentiles:
    def test_empty_percentiles_are_zero(self):
        summary = LatencySummary()
        assert summary.p50 == 0.0
        assert summary.p99 == 0.0

    def test_single_value_all_percentiles(self):
        summary = LatencySummary()
        summary.record(37)
        assert summary.p50 == 37
        assert summary.p99 == 37
        assert summary.percentile(0.0) == 37
        assert summary.percentile(1.0) == 37

    def test_bucket_resolution_estimate(self):
        # Values 1..1000: p50's rank falls in the (256, 512] bucket, so
        # the estimate is the bucket's upper bound.
        summary = LatencySummary()
        for value in range(1, 1001):
            summary.record(value)
        assert summary.p50 == 512
        assert summary.p99 == 1000  # upper bound 1024 clamps to max

    def test_percentile_clamps_to_observed_range(self):
        summary = LatencySummary()
        summary.record(3)
        summary.record(3)
        # bucket upper bound is 4, but 4 was never observed
        assert summary.p99 == 3

    def test_fraction_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            LatencySummary().percentile(1.5)

    def test_custom_bounds_must_increase(self):
        with pytest.raises(ValueError):
            LatencySummary(bounds=(4, 2, 8))
        with pytest.raises(ValueError):
            LatencySummary(bounds=(4, 4))

    def test_overflow_bucket_uses_max(self):
        summary = LatencySummary(bounds=(10,))
        summary.record(5)
        summary.record(500)
        assert summary.p99 == 500


class TestMerge:
    def test_merge_is_exact(self):
        """Merging per-node summaries equals one global summary."""
        values_a = [3, 17, 90, 90, 1200]
        values_b = [1, 64, 64, 700]
        a, b, combined = LatencySummary(), LatencySummary(), LatencySummary()
        for v in values_a:
            a.record(v)
            combined.record(v)
        for v in values_b:
            b.record(v)
            combined.record(v)
        a.merge(b)
        assert a.snapshot() == combined.snapshot()
        assert a.buckets == combined.buckets

    def test_merge_empty_sides(self):
        a, b = LatencySummary(), LatencySummary()
        b.record(9)
        a.merge(b)
        assert a.count == 1 and a.min == 9 and a.max == 9
        a.merge(LatencySummary())  # merging an empty one changes nothing
        assert a.count == 1

    def test_merge_two_empties_stays_empty(self):
        a, b = LatencySummary(), LatencySummary()
        a.merge(b)
        assert a.count == 0
        assert a.min is None and a.max is None
        assert a.snapshot() == LatencySummary().snapshot()

    def test_merge_rejects_different_buckets(self):
        a = LatencySummary(bounds=(1, 2, 4))
        b = LatencySummary()
        with pytest.raises(ValueError):
            a.merge(b)

    def test_merge_preserves_overflow_bucket(self):
        """Values past the last bound land in the overflow bucket, and
        merging keeps both the bucket count and the true max."""
        a = LatencySummary(bounds=(10,))
        b = LatencySummary(bounds=(10,))
        a.record(5)
        b.record(700)
        b.record(9000)
        a.merge(b)
        assert a.count == 3
        assert a.max == 9000
        assert a.buckets[-1] == 2  # both overflow values survived
        assert a.p99 == 9000       # overflow estimate clamps to max

    def test_snapshot_keys(self):
        summary = LatencySummary()
        summary.record(8)
        assert set(summary.snapshot()) == {
            "count", "total", "mean", "min", "max", "p50", "p99",
        }


class TestWindow:
    def test_window_reset(self):
        stats = NetworkStats()
        stats.window_bisection_words = 100
        stats.open_window(500)
        assert stats.window_bisection_words == 0
        assert stats.window_cycles(600) == 100

    def test_window_cycles_floor(self):
        stats = NetworkStats()
        stats.open_window(100)
        assert stats.window_cycles(100) == 1  # never zero

    def test_bisection_convention_halves_crossings(self):
        """Both-direction crossings are halved to match the one-direction
        capacity convention."""
        mesh = Mesh3D(8, 8, 8)
        stats = NetworkStats()
        stats.open_window(0)
        stats.window_bisection_words = 64  # words crossing, both dirs
        # 32 words/cycle one-direction is exactly peak (64ch * 0.5).
        traffic = stats.bisection_traffic_bits_per_s(now=1)
        assert traffic == pytest.approx(
            mesh.bisection_capacity_bits_per_s())
