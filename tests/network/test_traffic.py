"""Tests for the synthetic traffic harnesses (Figures 3 and 4)."""

import pytest

from repro.core.errors import ConfigurationError
from repro.network.topology import Mesh3D
from repro.network.traffic import (RandomTrafficExperiment,
                                   TerminalBandwidthExperiment)


class TestTerminalBandwidth:
    def test_discard_monotone_in_message_size(self):
        rates = [TerminalBandwidthExperiment(w, "discard").run().bits_per_s
                 for w in (1, 2, 4, 8)]
        assert rates == sorted(rates)

    def test_sink_ordering_discard_imem_emem(self):
        results = {mode: TerminalBandwidthExperiment(8, mode).run().bits_per_s
                   for mode in ("discard", "imem", "emem")}
        assert results["discard"] > results["imem"] > results["emem"]

    def test_discard_cannot_exceed_channel_peak(self):
        result = TerminalBandwidthExperiment(16, "discard").run()
        assert result.words_per_cycle <= 0.5 + 1e-9

    def test_eight_words_near_ninety_percent(self):
        result = TerminalBandwidthExperiment(8, "discard").run()
        assert 0.85 <= result.words_per_cycle / 0.5 <= 0.95

    def test_two_words_above_half(self):
        result = TerminalBandwidthExperiment(2, "discard").run()
        assert result.words_per_cycle / 0.5 > 0.5

    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigurationError):
            TerminalBandwidthExperiment(4, "teleport")

    def test_zero_length_rejected(self):
        with pytest.raises(ConfigurationError):
            TerminalBandwidthExperiment(0, "discard")


class TestRandomTraffic:
    def _run(self, idle, words=4, dims=3):
        experiment = RandomTrafficExperiment(
            Mesh3D.cube(dims), message_words=words, idle_cycles=idle
        )
        return experiment.run(warmup_cycles=1000, measure_cycles=3000)

    def test_produces_iterations(self):
        result = self._run(idle=100)
        assert result.iterations > 0
        assert result.one_way_latency_cycles > 0

    def test_load_decreases_with_idle(self):
        loaded = self._run(idle=0)
        light = self._run(idle=1000)
        assert loaded.bisection_traffic_bits_per_s > \
            light.bisection_traffic_bits_per_s

    def test_efficiency_increases_with_grain(self):
        small_grain = self._run(idle=0)
        large_grain = self._run(idle=2000)
        assert large_grain.efficiency > small_grain.efficiency
        assert large_grain.efficiency > 0.9

    def test_latency_rises_under_load(self):
        loaded = self._run(idle=0, words=16)
        light = self._run(idle=2000, words=16)
        assert loaded.one_way_latency_cycles > light.one_way_latency_cycles

    def test_utilization_bounded(self):
        result = self._run(idle=0, words=16)
        assert 0.0 < result.bisection_utilization < 1.0

    def test_message_too_short_rejected(self):
        with pytest.raises(ConfigurationError):
            RandomTrafficExperiment(Mesh3D.cube(2), 1, 0)

    def test_deterministic_given_seed(self):
        a = self._run(idle=50)
        b = self._run(idle=50)
        assert a.one_way_latency_cycles == b.one_way_latency_cycles
        assert a.iterations == b.iterations


class TestPinnedNumbers:
    """Figure 3 / Figure 4 fabric statistics, pinned as literals.

    The kernel-versus-reference property cannot see a channel-naming
    bug (both sides share ``repro.network.routing``), so these numbers
    were recorded before channel keys became ints: a collision between
    two channels' keys, or a route that takes a wrong turn, moves them.
    A 4x3x3 mesh has a different stride in every dimension.
    """

    #: load point -> (completed, block_cycles, latency total, window
    #: bisection words, mean round trip) at seed 27, 300 + 900 cycles.
    FIGURE3 = {
        (8, 0): (683, 3345, 23818, 2264, 79.90114068441065),
        (2, 0): (996, 436, 15649, 788, 41.623684210526314),
        (16, 0): (446, 5800, 29970, 2592, 146.53216374269005),
        (4, 200): (288, 136, 5671, 400, 49.601851851851855),
        (8, 1600): (51, 13, 1388, 152, 64.6842105263158),
    }

    @pytest.mark.parametrize("words, idle", sorted(FIGURE3))
    def test_figure3_load_points(self, words, idle):
        experiment = RandomTrafficExperiment(Mesh3D(4, 3, 3), words, idle,
                                             seed=27)
        result = experiment.run(300, 900)
        stats = experiment.fabric.stats
        assert (stats.completed, stats.block_cycles, stats.latency.total,
                stats.window_bisection_words,
                result.mean_round_trip_cycles) == self.FIGURE3[words, idle]

    @pytest.mark.parametrize("mode, words", [
        ("discard", 352), ("imem", 232), ("emem", 120)])
    def test_figure4_delivered_words(self, mode, words):
        result = TerminalBandwidthExperiment(8, mode).run(100, 800)
        assert result.delivered_words == words
