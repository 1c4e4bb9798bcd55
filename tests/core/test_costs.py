"""Tests for the cycle cost model."""

import pytest

from repro.bench.reference import PAPER_TABLE2
from repro.core.costs import CLOCK_HZ, CYCLE_NS, DEFAULT_COSTS, PHITS_PER_WORD


class TestConstants:
    def test_clock_is_12_5_mhz(self):
        assert CLOCK_HZ == 12_500_000
        assert CYCLE_NS == pytest.approx(80.0)

    def test_paper_headline_constants(self):
        costs = DEFAULT_COSTS
        assert costs.reg_op == 1
        assert costs.dispatch == 4
        assert costs.xlate_hit == 3
        assert costs.hop == 1
        assert costs.phits_per_word == PHITS_PER_WORD == 2
        assert costs.inject_words_per_cycle == 2

    def test_table2_constants(self):
        """The charged save/restart are the low ends of Table 2's ranges
        (the measured Tags/No Tags columns are tests/runtime/test_sync.py)."""
        costs = DEFAULT_COSTS
        assert costs.suspend_save == PAPER_TABLE2["Failure"]["save"][0] == 30
        assert costs.restart == PAPER_TABLE2["Restart"]["restart"][0] == 20


class TestOverrides:
    def test_known_field(self):
        retimed = DEFAULT_COSTS.with_overrides(dispatch=10)
        assert retimed.dispatch == 10
        assert DEFAULT_COSTS.dispatch == 4  # original untouched

    def test_unknown_key_raises(self):
        with pytest.raises(TypeError, match="nope"):
            DEFAULT_COSTS.with_overrides(nope=1)

    def test_mixed_overrides(self):
        retimed = DEFAULT_COSTS.with_overrides(hop=2, restart=9)
        assert (retimed.hop, retimed.restart) == (2, 9)
        assert retimed.dispatch == DEFAULT_COSTS.dispatch

    def test_frozen(self):
        with pytest.raises(Exception):
            DEFAULT_COSTS.dispatch = 99

