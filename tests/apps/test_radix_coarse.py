"""Tests for the coarse-grained radix variant and the grain crossover."""

import pytest

from repro.apps.radix_sort import RadixParams, generate_keys, run_parallel
from repro.core.costs import DEFAULT_COSTS
from repro.core.errors import ConfigurationError
from repro.jsim.sim import MacroConfig

SMALL = RadixParams(n_keys=512, key_bits=16)


class TestCoarseCorrectness:
    @pytest.mark.parametrize("n_nodes", [1, 2, 4, 8])
    def test_sorts_correctly(self, n_nodes):
        result = run_parallel(n_nodes, SMALL, style="coarse")
        assert result.output == sorted(generate_keys(SMALL))

    def test_same_answer_as_fine(self):
        fine = run_parallel(4, SMALL, style="fine")
        coarse = run_parallel(4, SMALL, style="coarse")
        assert fine.output == coarse.output

    def test_unknown_style_rejected(self):
        with pytest.raises(ConfigurationError):
            run_parallel(2, SMALL, style="medium")


class TestGrainBehaviour:
    def test_coarse_sends_far_fewer_messages(self):
        params = RadixParams(n_keys=2048, key_bits=16)
        fine = run_parallel(8, params, style="fine")
        coarse = run_parallel(8, params, style="coarse")
        assert coarse.sim.messages_sent < fine.sim.messages_sent / 10

    def test_block_messages_are_long(self):
        coarse = run_parallel(8, SMALL, style="coarse")
        blocks = coarse.handler_stats["WriteBlock"]
        assert blocks.invocations > 0
        assert blocks.mean_message_words > 10

    def test_fine_competitive_at_mdp_overheads(self):
        """The paper's point: MDP mechanisms make fine-grain affordable."""
        fine = run_parallel(8, SMALL, style="fine")
        coarse = run_parallel(8, SMALL, style="coarse")
        assert fine.cycles < coarse.cycles * 1.5

    def test_fine_loses_badly_at_vendor_overheads(self):
        config = MacroConfig(send_overhead_cycles=2400,
                             costs=DEFAULT_COSTS.with_overrides(dispatch=500))
        fine = run_parallel(8, SMALL, config=config, style="fine")
        coarse = run_parallel(8, SMALL, config=config, style="coarse")
        assert fine.cycles > coarse.cycles * 3
