"""Tests for the butterfly barrier."""

import pytest

from repro.core.costs import DEFAULT_COSTS
from repro.core.errors import ConfigurationError
from repro.machine.config import MachineConfig
from repro.machine.jmachine import JMachine
from repro.network.topology import Mesh3D
from repro.runtime.barrier import run_barrier_experiment


def machine(n, **overrides):
    return JMachine(MachineConfig(dims=Mesh3D.for_nodes(n).dims, **overrides))


class TestCorrectness:
    def test_two_node_barrier_completes(self):
        result = run_barrier_experiment(machine(2), barriers=3)
        assert result.barriers == 3
        assert result.waves == 1

    def test_eight_node_barrier_completes(self):
        result = run_barrier_experiment(machine(8), barriers=5)
        assert result.waves == 3
        assert result.total_cycles > 0

    def test_back_to_back_barriers_do_not_race(self):
        """Parity double-buffering: many consecutive barriers all finish."""
        result = run_barrier_experiment(machine(16), barriers=12)
        assert result.barriers == 12

    def test_non_power_of_two_rejected(self):
        machine_3 = JMachine(MachineConfig(dims=(3, 1, 1)))
        with pytest.raises(ConfigurationError):
            run_barrier_experiment(machine_3)

    def test_single_node_rejected(self):
        with pytest.raises(ConfigurationError):
            run_barrier_experiment(machine(1))


class TestScaling:
    def test_cost_grows_with_waves(self):
        per_barrier = {}
        for n in (2, 8, 32):
            result = run_barrier_experiment(machine(n), barriers=5)
            per_barrier[n] = result.cycles_per_barrier
        assert per_barrier[2] < per_barrier[8] < per_barrier[32]

    def test_cost_roughly_linear_in_waves(self):
        """The scan barrier is O(log N): cost per wave roughly constant."""
        result_8 = run_barrier_experiment(machine(8), barriers=5)
        result_64 = run_barrier_experiment(machine(64), barriers=5)
        per_wave_8 = result_8.cycles_per_barrier / result_8.waves
        per_wave_64 = result_64.cycles_per_barrier / result_64.waves
        assert per_wave_64 / per_wave_8 < 1.6

    def test_suspend_policy_affects_barrier(self):
        slow = run_barrier_experiment(
            machine(16, costs=DEFAULT_COSTS.with_overrides(
                suspend_save=50, restart=50)), barriers=5
        )
        fast = run_barrier_experiment(
            machine(16, costs=DEFAULT_COSTS.with_overrides(
                suspend_save=8, restart=8)), barriers=5
        )
        assert fast.cycles_per_barrier < slow.cycles_per_barrier

    def test_microseconds_conversion(self):
        result = run_barrier_experiment(machine(2), barriers=2)
        assert result.microseconds_per_barrier() == pytest.approx(
            result.cycles_per_barrier * 0.08, rel=1e-6
        )
