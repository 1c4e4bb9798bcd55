"""Tests for the fault-policy layer in isolation."""

import pytest

from repro.core.costs import DEFAULT_COSTS
from repro.core.errors import CfutFault, FutUseFault, SendFault, XlateMissFault
from repro.core.faults import AbortFaultPolicy, RuntimeFaultPolicy
from repro.core.processor import Mdp
from repro.core.word import Word


@pytest.fixture
def proc():
    return Mdp(node_id=0)


class TestRuntimePolicy:
    def test_send_fault_costs_one_cycle(self, proc):
        policy = RuntimeFaultPolicy()
        cost = policy.on_send_fault(proc, SendFault("full"))
        assert cost == 1
        assert proc.counters.send_faults == 1

    def test_xlate_miss_refills_from_backing(self, proc):
        policy = RuntimeFaultPolicy()
        key = Word.from_int(9)
        proc.amt._backing[key] = Word.from_int(90)
        cost = policy.on_xlate_miss(proc, key, XlateMissFault("miss"))
        assert cost == proc.costs.xlate_miss
        assert proc.amt.xlate(key).value == 90

    def test_xlate_miss_unbound_reraises(self, proc):
        policy = RuntimeFaultPolicy()
        with pytest.raises(XlateMissFault):
            policy.on_xlate_miss(proc, Word.from_int(404),
                                 XlateMissFault("miss"))

    def test_cfut_without_address_is_fatal(self, proc):
        """A cfut in a register has no home to watch: programming error."""
        policy = RuntimeFaultPolicy()
        fault = CfutFault("register cfut")
        with pytest.raises(CfutFault):
            policy.on_cfut(proc, None, fault)

    def test_fut_without_address_is_fatal(self, proc):
        policy = RuntimeFaultPolicy()
        with pytest.raises(FutUseFault):
            policy.on_fut_use(proc, None, FutUseFault("register fut"))

    def test_configurable_costs(self):
        """The save cost is the processor's, not the policy's."""
        proc = Mdp(node_id=0, costs=DEFAULT_COSTS.with_overrides(
            suspend_save=40, restart=35))
        proc.suspend_on = lambda address: None  # no thread to park
        cost = RuntimeFaultPolicy().on_cfut(proc, 100, CfutFault("x"))
        assert cost == proc.costs.fault_vector + 40


class TestAbortPolicy:
    def test_everything_reraises(self, proc):
        policy = AbortFaultPolicy()
        with pytest.raises(CfutFault):
            policy.on_cfut(proc, 100, CfutFault("x"))
        with pytest.raises(FutUseFault):
            policy.on_fut_use(proc, 100, FutUseFault("x"))
        with pytest.raises(XlateMissFault):
            policy.on_xlate_miss(proc, Word.from_int(1), XlateMissFault("x"))
        with pytest.raises(SendFault):
            policy.on_send_fault(proc, SendFault("x"))
