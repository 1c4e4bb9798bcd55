"""Serialization-contract drift tests.

Every stateful object has an explicit capture contract: an attribute is
either captured (moved by ``state_dict``/``load_state`` or the
machine/macro payload builders) or declared external (rebuilt from
config/wiring on restore).  These tests pin the partition to the live
``__dict__`` of each class, so adding an attribute without deciding its
snapshot fate fails here — the failure message is the decision prompt.
"""

from repro.chaos import ChaosEngine, FaultPlan, FaultSpec
from repro.jsim.netmodel import LatencyModel
from repro.jsim.sim import MacroSimulator
from repro.machine.jmachine import JMachine
from repro.network.fabric import Fabric
from repro.runtime.rpc import ReliableLayer
from repro.snapshot import CheckpointPolicy
from repro.snapshot.state import (MACHINE_CAPTURED_ATTRS,
                                  MACHINE_EXTERNAL_ATTRS,
                                  MACRO_CAPTURED_ATTRS, MACRO_EXTERNAL_ATTRS,
                                  PROC_EXTERNAL_ATTRS)

import pytest


def _partition_message(extra, unclaimed):
    return (f"attributes without a snapshot decision: {sorted(extra)}; "
            f"declared but gone: {sorted(unclaimed)} — update the "
            "capture contract (src/repro/snapshot/state.py or the "
            "class's state_dict) and docs/SNAPSHOT.md")


class TestPartitions:
    def test_jmachine(self):
        attrs = set(JMachine.build(4).__dict__)
        declared = MACHINE_CAPTURED_ATTRS | MACHINE_EXTERNAL_ATTRS
        assert attrs == declared, _partition_message(
            attrs - declared, declared - attrs)

    def test_macro_simulator(self):
        attrs = set(MacroSimulator(4).__dict__)
        declared = MACRO_CAPTURED_ATTRS | MACRO_EXTERNAL_ATTRS
        # ``post`` only appears once a ReliableLayer shadows it.
        assert attrs - declared == set(), _partition_message(
            attrs - declared, set())
        assert declared - attrs <= {"post"}

    def test_processor_externals_exist(self):
        proc = JMachine.build(4).nodes[0].proc
        assert PROC_EXTERNAL_ATTRS <= set(proc.__dict__), (
            "PROC_EXTERNAL_ATTRS names attributes Mdp no longer has")

    def test_fabric(self):
        fabric = JMachine.build(4).fabric
        assert not Fabric.EXTERNAL_ATTRS & Fabric.DERIVED_ATTRS
        stateful = {name.lstrip("_") for name in
                    set(fabric.__dict__) - Fabric.EXTERNAL_ATTRS
                    - Fabric.DERIVED_ATTRS}
        captured = set(fabric.state_dict())
        assert stateful == captured, _partition_message(
            stateful - captured, captured - stateful)

    def test_fabric_capture_leaves_no_sleep_state(self):
        """``DERIVED_ATTRS`` may stay out of a capture only because
        ``state_dict`` wakes every sleeper first: mid-flight, with worms
        frozen behind a hotspot and streaming into it, the capture holds
        awake worms with exact fields and the bookkeeping is at rest."""
        from repro.core.message import Message
        from repro.core.word import Word
        from repro.network.fabric import AWAKE
        from repro.network.topology import Mesh3D

        fabric = Fabric(Mesh3D(4, 4, 1), lambda node, message: True,
                        lambda node, message, at: None)
        for source in range(1, 16):
            fabric.send(Message([Word.ip(1)] + [Word.from_int(0)] * 7,
                                source=source, dest=0), 0)
        for now in range(40):
            fabric.step(now)
        assert fabric._n_parked and fabric._waiters
        assert any(0 <= w.wake and w.parked is None
                   for w in fabric._active), "nobody is streaming"
        state = fabric.state_dict()
        assert fabric._n_parked == 0 and not fabric._waiters
        assert all(w.wake == AWAKE and w.parked is None
                   for w in state["active"])

    def test_fabric_capture_mid_drain_resumes_equal(self):
        """A capture taken while a worm drains (freeing its tail by
        cheap steps) and another is parked with its buffers filling
        restores into a fresh fabric that finishes exactly like the
        uninterrupted one."""
        import pickle

        from repro.core.message import Message
        from repro.core.word import Word
        from repro.network.fabric import BUFFER_PHITS
        from repro.network.topology import Mesh3D

        def hotspot():
            log = []
            fabric = Fabric(Mesh3D(4, 4, 1), lambda node, message: True,
                            lambda node, message, at: log.append(
                                (message.source, at)))
            fabric.on_injected = lambda message: log.append(
                ("injected", message.source, fabric._cycle))
            fabric.attach_probe()
            for source in range(1, 16):
                fabric.send(Message([Word.ip(1)] + [Word.from_int(0)] * 7,
                                    source=source, dest=0), 0)
            return fabric, log

        def finish(fabric, now):
            while fabric.active:
                fabric.step(now)
                now += 1
            return now, fabric.stats.block_cycles, fabric.probe.to_dict()

        fabric, log = hotspot()
        for now in range(400):
            fabric.step(now)
            last = [len(w.keys) - 1 for w in fabric._active]
            draining = any(w.seen < now and w.wake > now and w.head == n
                           and w.injected == w.total_phits
                           for w, n in zip(fabric._active, last))
            filling = any(w.parked is not None and w.injected < min(
                w.total_phits, BUFFER_PHITS * (w.head - w.released + 1))
                for w in fabric._active)
            if draining and filling:
                break
        else:
            pytest.fail("never a drainer and a filling worm at once")
        capture = pickle.dumps(fabric.state_dict())
        restored, restored_log = hotspot()
        restored.load_state(pickle.loads(capture))
        restored_log[:] = log
        assert finish(restored, now + 1) == finish(fabric, now + 1)
        assert restored_log == log

    def test_latency_model(self):
        model = MacroSimulator(4).network
        stateful = {name.lstrip("_") for name in
                    set(model.__dict__) - LatencyModel.EXTERNAL_ATTRS}
        captured = set(model.state_dict())
        assert stateful == captured, _partition_message(
            stateful - captured, captured - stateful)

    def test_chaos_engine(self):
        engine = ChaosEngine(FaultPlan(seed=1, specs=(
            FaultSpec(kind="drop", rate=0.1),)))
        stateful = {name.lstrip("_") for name in
                    set(engine.__dict__) - ChaosEngine.DERIVED_ATTRS}
        captured = set(engine.state_dict())
        # "plan" appears in the state for validation, not as an attr move.
        assert stateful == captured - {"plan"}, _partition_message(
            stateful - captured, captured - {"plan"} - stateful)

    def test_reliable_layer(self):
        sim = MacroSimulator(4)
        layer = ReliableLayer(sim)
        stateful = {name.lstrip("_") for name in
                    set(layer.__dict__) - ReliableLayer.EXTERNAL_ATTRS}
        captured = set(layer.state_dict())
        assert stateful == captured, _partition_message(
            stateful - captured, captured - stateful)


class TestCheckpointPolicy:
    def test_first_due_only_arms(self):
        policy = CheckpointPolicy("x.ckpt", every=100)
        assert policy.due(0) is False
        assert policy.due(99) is False
        assert policy.due(100) is True

    def test_save_rearms_from_reached_cycle(self, tmp_path):
        class Target:
            now = 250

            def save(self, path, run_limit=None, meta=None):
                return {"meta": {"now": self.now}}

        policy = CheckpointPolicy(str(tmp_path / "t_{cycle}.ckpt"),
                                  every=100)
        policy.due(0)
        policy.save(Target())
        assert policy.saves == 1
        assert policy.last_path.endswith("t_250.ckpt")
        assert policy.next_due == 350
        # The macro loop judges at the *next event's* horizon.
        policy.save(Target(), at=700)
        assert policy.next_due == 800

    def test_interval_must_be_positive(self):
        with pytest.raises(ValueError):
            CheckpointPolicy("x.ckpt", every=0)


class TestArmedStopCondition:
    """A stop condition is run-scoped, like the ``until`` argument it
    is: a checkpoint taken while one is armed holds neither the
    condition (``Mdp._stop`` is an uncaptured attribute) nor the empty
    watch-table entries that mark its flag words, so it pickles, and the
    restored machine is an ordinary one."""

    BARRIERS = 3

    def _barrier(self, checkpoint=None):
        from repro.machine.config import MachineConfig
        from repro.runtime.barrier import run_barrier_experiment

        machine = JMachine(MachineConfig(dims=(2, 2, 2)))
        machine.checkpoint = checkpoint
        run_barrier_experiment(machine, barriers=self.BARRIERS)
        return machine

    def _done(self):
        from repro.asm.assembler import assemble
        from repro.machine.stop import StopFlags
        from repro.runtime.barrier import BARRIER_SOURCE

        done_addr = assemble(BARRIER_SOURCE).end + 4 + 3
        return StopFlags([(node, done_addr, 1) for node in range(8)])

    def test_mid_run_save_restores_and_finishes_equal(self, tmp_path):
        from repro.snapshot import load_machine
        from tests.util import assert_same_state, machine_state

        path = str(tmp_path / "armed_{cycle}.ckpt")
        policy = CheckpointPolicy(path, every=150)
        finished = self._barrier(policy)
        assert policy.saves >= 2, "no checkpoint inside the armed run"
        # Checkpointing is free, armed or not.
        assert_same_state(machine_state(finished),
                          machine_state(self._barrier()))
        first = sorted(tmp_path.iterdir())[0]

        resumed = load_machine(str(first))
        assert 0 < resumed.now < finished.now
        assert all(node.proc._stop is None
                   and [] not in node.proc._watch.values()
                   for node in resumed.nodes)
        assert any(node.proc._watch.values() for node in resumed.nodes), \
            "nobody suspended on a butterfly slot: not a mid-run capture"
        assert resumed.run(until=self._done()) == finished.now
        assert_same_state(machine_state(resumed), machine_state(finished))

        # Separately, with no condition: run on to quiescence.
        drained = load_machine(str(first))
        assert drained.run() == finished.run()
        assert_same_state(machine_state(drained), machine_state(finished))
