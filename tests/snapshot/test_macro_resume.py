"""Macro-level checkpoint/resume: restore-into, validated, bit-identical.

Macro snapshots restore *into* a prepared simulator (handlers are app
closures and cannot live in a file), so the contract includes shape
validation: same node count, same handler registry, a ReliableLayer on
both sides or neither, and the same chaos plan.
"""

import pytest

from repro.apps.lcs import LcsParams, run_parallel
from repro.chaos import ChaosEngine, FaultPlan, FaultSpec
from repro.core.errors import SnapshotError
from repro.jsim.sim import MacroSimulator
from repro.snapshot import (CheckpointPolicy, read_header, restore_macro_into,
                            save_macro)
from repro.telemetry import Telemetry

PARAMS = LcsParams(a_len=64, b_len=256)
N_NODES = 16
DROPPY = (FaultSpec(kind="drop", rate=0.05),)


def _chaos():
    return ChaosEngine(FaultPlan(seed=5, specs=DROPPY))


def _digest(result, telemetry):
    return {
        "cycles": result.cycles,
        "output": result.output,
        "handler_stats": result.handler_stats,
        "extra": result.extra,
        "messages": result.sim.messages_sent,
        "profiles": [dict(node.profile.__dict__)
                     for node in result.sim.nodes],
        "fingerprint": telemetry.events.fingerprint(),
    }


class TestLcsResume:
    def test_resume_under_chaos_and_reliable(self, tmp_path):
        """The acceptance scenario: LCS at 16 nodes with an active drop
        plan and the retransmitting transport; checkpoint mid-run,
        rebuild the app in a fresh simulator, resume — same answer, same
        cycle count, same telemetry digest."""
        telemetry = Telemetry()
        reference = run_parallel(N_NODES, PARAMS, telemetry=telemetry,
                                 chaos=_chaos(), reliable=True)
        want = _digest(reference, telemetry)

        path = str(tmp_path / "lcs.ckpt")
        telemetry = Telemetry()
        policy = CheckpointPolicy(path, every=want["cycles"] // 3)
        interrupted = run_parallel(N_NODES, PARAMS, telemetry=telemetry,
                                   chaos=_chaos(), reliable=True,
                                   checkpoint=policy)
        assert policy.saves >= 2
        assert _digest(interrupted, telemetry) == want  # saving is free

        telemetry = Telemetry()
        resumed = run_parallel(N_NODES, PARAMS, telemetry=telemetry,
                               chaos=_chaos(), reliable=True,
                               restore_from=path)
        assert _digest(resumed, telemetry) == want

    def test_resume_plain(self, tmp_path):
        telemetry = Telemetry()
        reference = run_parallel(N_NODES, PARAMS, telemetry=telemetry)
        want = _digest(reference, telemetry)

        path = str(tmp_path / "plain.ckpt")
        telemetry = Telemetry()
        run_parallel(N_NODES, PARAMS, telemetry=telemetry,
                     checkpoint=CheckpointPolicy(path,
                                                 every=want["cycles"] // 2))
        telemetry = Telemetry()
        resumed = run_parallel(N_NODES, PARAMS, telemetry=telemetry,
                               restore_from=path)
        assert _digest(resumed, telemetry) == want

    def test_network_model_state_round_trips(self):
        """The latency model's utilization window and backlog are part
        of the state: a cold model would re-time every arrival after a
        restore.  Its contract moves exactly the mutable counters."""
        hot = MacroSimulator(N_NODES)
        hot.register("h", lambda ctx: None)
        for i in range(200):
            hot.post(i % N_NODES, (i * 7) % N_NODES, "h", (), 8, 0, i)
        model = hot.network

        cold = MacroSimulator(N_NODES).network
        assert cold.state_dict() != model.state_dict()
        cold.load_state(model.state_dict())
        assert cold.state_dict() == model.state_dict()
        # Identical latency decisions from here on.
        assert (cold.latency(0, N_NODES - 1, 8, 10_000)
                == model.latency(0, N_NODES - 1, 8, 10_000))


class TestValidation:
    def _saved(self, tmp_path):
        path = str(tmp_path / "val.ckpt")
        sim = MacroSimulator(4)
        sim.register("h", lambda ctx: None)
        sim.inject(0, "h")
        sim.run()
        save_macro(sim, path)
        return path

    def test_node_count_mismatch(self, tmp_path):
        path = self._saved(tmp_path)
        other = MacroSimulator(8)
        other.register("h", lambda ctx: None)
        with pytest.raises(SnapshotError) as info:
            restore_macro_into(other, path)
        assert "nodes" in str(info.value)

    def test_handler_registry_mismatch(self, tmp_path):
        path = self._saved(tmp_path)
        other = MacroSimulator(4)
        other.register("different", lambda ctx: None)
        with pytest.raises(SnapshotError) as info:
            restore_macro_into(other, path)
        assert "missing" in str(info.value)

    def test_reliable_layer_must_match(self, tmp_path):
        from repro.runtime.rpc import ReliableLayer

        path = self._saved(tmp_path)
        other = MacroSimulator(4)
        other.register("h", lambda ctx: None)
        ReliableLayer(other)
        with pytest.raises(SnapshotError) as info:
            restore_macro_into(other, path)
        assert "ReliableLayer" in str(info.value)

    def test_chaos_plan_must_match(self, tmp_path):
        path = str(tmp_path / "chaos.ckpt")
        sim = MacroSimulator(4)
        sim.register("h", lambda ctx: None)
        _chaos().attach_macro(sim)
        sim.inject(0, "h")
        sim.run()
        save_macro(sim, path)

        other = MacroSimulator(4)
        other.register("h", lambda ctx: None)
        ChaosEngine(FaultPlan(seed=99, specs=DROPPY)).attach_macro(other)
        with pytest.raises(SnapshotError) as info:
            restore_macro_into(other, path)
        assert "plan" in str(info.value)

    def test_wrong_kind_rejected(self, tmp_path):
        path = self._saved(tmp_path)
        from repro.snapshot import load_machine

        with pytest.raises(SnapshotError) as info:
            load_machine(path)
        assert "macro" in str(info.value)

    def test_host_timer_capture_refused(self, tmp_path):
        """Arbitrary schedule_call callbacks cannot be serialized; the
        capture fails loudly instead of writing a broken file."""
        sim = MacroSimulator(4)
        sim.register("h", lambda ctx: None)
        sim.schedule_call(10, lambda now: None)
        with pytest.raises(SnapshotError) as info:
            save_macro(sim, str(tmp_path / "timer.ckpt"))
        assert "timer" in str(info.value)
