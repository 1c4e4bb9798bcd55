"""Macro-level fault injection, timers, the harness, and the CLI."""

import json

import pytest

from repro.chaos import ChaosEngine, FaultPlan, FaultSpec
from repro.chaos.__main__ import main as chaos_main
from repro.chaos.harness import APPS, run_app_under_plan
from repro.jsim.sim import MacroSimulator


def _ping_sim(n=4):
    """Two handlers: ping forwards to pong, pong records the value."""
    sim = MacroSimulator(n)

    def ping(ctx, dest, value):
        ctx.charge(10)
        ctx.send(dest, "pong", value)

    def pong(ctx, value):
        ctx.charge(2)
        ctx.state.setdefault("got", []).append(value)

    sim.register("ping", ping)
    sim.register("pong", pong)
    return sim


class TestMacroVerdicts:
    def test_certain_drop_eats_the_message(self):
        sim = _ping_sim()
        engine = ChaosEngine(FaultPlan(seed=1, specs=(
            FaultSpec(kind="drop", rate=1.0),
        ))).attach_macro(sim)
        sim.inject(0, "ping", 3, 99)
        sim.run()
        # The kickoff itself was dropped; nothing ever arrived.
        assert sim.nodes[3].state.get("got") is None
        assert engine.counters["drops"] >= 1

    def test_delay_postpones_arrival(self):
        clean = _ping_sim()
        clean.inject(0, "ping", 3, 1)
        clean_end = clean.run()

        slow = _ping_sim()
        engine = ChaosEngine(FaultPlan(seed=1, specs=(
            FaultSpec(kind="delay", rate=1.0, delay=500),
        ))).attach_macro(slow)
        slow.inject(0, "ping", 3, 1)
        slow_end = slow.run()
        assert slow.nodes[3].state["got"] == [1]
        assert slow_end >= clean_end + 500
        assert engine.counters["delays"] == 2  # kickoff + forwarded ping

    def test_node_scoped_drop(self):
        sim = _ping_sim()
        engine = ChaosEngine(FaultPlan(seed=1, specs=(
            FaultSpec(kind="drop", rate=1.0, node=2),
        ))).attach_macro(sim)
        sim.inject(0, "ping", 3, 7)  # destination 3: unaffected
        sim.run()
        assert sim.nodes[3].state["got"] == [7]
        assert engine.counters["drops"] == 0

    def test_no_engine_means_no_interference(self):
        sim = _ping_sim()
        sim.inject(0, "ping", 3, 8)
        sim.run()
        assert sim.nodes[3].state["got"] == [8]


class TestScheduleCall:
    def test_timer_fires_at_time(self):
        sim = MacroSimulator(2)
        fired = []
        sim.schedule_call(100, fired.append)
        sim.run()
        assert fired == [100]

    def test_timer_never_schedules_into_the_past(self):
        sim = MacroSimulator(2)
        sim.now = 50
        fired = []
        sim.schedule_call(10, fired.append)
        sim.run()
        assert fired == [50]

    def test_timers_do_not_extend_end_time(self):
        sim = MacroSimulator(2)
        sim.schedule_call(10_000, lambda now: None)
        assert sim.run() == 0

    def test_timers_interleave_with_events(self):
        sim = _ping_sim()
        order = []
        sim.schedule_call(1, lambda now: order.append(("timer", now)))
        sim.inject(0, "ping", 1, 5)
        sim.run()
        assert ("timer", 1) in order
        assert sim.nodes[1].state["got"] == [5]


class TestHarness:
    def test_unknown_app_rejected(self):
        with pytest.raises(ValueError, match="unknown chaos app"):
            run_app_under_plan(FaultPlan(), app="doom", n_nodes=8)

    @pytest.mark.parametrize("app", APPS)
    def test_apps_complete_under_loss(self, app):
        result = run_app_under_plan(
            FaultPlan.message_loss(0.02, seed=3), app=app, n_nodes=4,
            scale=0.01)
        assert result.completed, result.error
        assert result.correct
        assert result.chaos.get("drops", 0) > 0
        assert result.reliable.get("retries", 0) > 0
        assert result.fingerprint

    def test_failure_is_reported_not_raised(self):
        # Max retries 0 and certain loss: the transport gives up.
        result = run_app_under_plan(
            FaultPlan.message_loss(1.0, seed=3), app="lcs", n_nodes=4,
            scale=0.01, reliable={"max_retries": 0, "timeout": 100})
        assert not result.completed
        assert "DeliveryError" in result.error

    def test_to_dict_round_trips_through_json(self):
        result = run_app_under_plan(FaultPlan(), app="nqueens", n_nodes=4)
        assert json.loads(json.dumps(result.to_dict()))["completed"]


class TestCli:
    def _write_plan(self, tmp_path, rate=0.02):
        path = str(tmp_path / "plan.json")
        FaultPlan.message_loss(rate, seed=11, name="cli-test").save(path)
        return path

    def test_replay(self, tmp_path, capsys):
        path = self._write_plan(tmp_path)
        rc = chaos_main(["replay", path, "--nodes", "4", "--scale", "0.01"])
        assert rc == 0
        assert "completed" in capsys.readouterr().out

    def test_replay_twice_checks_determinism(self, tmp_path, capsys):
        path = self._write_plan(tmp_path)
        rc = chaos_main(["replay", path, "--nodes", "4", "--scale", "0.01",
                         "--twice"])
        assert rc == 0
        assert "identical" in capsys.readouterr().out

    def test_replay_json(self, tmp_path, capsys):
        path = self._write_plan(tmp_path)
        rc = chaos_main(["replay", path, "--nodes", "4", "--scale", "0.01",
                         "--json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["plan"] == "cli-test"
        assert payload["completed"] is True

    def test_show(self, tmp_path, capsys):
        path = self._write_plan(tmp_path)
        assert chaos_main(["show", path]) == 0
        assert json.loads(capsys.readouterr().out)["seed"] == 11

    def test_example_writes_a_loadable_plan(self, tmp_path):
        out = str(tmp_path / "example.json")
        assert chaos_main(["example", "-o", out]) == 0
        plan = FaultPlan.load(out)
        assert {spec.kind for spec in plan.specs} == {"drop", "delay"}
