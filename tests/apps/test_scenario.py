"""The catalogue of named runs against the calls it replaced.

``run_scenario`` adds nothing to a run: for every entry, with and
without a 1 % drop plan + the reliable transport, cycles, output and
the event-stream sha256 equal the direct ``run_parallel`` / ``run_ping``
call with the catalogue's defaults written out by hand.
"""

import pytest

from repro.apps import lcs, nqueens
from repro.apps.base import launch
from repro.apps.scenario import CATALOGUE, run_scenario, validate
from repro.chaos import ChaosEngine, FaultPlan
from repro.chaos.harness import APPS as MACRO
from repro.core.errors import ConfigurationError
from repro.jsim.sim import MacroSimulator
from repro.machine.jmachine import JMachine
from repro.runtime.rpc import run_ping
from repro.snapshot import CheckpointPolicy
from repro.telemetry import Telemetry
from repro.telemetry.live import LiveSampler, SamplePolicy


def _chaos():
    return ChaosEngine(FaultPlan.message_loss(0.01, seed=3))


def _direct(app, n_nodes, telemetry, **rig):
    if app == "lcs":
        result = lcs.run_parallel(
            n_nodes, lcs.LcsParams(seed=20130501).scaled(0.02),
            telemetry=telemetry, **rig)
        return result.cycles, result.output
    if app == "nqueens":
        result = nqueens.run_parallel(
            n_nodes, nqueens.NQueensParams(n=8, tasks_per_node=4),
            telemetry=telemetry, **rig)
        return result.cycles, result.output
    machine = JMachine.build(n_nodes, telemetry=telemetry)
    run_ping(machine, 0, n_nodes - 1, iterations=50, stop="quiescent")
    return machine.now, {"final_cycle": machine.now}


def test_catalogue_is_the_three_named_runs():
    assert {name: (entry.level, entry.schema)
            for name, entry in CATALOGUE.items()} == {
        "lcs": ("macro", {"scale": (float, 0.02), "seed": (int, 20130501)}),
        "nqueens": ("macro", {"n": (int, 8), "tasks_per_node": (int, 4)}),
        "ping": ("cycle", {"iterations": (int, 50)}),
    }
    assert MACRO == ("lcs", "nqueens")  # what a fault plan applies to


@pytest.mark.parametrize("n_nodes", [4, 8])
@pytest.mark.parametrize("app", list(CATALOGUE))
def test_plain_run_equals_the_direct_call(app, n_nodes):
    direct_rig, catalogue_rig = Telemetry(), Telemetry()
    want = _direct(app, n_nodes, direct_rig)
    run = run_scenario(app, n_nodes, telemetry=catalogue_rig)
    assert (run.cycles, run.output) == want
    assert run.target.telemetry is catalogue_rig
    assert catalogue_rig.events.fingerprint() \
        == direct_rig.events.fingerprint()


@pytest.mark.parametrize("app", MACRO)
def test_lossy_run_equals_the_direct_call(app):
    direct_rig, catalogue_rig = Telemetry(), Telemetry()
    want = _direct(app, 4, direct_rig, chaos=_chaos(), reliable=True)
    engine = _chaos()
    run = run_scenario(app, 4, telemetry=catalogue_rig, chaos=engine,
                       reliable={})  # JobSpec's spelling of "default"
    assert (run.cycles, run.output) == want
    assert engine.counters["drops"] > 0
    assert run.extra["reliable"]["retries"] > 0
    assert catalogue_rig.events.fingerprint() \
        == direct_rig.events.fingerprint()


@pytest.mark.parametrize("app", list(CATALOGUE))
def test_resume_from_the_first_checkpoint_equals_the_uninterrupted_run(
        app, tmp_path):
    reference = Telemetry()
    whole = run_scenario(app, 8, telemetry=reference)
    policy = CheckpointPolicy(str(tmp_path / "at_{cycle}.ckpt"),
                              every=max(1, whole.cycles // 3))
    run_scenario(app, 8, telemetry=Telemetry(), checkpoint=policy)
    assert policy.saves >= 2
    first = min(tmp_path.iterdir(),
                key=lambda path: int(path.stem.split("_")[1]))
    sampler = LiveSampler(SamplePolicy(every_cycles=whole.cycles // 10))
    resumed = run_scenario(app, 8, telemetry=Telemetry(),
                           restore_from=str(first), sampler=sampler)
    assert (resumed.cycles, resumed.output) == (whole.cycles, whole.output)
    assert resumed.target.telemetry.events.fingerprint() \
        == reference.events.fingerprint()
    assert sampler.samples > 0


class TestValidate:
    def test_defaults_and_coercion(self):
        assert validate("lcs") == {"scale": 0.02, "seed": 20130501}
        assert validate("lcs", {"scale": 1, "seed": 7.0}) \
            == {"scale": 1.0, "seed": 7}
        assert type(validate("lcs", {"scale": 1})["scale"]) is float

    @pytest.mark.parametrize("call", [
        lambda: validate("mandelbrot"),
        lambda: validate("lcs", {"warp": 9}),
        lambda: validate("lcs", {"scale": float("nan")}),
        lambda: validate("nqueens", {"n": float("inf")}),
        lambda: validate("ping", {"iterations": "lots"}),
    ])
    def test_rejections(self, call):
        with pytest.raises(ConfigurationError):
            call()

    def test_macro_rig_on_a_cycle_entry_is_rejected_before_building(self):
        for rig in ({"chaos": _chaos()}, {"reliable": True},
                    {"reliable": {}}):
            with pytest.raises(ConfigurationError, match="cycle-level"):
                run_scenario("ping", 8, **rig)


class TestLaunch:
    def _sim(self):
        sim = MacroSimulator(2)
        sim.register("hop", lambda ctx, n: n and ctx.send(1 - ctx.node_id,
                                                         "hop", n - 1))
        return sim

    def test_assembles_the_result_and_leaves_output_to_the_app(self):
        sim = self._sim()
        result = launch("hops", sim, lambda: sim.inject(0, "hop", 5))
        assert (result.name, result.n_nodes, result.output) \
            == ("hops", 2, None)
        assert result.cycles == sim.end_time > 0
        assert result.handler_stats["hop"].invocations == 6
        assert result.sim is sim and result.extra == {}

    @pytest.mark.parametrize("reliable, wrapped", [
        (None, False), (False, False), (True, True), ({}, True),
        ({"timeout": 500}, True)])
    def test_one_spelling_of_the_transport(self, reliable, wrapped):
        sim = self._sim()
        result = launch("hops", sim, lambda: sim.inject(0, "hop", 3),
                        reliable=reliable)
        assert ("reliable" in result.extra) is wrapped

    def test_run_limit_seeds_an_unpinned_sampler_only(self):
        for pinned, want in ((None, 1234), (99, 99)):
            sim = self._sim()
            sampler = LiveSampler(SamplePolicy(every_cycles=10))
            sampler.run_limit = pinned
            launch("hops", sim, lambda: sim.inject(0, "hop", 3),
                   sampler=sampler, run_limit=1234)
            assert sampler.run_limit == want
