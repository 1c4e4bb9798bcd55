"""The live sampler's contract: read-only frames, bit-identical runs.

docs/OBSERVABILITY.md §7: a :class:`LiveSampler` attached to either
simulator takes periodic pull-based snapshots during the run.  The
load-bearing promise is that sampling is *observation only* — a sampled
run must be bit-identical to an unsampled one, also under chaos — and
these tests pin that with the same event-fingerprint currency the chaos
and snapshot suites use.
"""

import pytest

from repro.apps.lcs import LcsParams, estimate_cycles, run_parallel
from repro.chaos import ChaosEngine, FaultPlan
from repro.machine.config import MachineConfig
from repro.machine.jmachine import JMachine
from repro.runtime.rpc import run_ping
from repro.telemetry import LiveSampler, SamplePoint, SamplePolicy, Telemetry


def _strip_live(metrics):
    return {name: value for name, value in metrics.items()
            if not name.startswith("live.")}


def _ping_digest(machine):
    return {
        "now": machine.now,
        "deliveries": machine.deliveries_committed,
        "submitted": machine.fabric.stats.submitted,
        "completed": machine.fabric.stats.completed,
        "instructions": [node.proc.counters.instructions
                         for node in machine.nodes],
    }


class TestSamplePolicy:
    def test_needs_some_interval(self):
        with pytest.raises(ValueError):
            SamplePolicy()
        with pytest.raises(ValueError):
            SamplePolicy(every_cycles=0)
        with pytest.raises(ValueError):
            SamplePolicy(every_wall_s=-1.0)

    def test_first_due_only_arms(self):
        policy = SamplePolicy(every_cycles=100)
        assert policy.due(0) is False          # arming poll
        assert policy.due(50) is False
        assert policy.due(100) is True
        policy.mark(100)
        assert policy.due(150) is False
        assert policy.due(200) is True

    def test_wall_interval_fires(self):
        import time

        policy = SamplePolicy(every_wall_s=0.01, wall_stride=1)
        assert policy.due(0) is False          # arming poll
        time.sleep(0.03)
        assert policy.due(1) is True

    def test_wall_stride_throttles_clock_reads(self):
        import time

        policy = SamplePolicy(every_wall_s=0.01, wall_stride=1000)
        policy.due(0)                          # arming poll
        assert policy.due(1) is False          # consults clock, not yet due
        time.sleep(0.03)
        # Now overdue on the wall clock, but the consult above reset the
        # stride countdown: the next wall_stride - 1 polls are pure
        # integer decrements and never touch the clock.
        fired = [policy.due(i) for i in range(999)]
        assert not any(fired)
        assert policy.due(1000) is True


class TestSamplePoint:
    def test_dict_round_trip(self):
        point = SamplePoint(seq=3, sim_now=500, wall_s=1.25, source="serial",
                            metrics={"machine.cycles": 500.0},
                            derived={"progress": 0.5},
                            stall={"nodes_implicated": 1, "nodes": []})
        clone = SamplePoint.from_dict(point.to_dict())
        assert clone.to_dict() == point.to_dict()

    def test_stall_omitted_when_absent(self):
        point = SamplePoint(0, 0, 0.0, "macro", {}, {})
        assert "stall" not in point.to_dict()


class TestSamplerMechanics:
    def _machine(self, telemetry=None):
        machine = JMachine(MachineConfig(dims=(2, 2, 1)),
                           telemetry=telemetry)
        return machine

    def test_ring_bounded_with_eviction_count(self):
        machine = self._machine()
        sampler = LiveSampler(SamplePolicy(every_cycles=1), ring=4)
        sampler.attach(machine)
        for now in range(10):
            sampler.sample(machine, now)
        assert sampler.samples == 10
        assert len(sampler.points) == 4
        assert sampler.ring_evicted == 6
        assert [p.seq for p in sampler.points] == [6, 7, 8, 9]
        assert sampler.latest().metrics["live.ring_dropped"] == 5.0

    def test_host_run_limit_wins_over_loop_limit(self):
        machine = self._machine()
        sampler = LiveSampler(SamplePolicy(every_cycles=1))
        sampler.attach(machine, run_limit=1000)
        point = sampler.sample(machine, 500, run_limit=10_000_000)
        assert sampler.run_limit == 1000
        assert point.derived["run_limit"] == 1000
        assert point.derived["progress"] == 0.5

    def test_loop_limit_adopted_when_not_pinned(self):
        machine = self._machine()
        sampler = LiveSampler(SamplePolicy(every_cycles=1))
        sampler.attach(machine)
        point = sampler.sample(machine, 250, run_limit=1000)
        assert point.derived["progress"] == 0.25

    def test_stalled_frames_carry_node_snapshots(self):
        machine = self._machine()
        sampler = LiveSampler(SamplePolicy(every_cycles=1))
        sampler.attach(machine)
        first = sampler.sample(machine, 100)
        # Nothing ran between samples: the progress signature is
        # unchanged, so the second frame is a stall frame with the
        # watchdog's diagnostics attached (cycle level only).
        second = sampler.sample(machine, 200)
        assert first.derived["stalled"] == 0
        assert second.derived["stalled"] == 1
        assert second.stall is not None
        assert second.stall["nodes_implicated"] >= 1

    def test_health_source_registered_once(self):
        telemetry = Telemetry()
        machine = self._machine(telemetry)
        LiveSampler(SamplePolicy(every_cycles=1)).attach(machine)
        LiveSampler(SamplePolicy(every_cycles=1)).attach(machine)
        assert machine.telemetry.registry.names().count("live") == 1

    def test_wait_for_frame(self):
        machine = self._machine()
        sampler = LiveSampler(SamplePolicy(every_cycles=1))
        sampler.attach(machine)
        for now in range(3):
            sampler.sample(machine, now)
        assert sampler.wait_for_frame(2, timeout=0.01) == []
        assert [p.seq for p in sampler.wait_for_frame(1, timeout=0.01)] \
            == [2]

    def test_ring_size_must_be_positive(self):
        with pytest.raises(ValueError):
            LiveSampler(ring=0)


class TestSerialEquivalence:
    def _run(self, sampler):
        telemetry = Telemetry(events=True)
        machine = JMachine(MachineConfig(dims=(2, 2, 1)),
                           telemetry=telemetry)
        if sampler is not None:
            sampler.attach(machine)
        run_ping(machine, 0, 3, iterations=4)
        return machine, telemetry.events.fingerprint()

    def test_sampled_run_bit_identical(self):
        plain, plain_digest = self._run(None)
        sampler = LiveSampler(SamplePolicy(every_cycles=50))
        sampled, sampled_digest = self._run(sampler)
        assert sampler.samples > 0            # the test is not vacuous
        assert sampled_digest == plain_digest
        assert _ping_digest(sampled) == _ping_digest(plain)
        # The final metric snapshots agree too, modulo the sampler's
        # own health source (absent from the unsampled run).
        plain_snap = plain.telemetry.registry.snapshot()
        sampled_snap = sampled.telemetry.registry.snapshot()
        assert _strip_live(sampled_snap) == plain_snap

    def test_frames_are_monotone_serial_source(self):
        sampler = LiveSampler(SamplePolicy(every_cycles=50))
        self._run(sampler)
        frames = list(sampler.points)
        assert frames
        for prev, point in zip(frames, frames[1:]):
            assert point.seq == prev.seq + 1
            assert point.sim_now > prev.sim_now
        assert all(point.source == "serial" for point in frames)
        assert all("events.collected" in point.metrics for point in frames)


class TestMacroEquivalence:
    PARAMS = LcsParams().scaled(0.02)

    def _run(self, sampler, chaos=None, reliable=None):
        telemetry = Telemetry(events=True)
        result = run_parallel(4, self.PARAMS, telemetry=telemetry,
                              chaos=chaos, reliable=reliable,
                              sampler=sampler)
        return result, telemetry.events.fingerprint()

    def test_sampled_macro_bit_identical(self):
        _plain, plain_digest = self._run(None)
        sampler = LiveSampler(SamplePolicy(every_cycles=20_000))
        result, sampled_digest = self._run(sampler)
        assert sampler.samples > 0
        assert sampled_digest == plain_digest
        # The app seeded the progress denominator with its analytic
        # estimate, and the run report carries the sampler's health.
        assert sampler.run_limit == estimate_cycles(4, self.PARAMS, None)
        report = result.sim.report()
        assert report.metrics["live.samples"] == sampler.samples
        progresses = [p.derived["progress"] for p in sampler.points
                      if "progress" in p.derived]
        assert progresses == sorted(progresses)
        assert all(p.source == "macro" for p in sampler.points)

    def test_sampled_chaos_run_bit_identical(self):
        plan = FaultPlan.message_loss(0.02, seed=5)
        _plain, plain_digest = self._run(
            None, chaos=ChaosEngine(plan), reliable=True)
        sampler = LiveSampler(SamplePolicy(every_cycles=20_000))
        _sampled, sampled_digest = self._run(
            sampler, chaos=ChaosEngine(plan), reliable=True)
        assert sampler.samples > 0
        assert sampled_digest == plain_digest
        # Chaos health rides along in every frame.
        assert all("chaos.drops" in p.metrics for p in sampler.points)


class TestFabricFrames:
    """Probed runs carry a fabric payload in every frame; un-probed
    runs carry none (docs/OBSERVABILITY.md §8)."""

    def _sampled_ping(self, probe):
        machine = JMachine(MachineConfig(dims=(2, 2, 1), fabric_probe=probe),
                           telemetry=Telemetry())
        sampler = LiveSampler(SamplePolicy(every_cycles=50)).attach(machine)
        run_ping(machine, 0, 3, iterations=4)
        return sampler.latest()

    def test_point_round_trips_fabric(self):
        fabric = {"dims": [2, 2, 1], "elapsed": 10, "messages": 1,
                  "links": {}, "dim_hops": [0, 0, 0], "dim_phits": [0, 0, 0],
                  "stalls": {}, "node_backpressure": {},
                  "queue_occupancy": {}}
        point = SamplePoint(0, 0, 0.0, "serial", {}, {}, fabric=fabric)
        clone = SamplePoint.from_dict(point.to_dict())
        assert clone.fabric == fabric
        assert clone.to_dict() == point.to_dict()

    def test_fabric_omitted_when_absent(self):
        point = SamplePoint(0, 0, 0.0, "serial", {}, {})
        assert point.fabric is None
        assert "fabric" not in point.to_dict()

    def test_probed_frames_carry_link_loads(self):
        from repro.network.observatory import FabricReport

        point = self._sampled_ping(probe=True)
        assert point.fabric is not None
        report = FabricReport.from_dict(point.fabric)
        assert report.messages > 0 and report.links
        assert point.metrics["net.link.phits"] > 0

    def test_unprobed_frames_stay_clean(self):
        point = self._sampled_ping(probe=False)
        assert point.fabric is None
        assert not any(name.startswith(("net.link.", "net.stall.",
                                        "net.dim.", "net.router."))
                       for name in point.metrics)
