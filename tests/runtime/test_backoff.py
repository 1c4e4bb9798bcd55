"""Seeded-jitter exponential backoff: deterministic, bounded, pinned.

The jitter exists to de-synchronize retry storms (every lost message
retrying on the same cycle re-collides forever at high loss rates),
but it must never trade away reproducibility: the factor is drawn from
an RNG seeded by ``(seed, key, attempt)`` alone, so the same
configuration replays the same delays — process boundaries, dict
order, and wall clock included.  The digest-equality tests reduce that
to a string comparison, exactly like the chaos determinism suite.
"""

import pytest

from repro.chaos import ChaosEngine, FaultPlan, FaultSpec
from repro.core.errors import ConfigurationError
from repro.jsim.sim import MacroSimulator
from repro.runtime.futures import FuturePool
from repro.runtime.rpc import ReliableLayer, backoff_delay
from repro.telemetry import Telemetry


class TestBackoffDelay:
    def test_no_jitter_is_pure_exponential(self):
        assert [backoff_delay(100, 2.0, a) for a in range(4)] \
            == [100, 200, 400, 800]

    def test_jitter_zero_skips_the_rng_entirely(self):
        """jitter=0 must be bit-identical to the pre-jitter behavior,
        not merely 'jitter factor happens to be 1'."""
        for attempt in range(5):
            assert backoff_delay(100, 2.0, attempt, jitter=0.0, seed=9) \
                == backoff_delay(100, 2.0, attempt)

    def test_jitter_bounded_and_never_shrinks(self):
        for attempt in range(8):
            base = backoff_delay(100, 2.0, attempt)
            jittered = backoff_delay(100, 2.0, attempt, jitter=0.5,
                                     seed=1, key=17)
            assert base <= jittered < base * 1.5 + 1

    def test_deterministic_across_calls(self):
        args = dict(jitter=0.4, seed=123, key="job-digest")
        first = [backoff_delay(250, 2.0, a, **args) for a in range(6)]
        again = [backoff_delay(250, 2.0, a, **args) for a in range(6)]
        assert first == again

    def test_seed_and_key_decorrelate(self):
        delays = {backoff_delay(1000, 2.0, 3, jitter=0.9, seed=s, key=k)
                  for s in range(5) for k in range(5)}
        assert len(delays) > 10  # different streams, different draws


def _lossy_run(jitter, seed=5):
    """One lossy reliable-transport run; returns its event digest."""
    telemetry = Telemetry()
    sim = MacroSimulator(4, telemetry=telemetry)

    def record(ctx, value):
        ctx.charge(2)
        ctx.state.setdefault("got", []).append(value)

    sim.register("record", record)
    ChaosEngine(FaultPlan(seed=11, specs=(
        FaultSpec(kind="drop", rate=0.3),
    ))).attach_macro(sim)
    layer = ReliableLayer(sim, timeout=1_000, max_retries=30,
                          jitter=jitter, jitter_seed=seed)
    for value in range(16):
        sim.inject(value % 4, "record", value)
    sim.run()
    got = sorted(v for node in sim.nodes for v in node.state.get("got", []))
    assert got == list(range(16))  # exactly-once survived the jitter
    return telemetry.events.fingerprint(), layer.retries


class TestReliableJitterDeterminism:
    def test_same_seed_same_event_stream(self):
        digest_a, retries_a = _lossy_run(jitter=0.5)
        digest_b, retries_b = _lossy_run(jitter=0.5)
        assert digest_a == digest_b
        assert retries_a == retries_b

    def test_jitter_actually_changes_the_schedule(self):
        digest_plain, _ = _lossy_run(jitter=0.0)
        digest_jittered, _ = _lossy_run(jitter=0.5)
        assert digest_plain != digest_jittered

    def test_different_seeds_diverge(self):
        digest_a, _ = _lossy_run(jitter=0.5, seed=1)
        digest_b, _ = _lossy_run(jitter=0.5, seed=2)
        assert digest_a != digest_b

    def test_negative_jitter_rejected(self):
        sim = MacroSimulator(2)
        with pytest.raises(ConfigurationError):
            ReliableLayer(sim, jitter=-0.1)

    def test_jitter_survives_state_roundtrip(self):
        sim = MacroSimulator(2)
        layer = ReliableLayer(sim, jitter=0.25, jitter_seed=7)
        state = layer.state_dict()
        assert state["jitter"] == 0.25
        assert state["jitter_seed"] == 7
        sim2 = MacroSimulator(2)
        layer2 = ReliableLayer(sim2)
        layer2.load_state(state)
        assert layer2.jitter == 0.25
        assert layer2.jitter_seed == 7

    def test_pre_jitter_snapshot_state_loads(self):
        """Snapshots written before the jitter fields existed load with
        jitter off — old checkpoints stay restorable."""
        sim = MacroSimulator(2)
        layer = ReliableLayer(sim)
        state = layer.state_dict()
        del state["jitter"], state["jitter_seed"]
        sim2 = MacroSimulator(2)
        layer2 = ReliableLayer(sim2)
        layer2.load_state(state)
        assert layer2.jitter == 0.0
        assert layer2.jitter_seed == 0


class TestFuturePoolJitter:
    @staticmethod
    def _reissue_times(jitter, seed):
        """Simulated times of every kickoff for a never-resolving
        request (the pool reissues at each jittered deadline until the
        retry budget ends the run)."""
        sim = MacroSimulator(2)
        pool = FuturePool(sim, timeout=500, max_retries=4,
                          jitter=jitter, jitter_seed=seed)
        times = []
        pool.spawn("job", lambda attempt: times.append(sim.now))
        from repro.core.errors import DeliveryError

        with pytest.raises(DeliveryError):
            sim.run()
        return times

    def test_jittered_reissues_are_deterministic(self):
        first = self._reissue_times(jitter=0.5, seed=3)
        again = self._reissue_times(jitter=0.5, seed=3)
        assert first == again
        assert len(first) == 5  # initial kickoff + 4 reissues

    def test_jitter_moves_the_deadlines(self):
        plain = self._reissue_times(jitter=0.0, seed=3)
        jittered = self._reissue_times(jitter=0.5, seed=3)
        assert plain != jittered
        # jitter only ever lengthens a delay, never shortens it
        assert all(a <= b for a, b in zip(plain, jittered))

    def test_negative_jitter_rejected(self):
        sim = MacroSimulator(2)
        with pytest.raises(ConfigurationError):
            FuturePool(sim, jitter=-0.5)
