"""Property test: the macro engine equals the every-completion reference.

Hypothesis draws whole handler graphs — 1-16 nodes, up to four handlers
that charge (often zero cycles, with the 4-cycle dispatch sometimes
zeroed too, so tasks end in the cycle they start), fan out to
themselves / a neighbour / a far node / node 0 at both priorities with
derived or explicit ``length``, and arm ``schedule_call`` timers that
inject more work — plus a burst of host injects crowded onto a few
nodes and times so that arrivals tie with completions.  The same plan
drives :class:`~repro.jsim.sim.MacroSimulator` and
:class:`ReferenceSimulator` through a drawn series of ``max_time`` cuts,
a run to quiescence, a host inject at the default ``at`` (it reads
``sim.now``) and a second run, with and without
``Telemetry(events=True)``.  After every ``run`` the two must return the
same finish time and agree on :func:`observable_state`: the whole
``capture_macro`` tree with the heap in pop order, and the event
stream's sha256.

The engine polls its observers less often than the reference (it has
fewer events), so captures taken *inside* a run are not compared one to
one; instead each is restored into a fresh **reference** simulator —
which expects a COMPLETE event in the heap for every running node, as
every parent-written file has — and that must finish in the reference's
own final state.

Checked by hand to fail under these mutations of ``MacroSimulator.run``
(both within the tier-1 example budget):

* dropping the ``seq`` half of the busy test, so that an arrival at
  exactly ``busy_until`` never finds the node busy (the opposite
  mutation, a tie always counts as busy, is equivalent: the COMPLETE it
  pushes is ordered before everything left in the heap, pops next and
  starts the message at the same time);
* pushing the on-demand COMPLETE with a fresh ``_seq`` instead of the
  reserved one.

It also fails when ``run`` stops retiring unpushed completions at its
exits or before a poll, or retires past ``max_time``.

The tier-1 budget is small; ``pytest -m slow`` runs fifty times as many
plans (~90 s).
"""

import pickle

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.costs import DEFAULT_COSTS
from repro.jsim.sim import MacroConfig, MacroSimulator
from repro.runtime.rpc import _RetryTimer
from repro.snapshot.state import capture_macro, restore_macro
from repro.telemetry import Telemetry

from .reference_engine import ReferenceSimulator, observable_state


class _HostTimer(_RetryTimer):
    """A ``schedule_call`` callback the snapshot layer can serialise (it
    stores a retry timer as its ``seq``): ``layer`` is the side, ``seq``
    indexes the side's table of armed injects."""

    __slots__ = ()

    def __call__(self, now):
        dest, name, ttl, priority = self.layer.timers[self.seq]
        self.layer.sim.inject(dest, name, ttl, priority=priority, at=now)


class _Captures:
    """A run-loop observer (``RunHooks`` protocol) that keeps what a
    ``CheckpointPolicy`` would write, through pickle like the file."""

    def __init__(self, side, every):
        self.side = side
        self.every = every
        self.taken = []

    def arm(self, now):
        self.next_due = now + self.every

    def poll(self, target, now, run_limit):
        if now >= self.next_due:
            self.taken.append((pickle.dumps(capture_macro(target)),
                               list(self.side.timers)))
            self.next_due = now + self.every


class _Side:
    """One simulator (engine or oracle) with the plan's handlers."""

    def __init__(self, cls, plan):
        self.plan = plan
        self.timers = []
        n_nodes = plan["n_nodes"]
        self.sim = sim = cls(
            n_nodes,
            config=MacroConfig(costs=DEFAULT_COSTS.with_overrides(
                dispatch=plan["dispatch"])),
            telemetry=Telemetry(events=True) if plan["telemetry"] else None)
        specs = plan["handlers"]
        names = [f"h{i}" for i in range(len(specs))]
        self.names = names

        def destination(rule, node):
            return {"self": node, "next": (node + 1) % n_nodes,
                    "far": (node * 7 + 5) % n_nodes, "zero": 0}[rule]

        def make(spec):
            def handler(ctx, ttl):
                ctx.charge(cycles=spec["charge"])
                if ttl <= 0:
                    return
                for rule, target, priority, length in spec["sends"]:
                    ctx.send(destination(rule, ctx.node_id),
                             names[target % len(names)], ttl - 1,
                             length=length, priority=priority)
                ctx.charge(cycles=spec["tail"])
                if spec["timer"] is not None:
                    delay, rule, target = spec["timer"]
                    self.timers.append((destination(rule, ctx.node_id),
                                        names[target % len(names)],
                                        ttl - 1, 0))
                    sim.schedule_call(
                        ctx.now + delay,
                        _HostTimer(self, len(self.timers) - 1))
            return handler

        for name, spec in zip(names, specs):
            sim.register(name, make(spec))

    def inject(self, injects, at_default=False):
        for dest, target, ttl, priority, at in injects:
            self.sim.inject(dest % self.plan["n_nodes"],
                            self.names[target % len(self.names)], ttl,
                            priority=priority, at=None if at_default else at)

    def resume(self, blob, timers):
        """Install a pickled capture (and the timer table as of then)."""
        sim = self.sim
        restore_macro(sim, pickle.loads(blob))
        self.timers[:] = timers
        sim._events = [
            event[:5] + ((_HostTimer(self, event[5][0].seq),),) + event[6:]
            if event[2] == sim._TIMER else event for event in sim._events]


def _engine_equals_reference(plan):
    engine = _Side(MacroSimulator, plan)
    oracle = _Side(ReferenceSimulator, plan)
    # Polled, never compared: a poll must leave both runs as they were.
    for side in (engine, oracle):
        side.sim.checkpoint = _Captures(side, plan["capture_every"])

    def both(step, *args, **kwargs):
        returned = [step(side, *args, **kwargs) for side in (engine, oracle)]
        assert returned[0] == returned[1]
        assert observable_state(engine.sim) == observable_state(oracle.sim), \
            (step.__name__, args, kwargs)

    def run(side, **kwargs):
        return side.sim.run(**kwargs)

    both(_Side.inject, plan["injects"])
    for cut in sorted(plan["cuts"]):
        both(run, max_time=cut)
    both(run)
    both(_Side.inject, plan["late_injects"], at_default=True)
    both(run)


def _captures_resume_on_reference(plan):
    engine = _Side(MacroSimulator, plan)
    captures = _Captures(engine, plan["capture_every"])
    engine.sim.checkpoint = captures
    oracle = _Side(ReferenceSimulator, plan)
    for side in (engine, oracle):
        side.inject(plan["injects"])
        side.sim.run()
    final = observable_state(oracle.sim)
    taken = captures.taken
    for index in sorted({0, len(taken) // 2, len(taken) - 1}
                        & set(range(len(taken)))):
        blob, timers = taken[index]
        payload = pickle.loads(blob)
        # The format's invariants: one COMPLETE per running node, and
        # nothing scheduled into the past.
        assert sum(node["running"] for node in payload["nodes"]) \
            == sum(event[2] == MacroSimulator._COMPLETE
                   for event in payload["events"])
        assert all(event[0] >= payload["now"] for event in payload["events"])
        for cls in (ReferenceSimulator, MacroSimulator):
            resumed = _Side(cls, plan)
            resumed.resume(blob, timers)
            resumed.sim.run()
            assert observable_state(resumed.sim) == final, cls.__name__


sends = st.tuples(st.sampled_from(["self", "next", "far", "zero"]),
                  st.integers(0, 3),                   # target handler
                  st.integers(0, 1),                   # priority
                  st.sampled_from([None, None, 2, 9]))  # length

handler_specs = st.fixed_dictionaries({
    "charge": st.sampled_from([0, 0, 0, 1, 13, 40]),
    "tail": st.sampled_from([0, 0, 5]),
    "sends": st.lists(sends, max_size=2),
    "timer": st.none() | st.tuples(st.sampled_from([0, 3, 40]),
                                   st.sampled_from(["self", "next", "zero"]),
                                   st.integers(0, 3)),
})

# (dest, handler, ttl, priority, at): few nodes, few times, so arrivals
# collide with each other and with task ends.
injects = st.lists(
    st.tuples(st.sampled_from([0, 0, 1, 5]), st.integers(0, 3),
              st.integers(0, 4), st.integers(0, 1),
              st.sampled_from([0, 0, 4, 30])),
    min_size=1, max_size=8)

plans = st.fixed_dictionaries({
    "n_nodes": st.integers(1, 16),
    "dispatch": st.sampled_from([0, 4]),
    "telemetry": st.booleans(),
    "handlers": st.lists(handler_specs, min_size=1, max_size=4),
    "injects": injects,
    "cuts": st.lists(st.integers(0, 400), max_size=3),
    "late_injects": st.lists(
        st.tuples(st.sampled_from([0, 0, 1, 5]), st.integers(0, 3),
                  st.integers(0, 2), st.integers(0, 1), st.none()),
        max_size=2),
    "capture_every": st.sampled_from([1, 25, 200]),
})


@settings(deadline=None, max_examples=120,
          suppress_health_check=[HealthCheck.too_slow])
@given(plans)
def test_engine_equals_reference(plan):
    _engine_equals_reference(plan)
    _captures_resume_on_reference(plan)


@pytest.mark.slow
@settings(deadline=None, max_examples=6000,
          suppress_health_check=[HealthCheck.too_slow])
@given(plans)
def test_engine_equals_reference_long(plan):
    _engine_equals_reference(plan)
    _captures_resume_on_reference(plan)
