"""Tests for the event-driven macro simulator."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.errors import ConfigurationError, SimulationError
from repro.jsim.sim import MacroConfig, MacroSimulator


def test_register_and_run_single_handler():
    sim = MacroSimulator(4)
    seen = []
    sim.register("h", lambda ctx: seen.append(ctx.node_id))
    sim.inject(2, "h")
    sim.run()
    assert seen == [2]


def test_duplicate_registration_rejected():
    sim = MacroSimulator(2)
    sim.register("h", lambda ctx: None)
    with pytest.raises(ConfigurationError):
        sim.register("h", lambda ctx: None)


def test_unknown_handler_rejected():
    sim = MacroSimulator(2)
    with pytest.raises(SimulationError):
        sim.inject(0, "nope")


def test_bad_destination_rejected():
    sim = MacroSimulator(2)
    sim.register("h", lambda ctx: None)
    with pytest.raises(SimulationError):
        sim.inject(5, "h")


class TestTiming:
    def test_charge_advances_task_time(self):
        sim = MacroSimulator(2)
        times = []

        def h(ctx):
            times.append(ctx.now)
            ctx.charge(cycles=100)
            times.append(ctx.now)

        sim.register("h", h)
        sim.inject(0, "h")
        sim.run()
        assert times[1] - times[0] == 100

    def test_dispatch_cost_applied(self):
        sim = MacroSimulator(2)
        start_times = []
        sim.register("h", lambda ctx: start_times.append(ctx.now))
        sim.inject(0, "h", at=0)
        sim.run()
        # arrival latency + 4-cycle dispatch before the handler starts
        assert start_times[0] >= sim.config.costs.dispatch

    def test_node_serializes_tasks(self):
        sim = MacroSimulator(2)
        spans = []

        def h(ctx):
            start = ctx.now
            ctx.charge(cycles=50)
            spans.append((start, ctx.now))

        sim.register("h", h)
        sim.inject(0, "h")
        sim.inject(0, "h")
        sim.run()
        (s1, e1), (s2, e2) = sorted(spans)
        assert s2 >= e1  # no overlap on one node

    def test_parallel_nodes_overlap(self):
        sim = MacroSimulator(2)
        spans = []

        def h(ctx):
            start = ctx.now
            ctx.charge(cycles=1000)
            spans.append((ctx.node_id, start, ctx.now))

        sim.register("h", h)
        sim.inject(0, "h")
        sim.inject(1, "h")
        end = sim.run()
        assert end < 2000 + 100  # ran concurrently, not serialized

    def test_latency_grows_with_distance(self):
        sim = MacroSimulator(64)
        arrivals = {}

        def h(ctx, tag):
            arrivals[tag] = ctx.now

        sim.register("h", h)
        sim.register("kick", lambda ctx: (ctx.send(1, "h", "near"),
                                          ctx.send(63, "h", "far")))
        sim.inject(0, "kick")
        sim.run()
        assert arrivals["far"] > arrivals["near"]


class TestPriorities:
    def test_priority_one_served_first(self):
        sim = MacroSimulator(2)
        order = []

        def busy(ctx):
            ctx.charge(cycles=500)

        sim.register("busy", busy)
        sim.register("p0", lambda ctx: order.append("p0"))
        sim.register("p1", lambda ctx: order.append("p1"))
        sim.inject(0, "busy", at=0)
        # Both queued while the node is busy; P1 must be served first
        # even though P0 arrived earlier.
        sim.inject(0, "p0", at=10)
        sim.inject(0, "p1", at=20, priority=1)
        sim.run()
        assert order == ["p1", "p0"]


class TestAccounting:
    def test_profile_categories(self):
        sim = MacroSimulator(2)

        def h(ctx):
            ctx.charge(instructions=10)
            ctx.xlate(5)
            ctx.nnr(2)
            ctx.sync(30)

        sim.register("h", h)
        sim.inject(0, "h")
        sim.run()
        profile = sim.nodes[0].profile
        assert profile.compute == 20     # 10 instr at 2 cycles each
        assert profile.xlate == 15       # 5 xlates at 3 cycles
        assert profile.nnr == 12
        assert profile.sync == 30
        assert profile.instructions == 10
        assert profile.xlate_count == 5

    def test_xlate_fault_costs_more(self):
        sim = MacroSimulator(2)

        def h(ctx):
            ctx.xlate(1, fault=True)

        sim.register("h", h)
        sim.inject(0, "h")
        sim.run()
        profile = sim.nodes[0].profile
        assert profile.xlate == sim.config.costs.xlate_miss
        assert profile.xlate_faults == 1

    def test_handler_stats(self):
        sim = MacroSimulator(2)

        def h(ctx, value):
            ctx.charge(instructions=7)

        sim.register("h", h)
        sim.register("kick",
                     lambda ctx: [ctx.send(1, "h", i, length=3)
                                  for i in range(4)])
        sim.inject(0, "kick")
        sim.run()
        stats = sim.handler_stats["h"]
        assert stats.invocations == 4
        assert stats.instructions_per_thread == 7
        assert stats.mean_message_words == 3  # declared length wins

    def test_breakdown_fractions_sum_at_most_one(self):
        sim = MacroSimulator(4)

        def h(ctx, depth):
            ctx.charge(instructions=100)
            if depth:
                ctx.send((ctx.node_id + 1) % 4, "h", depth - 1)

        sim.register("h", h)
        sim.inject(0, "h", 20)
        sim.run()
        breakdown = sim.breakdown()
        assert sum(breakdown.values()) == pytest.approx(1.0, abs=1e-6)

    def test_send_charges_comm(self):
        sim = MacroSimulator(2)
        sim.register("noop", lambda ctx: None)

        def h(ctx):
            ctx.send(1, "noop", length=8)

        sim.register("h", h)
        sim.inject(0, "h")
        sim.run()
        # send overhead = 4 + 0.5 * 8 = 8, plus the dispatch charge of 4.
        assert sim.nodes[0].profile.comm == 12

    def test_raising_handler_is_booked_as_the_reference_books_it(self):
        """A handler that raises was dispatched: its invocation and the
        dispatch cycles are on the books, its unfinished ledger is not."""
        from .reference_engine import ReferenceSimulator

        def h(ctx):
            ctx.charge(instructions=10)
            raise RuntimeError("handler fault")

        books = []
        for cls in (MacroSimulator, ReferenceSimulator):
            sim = cls(2)
            sim.register("h", h)
            sim.inject(0, "h")
            with pytest.raises(RuntimeError):
                sim.run()
            books.append((sim.handler_stats["h"].invocations,
                          vars(sim.nodes[0].profile)))
        assert books[0] == books[1]
        assert books[0][0] == 1
        assert books[0][1]["comm"] == sim.config.costs.dispatch
        assert books[0][1]["compute"] == 0


class TestConfig:
    def test_custom_cpi(self):
        sim = MacroSimulator(2, config=MacroConfig(cycles_per_instruction=3.0))
        sim.register("h", lambda ctx: ctx.charge(instructions=10))
        sim.inject(0, "h")
        sim.run()
        assert sim.nodes[0].profile.compute == 30


@settings(deadline=None, max_examples=25)
@given(st.integers(1, 40), st.integers(2, 16))
def test_relay_conserves_messages(hops, n_nodes):
    """A relay chain of k hops invokes the handler exactly k+1 times."""
    sim = MacroSimulator(n_nodes)

    def relay(ctx, remaining):
        ctx.charge(instructions=5)
        if remaining:
            ctx.send((ctx.node_id + 1) % n_nodes, "relay", remaining - 1)

    sim.register("relay", relay)
    sim.inject(0, "relay", hops)
    sim.run()
    assert sim.handler_stats["relay"].invocations == hops + 1
    assert sim.messages_sent == hops + 1


class TestClockAtExit:
    """The engine pushes a task's COMPLETE event only when a message
    waits for it, so the last *processed* event is no longer the last
    completion; ``now`` and the nodes must still leave ``run`` as if
    every completion had been an event (``inject``'s default ``at`` and
    the snapshot read them).  Each scenario is also run on the
    every-completion reference."""

    @staticmethod
    def _pair(n_nodes=2):
        from .reference_engine import ReferenceSimulator

        sims = (MacroSimulator(n_nodes), ReferenceSimulator(n_nodes))
        for sim in sims:
            sim.register("work", lambda ctx, cycles: ctx.charge(cycles=cycles))
        return sims

    def test_quiescent_now_is_the_last_completion(self):
        for sim in self._pair():
            sim.inject(0, "work", 100, at=0)
            end = sim.run()
            # Nothing waited for the task, so no event marked its end.
            assert sim.now == end == sim.nodes[0].busy_until > 100
            assert not sim.nodes[0].running

    def test_run_inject_run(self):
        ends = []
        for sim in self._pair():
            sim.inject(0, "work", 100, at=0)
            first = sim.run()
            sim.inject(0, "work", 10)       # default at: sim.now
            ends.append((first, sim.run(), sim.now, sim._seq,
                         sim.nodes[0].profile.comm))
            # The second task starts after the first one's end, not at
            # the first message's arrival.
            assert ends[-1][1] > first + 10
        assert ends[0] == ends[1]

    def test_bounded_run_stops_inside_a_task(self):
        states = []
        for sim in self._pair():
            sim.inject(0, "work", 100, at=0)
            sim.inject(1, "work", 5, at=0)
            arrival = sim._events[0][0]
            end_time = sim.run(max_time=arrival + 50)
            node = sim.nodes[0]
            # Node 0's task has started and is not over; node 1's ended
            # inside the bound, and that end is where the clock stands.
            assert node.running and node.busy_until == end_time
            assert end_time > arrival + 50
            assert not sim.nodes[1].running
            assert sim.now == sim.nodes[1].busy_until < arrival + 50
            # A message injected now queues behind the running task.
            sim.inject(0, "work", 1)
            sim.run()
            assert sim.now == sim.end_time == node.busy_until
            states.append((end_time, sim.now, sim._seq,
                           node.queue_high_water))
        assert states[0] == states[1]

    def test_bound_between_an_end_and_the_next_arrival(self):
        """A completion after ``max_time`` is not processed by that run
        even when the next heap event is later still — nor by an
        observer polled at that event."""
        class EveryEvent:
            next_due = 0

            def arm(self, now):
                pass

            def poll(self, target, now, run_limit):
                pass

        for sim in self._pair():
            sim.checkpoint = EveryEvent()
            sim.inject(0, "work", 100, at=0)
            sim.inject(0, "work", 1, at=500)
            arrival = sim._events[0][0]
            sim.run(max_time=arrival + 50)
            assert sim.now == arrival and sim.nodes[0].running
            sim.run(max_time=arrival + 200)     # past the end, no event
            assert sim.now == sim.nodes[0].busy_until
            assert not sim.nodes[0].running

    def test_max_events_counts_unwaited_completions(self):
        """One event per message and one per task end, whether or not
        the end was ever pushed: the guard trips at the same count."""
        def relay(n_events):
            raised = []
            for sim in self._pair(4):
                def hop(ctx, left, sim=sim):
                    if left:
                        ctx.send((ctx.node_id + 1) % 4, "hop", left - 1)
                sim.register("hop", hop)
                sim.inject(0, "hop", 9)
                try:
                    sim.run(max_events=n_events)
                    raised.append(False)
                except SimulationError:
                    raised.append(True)
            assert raised[0] == raised[1]
            return raised[0]

        # 10 messages, 10 completions.
        assert relay(20) and not relay(21)
