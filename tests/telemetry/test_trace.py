"""Causal tracing: context propagation, the causal graph, critical path.

Covers the contract end to end: deterministic context allocation, span
fields on events at both simulation levels, flow events in the Perfetto
export, retransmissions re-using the original span, the offline
critical-path reconstruction, the analysis CLI, and the surfacing of
event-bus drops in snapshots and export warnings.
"""

import json

import pytest

from repro.apps.lcs import LcsParams, run_parallel
from repro.chaos import ChaosEngine, FaultPlan
from repro.machine.config import MachineConfig
from repro.machine.jmachine import JMachine
from repro.runtime.rpc import run_ping
from repro.telemetry import CausalGraph, EventBus, Telemetry, TraceState
from repro.telemetry.__main__ import main as telemetry_cli
from repro.telemetry.trace import PATH_CATEGORIES

PARAMS = LcsParams(a_len=32, b_len=64)


def _traced_lcs(n_nodes=4, params=PARAMS, **kwargs):
    telemetry = Telemetry(trace=True)
    result = run_parallel(n_nodes, params, telemetry=telemetry, **kwargs)
    return telemetry, result


class TestTraceState:
    def test_root_allocates_fresh_trace_and_span(self):
        state = TraceState()
        t1, t2 = state.root(), state.root()
        assert t1 == (1, 1, None)
        assert t2 == (2, 2, None)

    def test_child_stays_in_trace_and_records_parent(self):
        state = TraceState()
        root = state.root()
        child = state.child(root)
        grandchild = state.child(child)
        assert child == (root[0], 2, root[1])
        assert grandchild == (root[0], 3, child[1])

    def test_derive_roots_when_parentless(self):
        state = TraceState()
        assert state.derive(None)[2] is None
        root = state.root()
        assert state.derive(root)[2] == root[1]

    def test_allocation_is_deterministic(self):
        a, b = TraceState(), TraceState()
        for _ in range(5):
            assert a.root() == b.root()
        ra, rb = a.root(), b.root()
        assert a.child(ra) == b.child(rb)

    def test_requires_event_collection(self):
        with pytest.raises(ValueError):
            Telemetry(events=False, trace=True)


class TestSyntheticGraph:
    """A hand-built two-hop chain with known timings."""

    EVENTS = [
        # root span 1: injected, delivered at 5, runs 5..20
        {"ts": 0, "kind": "send", "node": 0, "priority": 0, "dest": 1,
         "trace": 1, "span": 1},
        {"ts": 5, "kind": "deliver", "node": 1, "priority": 0,
         "trace": 1, "span": 1},
        {"ts": 5, "kind": "task", "node": 1, "priority": 0, "name": "h",
         "dur": 15, "trace": 1, "span": 1,
         "cats": {"dispatch": 5, "compute": 10}},
        # child span 2: sent mid-handler at 12, wire 12..18, runs 21..30
        {"ts": 12, "kind": "send", "node": 1, "priority": 0, "dest": 2,
         "trace": 1, "span": 2, "parent": 1},
        {"ts": 18, "kind": "deliver", "node": 2, "priority": 0,
         "trace": 1, "span": 2, "parent": 1},
        {"ts": 21, "kind": "task", "node": 2, "priority": 0, "name": "h",
         "dur": 9, "trace": 1, "span": 2, "parent": 1,
         "cats": {"dispatch": 4, "compute": 5}},
        {"ts": 30, "kind": "run-end", "node": -1, "priority": 0},
    ]

    def test_graph_reconstruction(self):
        graph = CausalGraph.from_events(self.EVENTS)
        assert graph.n_spans == 2
        assert graph.n_traces == 1
        assert graph.run_end_ts == 30
        assert graph.children() == {None: [1], 1: [2]}
        assert graph.total_work() == 15 + 9
        assert not graph.validate()

    def test_critical_path_walks_both_hops(self):
        path = CausalGraph.from_events(self.EVENTS).critical_path()
        assert [s.span.span for s in path.steps] == [1, 2]
        assert path.connected and path.acyclic
        assert [s.link for s in path.steps] == ["inject", "message"]
        assert path.start == 0 and path.end == 30
        assert path.length == 30

    def test_attribution_tiles_the_path(self):
        path = CausalGraph.from_events(self.EVENTS).critical_path()
        cats = path.categories()
        assert sum(cats.values()) == pytest.approx(path.length)
        # span 1 net 0..5, exec 5..12 (scaled 7 of 15); span 2 net
        # 12..18, queue-wait 18..21 (sync), exec 21..30.
        assert cats["net"] == pytest.approx(5 + 6)
        assert cats["sync"] == pytest.approx(3)

    def test_available_parallelism(self):
        path = CausalGraph.from_events(self.EVENTS).critical_path()
        assert path.available_parallelism == pytest.approx(24 / 30)

    def test_dangling_parent_is_reported(self):
        events = [dict(self.EVENTS[3])]  # child send only
        graph = CausalGraph.from_events(events)
        assert any("parent" in p for p in graph.validate())


class TestMacroPropagation:
    def test_spans_cover_every_message(self):
        telemetry, result = _traced_lcs()
        graph = CausalGraph.from_bus(telemetry.events)
        sends = sum(1 for e in telemetry.events.iter_dicts()
                    if e["kind"] == "send")
        assert graph.n_spans == sends
        assert all("span" in e for e in telemetry.events.iter_dicts()
                   if e["kind"] in ("send", "deliver", "task"))
        assert not graph.validate()

    def test_handler_sends_are_children_of_dispatching_message(self):
        telemetry, _ = _traced_lcs()
        graph = CausalGraph.from_bus(telemetry.events)
        children = sum(1 for s in graph.spans.values()
                       if s.parent is not None)
        assert children > 0
        for span in graph.spans.values():
            if span.parent is not None:
                parent = graph.spans[span.parent]
                assert parent.trace == span.trace

    def test_critical_path_contract(self):
        telemetry, result = _traced_lcs()
        path = CausalGraph.from_bus(telemetry.events).critical_path()
        assert path.connected and path.acyclic
        assert path.steps[0].span.parent is None
        cats = path.categories()
        assert sum(cats.values()) == pytest.approx(path.length)
        assert path.length <= result.cycles
        assert 1.0 <= path.available_parallelism <= 4.0

    def test_task_category_breakdown_sums_to_duration(self):
        telemetry, _ = _traced_lcs()
        tasks = [e for e in telemetry.events.iter_dicts()
                 if e["kind"] == "task"]
        assert tasks
        for task in tasks:
            assert sum(task["cats"].values()) == task["dur"]

    def test_untraced_run_has_no_span_fields(self):
        telemetry = Telemetry()
        run_parallel(4, PARAMS, telemetry=telemetry)
        for event in telemetry.events.iter_dicts():
            assert "span" not in event and "trace" not in event


class TestCyclePropagation:
    def test_ping_spans_form_one_trace(self):
        telemetry = Telemetry(trace=True)
        machine = JMachine(MachineConfig(dims=(2, 2, 1)),
                           telemetry=telemetry)
        run_ping(machine, 0, 3, iterations=4)
        graph = CausalGraph.from_bus(telemetry.events)
        assert graph.n_traces == 1
        assert len(graph.children()[None]) == 1
        assert graph.n_spans == machine.fabric.stats.submitted
        path = graph.critical_path()
        assert path.connected and path.acyclic
        assert sum(path.categories().values()) == pytest.approx(path.length)

    def test_suspend_restart_stay_on_the_spans_thread(self):
        telemetry = Telemetry(trace=True)
        machine = JMachine(MachineConfig(dims=(2, 2, 1)),
                           telemetry=telemetry)
        run_ping(machine, 0, 3, iterations=2)
        spans = {e["span"] for e in telemetry.events.iter_dicts()
                 if "span" in e}
        for event in telemetry.events.iter_dicts():
            if event["kind"] in ("suspend", "restart", "thread-end"):
                assert event.get("span") in spans


class TestRetransmissionIdentity:
    def test_retries_reuse_the_original_span(self):
        plan = FaultPlan.message_loss(0.05, seed=20130501)
        telemetry, result = _traced_lcs(
            chaos=ChaosEngine(plan), reliable=True)
        retries = [e for e in telemetry.events.iter_dicts()
                   if e["kind"] == "retry"]
        assert retries, "plan injected no loss; test is vacuous"
        graph = CausalGraph.from_bus(telemetry.events)
        for event in retries:
            span = graph.spans[event["span"]]
            assert event["trace"] == span.trace
            assert span.retries > 0
            # The retransmitted message still got through as itself.
            assert span.start_ts is not None
        path = graph.critical_path()
        assert path.connected and path.acyclic


class TestExport:
    def test_chrome_trace_draws_flow_arrows(self):
        telemetry, _ = _traced_lcs()
        trace = telemetry.events.to_chrome_trace()
        flows = [e for e in trace["traceEvents"] if e.get("cat") == "flow"]
        phases = {e["ph"] for e in flows}
        assert {"s", "t", "f"} <= phases
        span_ids = {e["id"] for e in flows}
        starts = {e["id"] for e in flows if e["ph"] == "s"}
        assert span_ids == starts  # every flow begins at its send
        for event in flows:
            if event["ph"] == "f":
                assert event["bp"] == "e"

    def test_untraced_export_has_no_flows(self):
        telemetry = Telemetry()
        run_parallel(4, PARAMS, telemetry=telemetry)
        trace = telemetry.events.to_chrome_trace()
        assert not [e for e in trace["traceEvents"]
                    if e.get("cat") == "flow"]

    def test_jsonl_roundtrip_preserves_the_graph(self, tmp_path):
        telemetry, _ = _traced_lcs()
        path = tmp_path / "events.jsonl"
        telemetry.write_jsonl(str(path))
        direct = CausalGraph.from_bus(telemetry.events)
        loaded = CausalGraph.from_jsonl(str(path))
        assert loaded.n_spans == direct.n_spans
        assert loaded.critical_path().length == \
            direct.critical_path().length

    def test_cli_reports_critical_path(self, tmp_path, capsys):
        telemetry, _ = _traced_lcs()
        events = tmp_path / "events.jsonl"
        telemetry.write_jsonl(str(events))
        rc = telemetry_cli(["critical-path", str(events), "--steps", "3"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "critical path:" in out
        assert "available parallelism:" in out
        for category in PATH_CATEGORIES:
            assert category in out

    def test_cli_rejects_untraced_stream(self, tmp_path, capsys):
        telemetry = Telemetry()
        run_parallel(2, PARAMS, telemetry=telemetry)
        events = tmp_path / "events.jsonl"
        telemetry.write_jsonl(str(events))
        assert telemetry_cli(["critical-path", str(events)]) == 1
        assert "Telemetry(trace=True)" in capsys.readouterr().out


class TestDroppedEvents:
    def test_drops_surface_in_snapshots(self):
        telemetry = Telemetry(event_limit=10, trace=True)
        run_parallel(2, PARAMS, telemetry=telemetry)
        snap = telemetry.registry.snapshot()
        assert snap["events.collected"] == 10
        assert snap["events.dropped"] == telemetry.events.dropped > 0

    def test_truncated_export_warns(self, tmp_path):
        bus = EventBus(limit=2)
        for ts in range(4):
            bus.emit("send", ts, 0, dest=1)
        with pytest.warns(RuntimeWarning, match="dropped 2 events"):
            bus.write_jsonl(str(tmp_path / "events.jsonl"))
        with pytest.warns(RuntimeWarning, match="truncated"):
            bus.write_chrome_trace(str(tmp_path / "trace.json"))

    def test_complete_export_does_not_warn(self, tmp_path):
        bus = EventBus(limit=100)
        bus.emit("send", 0, 0, dest=1)
        import warnings
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            bus.write_jsonl(str(tmp_path / "events.jsonl"))

    def test_jsonl_line_is_valid_json_with_span_fields(self, tmp_path):
        telemetry, _ = _traced_lcs(n_nodes=2)
        path = tmp_path / "events.jsonl"
        telemetry.write_jsonl(str(path))
        first_send = next(
            line for line in path.read_text().splitlines()
            if json.loads(line)["kind"] == "send")
        record = json.loads(first_send)
        assert {"trace", "span"} <= set(record)
