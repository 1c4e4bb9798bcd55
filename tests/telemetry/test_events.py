"""Unit tests for the event bus and its exporters."""

import json

import pytest

from repro.telemetry.events import EVENT_KINDS, EventBus


class TestEmit:
    def test_unknown_kind_rejected(self):
        bus = EventBus()
        with pytest.raises(ValueError):
            bus.emit("frobnicate", 0, 0)

    def test_limit_drops_and_counts(self):
        bus = EventBus(limit=3)
        for i in range(5):
            bus.emit("send", i, 0)
        assert len(bus) == 3
        assert bus.dropped == 2

    def test_clear(self):
        bus = EventBus(limit=1)
        bus.emit("send", 0, 0)
        bus.emit("send", 1, 0)
        bus.clear()
        assert len(bus) == 0 and bus.dropped == 0

    def test_all_kinds_accepted(self):
        bus = EventBus()
        for kind in EVENT_KINDS:
            bus.emit(kind, 0, 0)
        assert len(bus) == len(EVENT_KINDS)


class TestFingerprint:
    """``EventBus.fingerprint`` took over from
    ``repro.chaos.harness.event_fingerprint``; the digests below were
    computed by that function, so every recorded stream hashes as it
    always did."""

    def test_empty_stream(self):
        assert EventBus().fingerprint() == (
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855")

    def test_names_durations_traces_and_nested_args(self):
        bus = EventBus()
        bus.emit("send", 10, 0, 1, name="NxtChar", dest=3, length=3)
        bus.emit("deliver", 17, 3, name="NxtChar", source=0)
        bus.emit("task", 21, 3, 0, name="NxtChar", dur=232,
                 trace=(7, 9, 8), cats={"dispatch": 4, "compute": 228})
        bus.emit("run-end", 253, -1)
        assert bus.fingerprint() == (
            "f3c59eb47d191be500fe4170c99b16003f573dc1b3165a860ba3b8cda672af37")

    def test_arg_order_is_canonical_and_emission_order_is_not(self):
        def stream(first_args, swap=False):
            bus = EventBus()
            events = [
                lambda: bus.emit("chaos", 5, 2, name="drop", **first_args),
                lambda: bus.emit("retry", 10_005, 2, name="NxtChar",
                                 seq=0, attempt=1),
            ]
            for emit in reversed(events) if swap else events:
                emit()
            bus.emit("watchdog", 2**40, 0, 2, dur=0)
            return bus.fingerprint()

        want = "9358e713873c1e8229dfdbb3e1616eda29c036b56e888fa3691b1f514cf088da"
        assert stream({"zeta": 1, "alpha": "a", "mid": None}) == want
        assert stream({"mid": None, "zeta": 1, "alpha": "a"}) == want
        assert stream({"zeta": 1, "alpha": "a", "mid": None},
                      swap=True) != want


class TestJsonl:
    def test_roundtrip(self, tmp_path):
        bus = EventBus()
        bus.emit("dispatch", 10, 3, 1, name="handler@64", src=2)
        bus.emit("send", 12, 3, 0, dest=7, words=4)
        path = tmp_path / "events.jsonl"
        assert bus.write_jsonl(str(path)) == 2
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert lines[0] == {"ts": 10, "kind": "dispatch", "node": 3,
                            "priority": 1, "name": "handler@64", "src": 2}
        assert lines[1]["dest"] == 7 and lines[1]["words"] == 4


class TestChromeTrace:
    def test_structure(self, tmp_path):
        """The acceptance-criteria structural check: traceEvents list,
        ph/ts/pid/tid on every event."""
        bus = EventBus()
        bus.emit("dispatch", 0, 1, 0, name="h")
        bus.emit("send", 4, 1, 0, dest=2)
        bus.emit("thread-end", 9, 1, 0)
        path = tmp_path / "trace.json"
        bus.write_chrome_trace(str(path))
        trace = json.loads(path.read_text())
        assert isinstance(trace["traceEvents"], list)
        assert trace["traceEvents"]
        for event in trace["traceEvents"]:
            assert {"ph", "ts", "pid", "tid", "name"} <= set(event)

    def test_tracks_are_node_by_priority(self):
        bus = EventBus()
        bus.emit("send", 0, 3, 1)
        bus.emit("send", 0, 5, 0)
        trace = bus.to_chrome_trace()
        body = [e for e in trace["traceEvents"] if e["ph"] != "M"]
        assert {(e["pid"], e["tid"]) for e in body} == {(3, 1), (5, 0)}
        meta = [e for e in trace["traceEvents"] if e["ph"] == "M"]
        names = {(e["pid"], e["tid"], e["name"]): e["args"]["name"]
                 for e in meta}
        assert names[(3, 0, "process_name")] == "node 3"
        assert names[(3, 1, "thread_name")] == "P1"
        assert names[(5, 0, "thread_name")] == "P0"

    def test_begin_end_balanced(self):
        bus = EventBus()
        bus.emit("dispatch", 0, 0, 0, name="h")
        bus.emit("thread-end", 5, 0, 0)
        trace = bus.to_chrome_trace()
        phases = [e["ph"] for e in trace["traceEvents"] if e["ph"] != "M"]
        assert phases.count("B") == phases.count("E")

    def test_unmatched_end_demotes_to_instant(self):
        bus = EventBus()
        bus.emit("thread-end", 5, 0, 0)  # no open slice on the track
        trace = bus.to_chrome_trace()
        body = [e for e in trace["traceEvents"] if e["ph"] != "M"]
        assert body[0]["ph"] == "i"

    def test_unclosed_begin_is_terminated(self):
        bus = EventBus()
        bus.emit("dispatch", 0, 0, 0, name="h")
        bus.emit("send", 30, 0, 0)
        trace = bus.to_chrome_trace()
        body = [e for e in trace["traceEvents"] if e["ph"] != "M"]
        ends = [e for e in body if e["ph"] == "E"]
        assert len(ends) == 1
        assert ends[0]["ts"] == 30  # closed at the last timestamp

    def test_task_events_are_complete_slices(self):
        bus = EventBus()
        bus.emit("task", 10, 2, 0, name="NxtChar", dur=40)
        trace = bus.to_chrome_trace()
        body = [e for e in trace["traceEvents"] if e["ph"] != "M"]
        assert body[0]["ph"] == "X"
        assert body[0]["dur"] == 40

    def test_events_sorted_by_timestamp(self):
        bus = EventBus()
        bus.emit("send", 50, 0, 0)
        bus.emit("send", 10, 1, 0)
        trace = bus.to_chrome_trace()
        body = [e for e in trace["traceEvents"] if e["ph"] != "M"]
        assert [e["ts"] for e in body] == [10, 50]


class TestCounterTracks:
    """Perfetto counter tracks are opt-in and reconstructed offline."""

    def _loaded_bus(self):
        bus = EventBus()
        bus.emit("send", 0, 0, 0, dest=3, words=4)
        bus.emit("deliver", 10, 3, 0)
        bus.emit("deliver", 12, 3, 0)
        bus.emit("dispatch", 14, 3, 0, name="h")
        bus.emit("chaos", 20, 1, 0, name="link-outage")
        bus.emit("send", 25, 0, 0, dest=1, words=1)
        return bus

    def test_plain_trace_has_no_counters(self):
        trace = self._loaded_bus().to_chrome_trace()
        assert all(e["ph"] != "C" for e in trace["traceEvents"])

    def test_queue_depth_follows_deliver_and_dispatch(self):
        trace = self._loaded_bus().to_chrome_trace(counters=True)
        depth = [(e["ts"], e["args"]["messages"])
                 for e in trace["traceEvents"]
                 if e["ph"] == "C" and e["name"] == "queue depth"
                 and e["pid"] == 3]
        assert depth == [(10, 1), (12, 2), (14, 1)]

    def test_chaos_counter_is_cumulative_on_fabric_process(self):
        trace = self._loaded_bus().to_chrome_trace(counters=True)
        chaos = [e for e in trace["traceEvents"]
                 if e["ph"] == "C" and e["name"] == "chaos events"]
        assert [e["args"]["count"] for e in chaos] == [1]
        meta = {e["pid"]: e["args"]["name"]
                for e in trace["traceEvents"]
                if e["ph"] == "M" and e["name"] == "process_name"}
        assert meta[chaos[0]["pid"]] == "fabric"

    def test_link_tracks_replay_the_router(self):
        from repro.network.topology import Mesh3D

        trace = self._loaded_bus().to_chrome_trace(
            counters=True, mesh=Mesh3D(4, 4, 1))
        links = {}
        for e in trace["traceEvents"]:
            if e["ph"] == "C" and e["name"].startswith("link "):
                links.setdefault(e["name"], []).append(e["args"]["phits"])
        # send 0->3 (4 words = 10 phits) crosses 0.x+ 1.x+ 2.x+; the
        # later send 0->1 (1 word = 4 phits) adds to 0.x+ cumulatively.
        assert links["link 0.x+ phits"] == [10, 14]
        assert links["link 1.x+ phits"] == [10]
        assert "link 3.x+ phits" not in links

    def test_link_tracks_cap_keeps_busiest(self):
        from repro.network.topology import Mesh3D

        trace = self._loaded_bus().to_chrome_trace(
            counters=True, mesh=Mesh3D(4, 4, 1), link_tracks=1)
        names = {e["name"] for e in trace["traceEvents"]
                 if e["ph"] == "C" and e["name"].startswith("link ")}
        assert names == {"link 0.x+ phits"}
