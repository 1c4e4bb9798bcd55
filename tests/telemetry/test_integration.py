"""Telemetry wired into real simulations (cycle-level and macro).

These tests exercise the full path the ISSUE specifies: a ``Telemetry``
object attached at machine construction, metrics pulled from live
subsystem counters at snapshot time, events emitted from the hot paths,
and the Chrome-trace export validated structurally on a *real* run.
"""

import json

import pytest

from repro.apps.lcs import LcsParams, run_parallel
from repro.asm.assembler import assemble
from repro.core.amt import AssociativeMatchTable
from repro.machine.config import MachineConfig
from repro.machine.jmachine import JMachine
from repro.runtime.rpc import run_ping
from repro.telemetry import SimReport, Telemetry


def _ping_machine(telemetry):
    machine = JMachine(MachineConfig(dims=(2, 2, 1)), telemetry=telemetry)
    run_ping(machine, 0, 3, iterations=4)
    return machine


class TestMachineIntegration:
    def test_metrics_cover_every_subsystem(self):
        telemetry = Telemetry()
        machine = _ping_machine(telemetry)
        snap = telemetry.registry.snapshot()
        assert snap["machine.cycles"] == machine.now
        assert snap["machine.nodes"] == 4
        assert snap["node.0.proc.instructions"] > 0
        assert snap["node.0.queue.p0.enqueued"] > 0
        assert "node.3.amt.hits" in snap
        assert snap["net.submitted"] == machine.fabric.stats.submitted
        assert snap["net.latency.count"] == machine.fabric.stats.submitted

    def test_probed_snapshot_matches_fabric_metrics_schema(self):
        """The wiring emits exactly the FABRIC_METRICS names: the
        scalar families appear on probed runs, the histogram expands
        like every LatencySummary, and un-probed snapshots carry none
        of them."""
        from repro.network.observatory import FABRIC_METRICS

        scalar = {f"{prefix}.{leaf}"
                  for prefix, leaves, kind, _unit in FABRIC_METRICS
                  if kind != "histogram" for leaf in leaves}
        telemetry = Telemetry()
        machine = JMachine(MachineConfig(dims=(2, 2, 1), fabric_probe=True),
                           telemetry=telemetry)
        run_ping(machine, 0, 3, iterations=4)
        snap = telemetry.registry.snapshot()
        families = {name for name in snap
                    if name.startswith(("net.link.", "net.stall.",
                                        "net.dim."))}
        assert families == scalar
        assert snap["net.link.phits"] > 0
        assert snap["net.router.inject_queue.count"] > 0
        bare = Telemetry()
        _ping_machine(bare)
        assert not any(name.startswith(("net.link.", "net.stall.",
                                        "net.dim.", "net.router."))
                       for name in bare.registry.snapshot())

    def test_events_match_fabric_counters(self):
        telemetry = Telemetry()
        machine = _ping_machine(telemetry)
        kinds = {}
        for event in telemetry.events.iter_dicts():
            kinds[event["kind"]] = kinds.get(event["kind"], 0) + 1
        assert kinds["send"] == machine.fabric.stats.submitted
        assert kinds["deliver"] == machine.fabric.stats.completed
        assert kinds["dispatch"] > 0
        assert kinds["run-end"] == 1

    def test_chrome_trace_of_real_run_is_structural(self, tmp_path):
        """Acceptance criterion: the exported trace of a real cycle-level
        run is a Perfetto-loadable traceEvents document."""
        telemetry = Telemetry()
        _ping_machine(telemetry)
        path = tmp_path / "trace.json"
        telemetry.write_chrome_trace(str(path))
        trace = json.loads(path.read_text())
        assert isinstance(trace["traceEvents"], list)
        assert trace["traceEvents"]
        for event in trace["traceEvents"]:
            assert {"ph", "ts", "pid", "tid", "name"} <= set(event)
        body = [e for e in trace["traceEvents"] if e["ph"] != "M"]
        assert body == sorted(body, key=lambda e: e["ts"])

    def test_report_totals_and_save(self, tmp_path):
        telemetry = Telemetry()
        machine = _ping_machine(telemetry)
        report = machine.report()
        assert report.meta["kind"] == "machine"
        assert report.meta["cycles"] == machine.now
        assert report.total("proc.instructions") == \
            machine.total_instructions()
        path = tmp_path / "run.json"
        report.save(str(path))
        assert SimReport.load(str(path)).metrics == report.metrics

    def test_metrics_only_mode(self):
        telemetry = Telemetry(events=False)
        machine = _ping_machine(telemetry)
        assert telemetry.events is None
        assert machine.report().total("proc.instructions") > 0
        with pytest.raises(ValueError):
            telemetry.write_jsonl("unused.jsonl")

    def test_report_without_telemetry_attached(self):
        machine = JMachine(MachineConfig(dims=(2, 1, 1)))
        run_ping(machine, 0, 1, iterations=2)
        report = machine.report()
        assert report.total("proc.instructions") == \
            machine.total_instructions()


class TestFaultEvents:
    BLAST = """
    blast:
        MOVE  [A0+0], R2
    loop:
        SEND  #1
        SEND2E #IP:slow, R2
        SUB   R2, #1, R2
        BT    R2, loop
        HALT

    slow:
        MOVE #12, R1
    spin:
        SUB  R1, #1, R1
        BT   R1, spin
        SUSPEND
    """

    def test_queue_overflow_events_match_spill_counter(self):
        from repro.core.registers import Priority
        from repro.core.word import Word

        telemetry = Telemetry()
        machine = JMachine(MachineConfig(dims=(2, 1, 1), queue_words=16,
                                         send_buffer_words=64,
                                         queue_overflow_spills=True),
                           telemetry=telemetry)
        program = assemble(self.BLAST)
        machine.load(program)
        base = program.end + 4
        sender = machine.node(0).proc
        sender.registers[Priority.BACKGROUND].write(
            "A0", Word.segment(base, 4))
        sender.memory.poke(base, Word.from_int(40))
        machine.start_background(0, program.entry("blast"))
        machine.run(max_cycles=200_000)
        receiver = machine.node(1).proc
        assert receiver.counters.spills > 0
        overflows = [e for e in telemetry.events.iter_dicts()
                     if e["kind"] == "queue-overflow"]
        assert len(overflows) == receiver.counters.spills
        assert all(e["node"] == 1 for e in overflows)

    def test_xlate_fault_event_emitted_on_amt_miss(self):
        telemetry = Telemetry()
        machine = JMachine(MachineConfig(dims=(1, 1, 1)),
                           telemetry=telemetry)
        # A one-entry AMT: the second ENTER evicts the first binding, so
        # the XLATE takes a miss fault and reloads from the backing map.
        proc = machine.node(0).proc
        proc.amt = AssociativeMatchTable(sets=1, ways=1)
        program = assemble("""
        handler:
            ENTER #500, A1
            ENTER #501, A1
            XLATE #500, A1
            SUSPEND
        """)
        machine.load(program)
        machine.inject(0, program.entry("handler"))
        machine.run(max_cycles=5_000)
        assert proc.amt.misses == 1
        faults = [e for e in telemetry.events.iter_dicts()
                  if e["kind"] == "xlate-fault"]
        assert len(faults) == 1
        assert faults[0]["node"] == 0
        assert "500" in faults[0]["key"]
        assert telemetry.registry.snapshot()["node.0.amt.misses"] == 1


class TestMacroIntegration:
    PARAMS = LcsParams(a_len=32, b_len=64)

    def test_metrics_and_handler_stats(self):
        telemetry = Telemetry()
        result = run_parallel(4, self.PARAMS, telemetry=telemetry)
        sim = result.sim
        snap = telemetry.registry.snapshot()
        assert snap["macro.cycles"] == result.cycles
        assert snap["macro.nodes"] == 4
        assert snap["handler.NxtChar.invocations"] == \
            result.handler_stats["NxtChar"].invocations
        assert snap["node.0.profile.compute"] == \
            sim.nodes[0].profile.compute

    def test_report_top_ranks_handlers(self):
        telemetry = Telemetry()
        result = run_parallel(4, self.PARAMS, telemetry=telemetry)
        report = result.sim.report()
        top = report.top("handler.", ".cycles", 2)
        assert top[0][0] == "NxtChar"
        assert top[0][1] > top[1][1]

    def test_task_events_become_complete_slices(self):
        telemetry = Telemetry()
        run_parallel(4, self.PARAMS, telemetry=telemetry)
        trace = telemetry.events.to_chrome_trace()
        tasks = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        assert tasks
        assert all(e["dur"] >= 0 for e in tasks)
        assert {"NxtChar", "StartUp"} <= {e["name"] for e in tasks}

    def test_send_and_deliver_events_paired(self):
        telemetry = Telemetry()
        run_parallel(4, self.PARAMS, telemetry=telemetry)
        kinds = {}
        for event in telemetry.events.iter_dicts():
            kinds[event["kind"]] = kinds.get(event["kind"], 0) + 1
        assert kinds["send"] == kinds["deliver"]
