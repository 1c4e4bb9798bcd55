"""Tests for the critique-driven extensions: CYCLE, spill, RTS, fairness."""

import pytest

from repro.core.errors import QueueOverflowFault
from repro.core.message import Message
from repro.core.processor import Mdp
from repro.core.registers import Priority
from repro.core.word import Word

from tests.util import load_processor, run_background


class TestCycleCounter:
    def test_cycle_reads_current_time(self):
        proc, program = load_processor("""
        start:
            NOP
            NOP
            CYCLE R0
            HALT
        """)
        run_background(proc, program.entry("start"))
        # Two NOPs have retired (2 cycles) when CYCLE executes.
        assert proc.registers[Priority.BACKGROUND].read("R0").value == 2

    def test_cycle_pair_measures_interval(self):
        proc, program = load_processor("""
        start:
            CYCLE R0
            ADD R1, R2, R3
            MUL R1, R2, R3
            CYCLE R1
            SUB R1, R0, R2
            HALT
        """)
        run_background(proc, program.entry("start"))
        # ADD (1) + MUL (2) + the first CYCLE itself (1) = 4.
        assert proc.registers[Priority.BACKGROUND].read("R2").value == 4


class TestSpillMode:
    def _proc_with_tiny_queue(self, spill):
        proc, program = load_processor("""
        handler:
            SUSPEND
        """)
        proc.queues[Priority.P0].capacity_words = 4
        proc.spill_enabled = spill
        return proc, program

    def test_backpressure_mode_refuses(self):
        proc, program = self._proc_with_tiny_queue(spill=False)
        first = Message.build(program.entry("handler"), [], 0, 0)
        proc.deliver(first, 0)
        second = Message.build(program.entry("handler"), [], 0, 0)
        assert not proc.queues[Priority.P0].would_fit(second)
        with pytest.raises(QueueOverflowFault):
            proc.deliver(second, 0)

    def test_spill_mode_always_accepts(self):
        proc, program = self._proc_with_tiny_queue(spill=True)
        for _ in range(5):
            proc.deliver(Message.build(program.entry("handler"), [], 0, 0), 0)
        assert len(proc.queues[Priority.P0]) == 1
        assert proc.counters.spills == 4

    def test_spilled_messages_eventually_run(self):
        proc, program = self._proc_with_tiny_queue(spill=True)
        for _ in range(5):
            proc.deliver(Message.build(program.entry("handler"), [], 0, 0), 0)
        now = 0
        while proc.has_work() and now < 10_000:
            nxt = proc.tick(now)
            if nxt is None:
                break
            now = nxt
        assert proc.counters.threads_completed == 5

    def test_spill_charges_fault_cycles(self):
        proc, program = self._proc_with_tiny_queue(spill=True)
        for _ in range(3):
            proc.deliver(Message.build(program.entry("handler"), [], 0, 0), 0)
        now = 0
        while proc.has_work() and now < 10_000:
            nxt = proc.tick(now)
            if nxt is None:
                break
            now = nxt
        assert proc.counters.fault_cycles >= \
            2 * proc.costs.queue_overflow_per_msg


class TestReturnToSender:
    def _fabric(self, flow_control):
        from repro.network.fabric import Fabric
        from repro.network.topology import Mesh3D

        state = {"accepting": False, "delivered": []}

        def accept(node, message):
            return state["accepting"]

        def deliver(node, message, now):
            state["delivered"].append((node, now))

        fabric = Fabric(Mesh3D(4, 1, 1), accept, deliver,
                        flow_control=flow_control)
        return fabric, state

    def _message(self, src=0, dst=3):
        return Message([Word.ip(1), Word.from_int(0)], source=src, dest=dst)

    def test_bounced_message_retries_until_accepted(self):
        fabric, state = self._fabric("return_to_sender")
        fabric.send(self._message(), 0)
        for now in range(120):
            fabric.step(now)
        assert fabric.stats.bounces >= 1
        assert not state["delivered"]
        state["accepting"] = True
        for now in range(120, 400):
            fabric.step(now)
            if state["delivered"]:
                break
        assert state["delivered"]

    def test_rts_frees_channels_while_refused(self):
        """Unlike blocking, RTS lets other traffic through a busy path."""
        fabric, state = self._fabric("return_to_sender")

        delivered_to_2 = []
        original_deliver = fabric.deliver_fn

        def deliver(node, message, now):
            if node == 2:
                delivered_to_2.append(now)
            original_deliver(node, message, now)

        def accept(node, message):
            return node == 2  # node 3 keeps refusing

        fabric.accept_fn = accept
        fabric.deliver_fn = deliver
        fabric.send(self._message(0, 3), 0)   # will bounce forever
        fabric.send(self._message(0, 2), 0)   # must still get through
        for now in range(400):
            fabric.step(now)
            if delivered_to_2:
                break
        assert delivered_to_2

    def test_blocking_mode_never_bounces(self):
        fabric, state = self._fabric("block")
        fabric.send(self._message(), 0)
        for now in range(100):
            fabric.step(now)
        assert fabric.stats.bounces == 0
        assert fabric.active  # stalled in place

    def test_unknown_flow_control_rejected(self):
        from repro.core.errors import ConfigurationError
        with pytest.raises(ConfigurationError):
            self._fabric("carrier_pigeon")


class TestArbitration:
    def _hotspot(self, arbitration, sources=6, per_source=15):
        """Many sources streaming to one sink; count completions."""
        from repro.network.fabric import Fabric
        from repro.network.topology import Mesh3D

        done = {s: 0 for s in range(1, sources + 1)}

        def deliver(node, message, now):
            done[message.source] += 1

        fabric = Fabric(Mesh3D(8, 1, 1), lambda n, m: True, deliver,
                        arbitration=arbitration)
        for source in range(1, sources + 1):
            for _ in range(per_source):
                fabric.send(Message([Word.ip(1)] + [Word.from_int(0)] * 3,
                                    source=source, dest=0), 0)
        now = 0
        while fabric.active and now < 50_000:
            fabric.step(now)
            now += 1
        return done

    def test_both_modes_deliver_everything(self):
        for mode in ("fixed", "round_robin"):
            done = self._hotspot(mode)
            assert all(count == 15 for count in done.values()), mode

    def test_unknown_arbitration_rejected(self):
        from repro.core.errors import ConfigurationError
        from repro.network.fabric import Fabric
        from repro.network.topology import Mesh3D
        with pytest.raises(ConfigurationError):
            Fabric(Mesh3D(2, 1, 1), lambda n, m: True,
                   lambda n, m, t: None, arbitration="coin_flip")


class TestRtsBufferAccounting:
    def test_on_injected_fires_once_despite_bounces(self):
        """A bounced-and-retried message must report injection complete
        exactly once, or the sender's buffer accounting double-frees."""
        from repro.network.fabric import Fabric
        from repro.network.topology import Mesh3D

        reports = []
        state = {"accepting": False}
        fabric = Fabric(Mesh3D(4, 1, 1), lambda n, m: state["accepting"],
                        lambda n, m, t: None,
                        flow_control="return_to_sender")
        fabric.on_injected = reports.append
        message = Message.build(1, [Word.from_int(0)], source=0, dest=3)
        fabric.send(message, 0)
        for now in range(150):
            fabric.step(now)
        assert fabric.stats.bounces >= 1
        state["accepting"] = True
        now = 150
        while fabric.active and now < 1000:
            fabric.step(now)
            now += 1
        assert reports.count(message) == 1

    def test_bounce_worms_do_not_report_injection(self):
        """The carrier worm going back to the sender is the fabric's own
        traffic; the refusing node's interface must not be credited."""
        from repro.network.fabric import Fabric
        from repro.network.topology import Mesh3D

        reports = []
        state = {"accepting": False}
        fabric = Fabric(Mesh3D(4, 1, 1), lambda n, m: state["accepting"],
                        lambda n, m, t: None,
                        flow_control="return_to_sender")
        fabric.on_injected = reports.append
        message = Message.build(1, [Word.from_int(0)], source=0, dest=3)
        fabric.send(message, 0)
        for now in range(500):
            fabric.step(now)
        assert fabric.stats.bounces >= 2
        state["accepting"] = True
        now = 500
        while fabric.active and now < 2000:
            fabric.step(now)
            now += 1
        # Only the original message ever reports — never the bounce
        # carriers — and only once despite the retries.
        assert reports == [message]
