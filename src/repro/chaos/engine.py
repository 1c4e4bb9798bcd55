"""The fault injector: deterministic chaos threaded through both levels.

A :class:`ChaosEngine` is built from a :class:`~repro.chaos.plan.FaultPlan`
and attached to a simulator:

* ``engine.attach_machine(machine)`` arms the cycle level — link outages
  and flit drop/corruption in the fabric, node stalls and fail-stop
  kills in the machine's scheduler, queue-space pressure and AMT
  poisoning on a cycle schedule;
* ``engine.attach_macro(sim)`` arms the macro level — per-message drop
  and delay in :meth:`MacroSimulator.post`.

Design rules:

* **Deterministic.**  Every random decision comes from a named stream of
  the plan's seed (:meth:`FaultPlan.rng`); the simulators are themselves
  deterministic, so the same (plan, workload) pair reproduces the same
  faults, the same recovery, and the same telemetry event stream.
* **Zero-cost when absent.**  Simulators hold ``chaos = None`` and every
  injection site is behind an ``is None`` guard; with no engine attached
  the instruction streams are bit-identical to a build without this
  module (enforced in tests/test_fastpath_equivalence.py).
* **One run loop.**  The cycle schedule is a run-loop observer
  (:mod:`repro.core.hooks`) whose ``next_due`` bounds every run-ahead;
  otherwise a chaos run takes the plain run's path.
* **Observable.**  Every injected fault increments a ``chaos.*`` counter,
  lands in the engine's own bounded :attr:`log`, and — when telemetry is
  wired — emits a ``chaos`` event that renders on the Perfetto timeline
  alongside the traffic it perturbed.
"""

from __future__ import annotations

import sys
from typing import Any, Dict, List, Optional, Tuple

from ..network.routing import decode_key
from .plan import FaultPlan, FaultSpec

__all__ = ["ChaosEngine"]

#: Verdicts returned by :meth:`ChaosEngine.fabric_verdict`.
OK, DROP, CORRUPT = 0, 1, 2

#: Engine counter names (fixed so the ``chaos`` metrics source has a
#: stable schema even before any fault fires).
COUNTER_NAMES = (
    "drops", "corruptions", "delays", "link_blocks", "stalls", "kills",
    "blackholes", "queue_pressure", "poisoned_entries", "checksum_rejects",
    "retries", "give_ups",
)


#: Entries the fault log keeps; later faults are still counted.
LOG_LIMIT = 100_000

#: The machine schedule's last entry: due at no cycle.
NEVER_DUE = (sys.maxsize, None)


class ChaosEngine:
    """Injects a :class:`FaultPlan` into a machine or macro simulator."""

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self.counters: Dict[str, int] = {name: 0 for name in COUNTER_NAMES}
        #: Bounded structured log of every injected fault, for replay
        #: diffing: (cycle, kind, node, detail) tuples in injection order.
        self.log: List[Tuple[int, str, int, Any]] = []
        self._events = None  # telemetry EventBus, when bound

        # Rate-driven specs, split by level.
        self.fabric_rate_specs: List[FaultSpec] = plan.by_kind(
            "drop", "corrupt")
        self._macro_rate_specs: List[FaultSpec] = plan.by_kind(
            "drop", "delay")
        self._fabric_rng = plan.rng("fabric")
        self._macro_rng = plan.rng("macro")
        self._schedule_rng = plan.rng("schedule")

        # Scheduled windows, indexed per node for O(1)-ish lookup.
        self._link_windows: Dict[int, List[Tuple[int, Optional[int]]]] = {}
        for spec in plan.by_kind("link"):
            self._link_windows.setdefault(spec.node, []).append(
                (spec.start, spec.stop))
        self._stall_windows: Dict[int, List[Tuple[int, int]]] = {}
        for spec in plan.by_kind("stall"):
            self._stall_windows.setdefault(spec.node, []).append(
                (spec.start, spec.start + spec.duration))
        self._kill_at: Dict[int, int] = {}
        for spec in plan.by_kind("kill"):
            prev = self._kill_at.get(spec.node)
            if prev is None or spec.start < prev:
                self._kill_at[spec.node] = spec.start
        #: Every cycle at which the engine changes what a node sees, as
        #: (cycle, action) sorted ascending and drained by :meth:`poll`,
        #: closed by a never-due sentinel.
        self._machine_schedule: List[Tuple[int, Any]] = [NEVER_DUE]
        self._schedule_pos = 0
        self._stall_recorded: set = set()
        self._kill_recorded: set = set()
        #: The attached machine's worms-per-destination counts
        #: (``JMachine._inbound``): a dropped worm leaves them.
        self._inbound: Optional[List[int]] = None

    # ------------------------------------------------------------ observation

    def record(self, kind: str, now: int, node: int, counter: str,
               amount: int = 1, **detail: Any) -> None:
        """Count one injected fault and log/emit it."""
        self.counters[counter] += amount
        if len(self.log) < LOG_LIMIT:
            self.log.append((int(now), kind, node,
                             tuple(sorted(detail.items())) or None))
        if self._events is not None:
            self._events.emit("chaos", now, node, name=kind, **detail)

    def bind_telemetry(self, telemetry) -> None:
        """Publish ``chaos.*`` metrics and chaos events on a rig."""
        if telemetry is None:
            return
        telemetry.registry.register_source(
            "chaos", lambda: dict(self.counters))
        if telemetry.events is not None:
            self._events = telemetry.events

    # ------------------------------------------------------------- attachment

    def attach_machine(self, machine) -> "ChaosEngine":
        """Arm the cycle level: fabric, scheduler, queues, and AMTs."""
        machine.chaos = self
        machine.fabric.chaos = self
        self._inbound = machine._inbound
        self._build_machine_schedule(machine)
        self.bind_telemetry(machine.telemetry)
        return self

    def attach_macro(self, sim) -> "ChaosEngine":
        """Arm the macro level: per-message drop/delay in ``post``."""
        sim._chaos = self
        self.bind_telemetry(sim.telemetry)
        return self

    def _build_machine_schedule(self, machine) -> None:
        actions: List[Tuple[int, Any]] = []
        for spec in self.plan.by_kind("queue"):
            node = machine.nodes[spec.node]

            def press(now, node=node, words=spec.words):
                for queue in node.proc.queues.values():
                    queue.pressure_words = max(queue.pressure_words, words)
                self.record("queue-pressure", now, node.node_id,
                            "queue_pressure", words=words)

            actions.append((spec.start, press))
            if spec.stop is not None:

                def release(now, node=node):
                    for queue in node.proc.queues.values():
                        queue.pressure_words = 0

                actions.append((spec.stop, release))
        for spec in self.plan.by_kind("poison"):
            node = machine.nodes[spec.node]

            def poison(now, node=node, fraction=spec.rate or 1.0):
                evicted = node.proc.amt.poison(self._schedule_rng, fraction)
                self.record("amt-poison", now, node.node_id,
                            "poisoned_entries", amount=evicted,
                            evicted=evicted)

            actions.append((spec.start, poison))
        # Stalls and kills act when the node is popped; their first
        # cycles are entries with no action only so that no block runs
        # past them.
        for windows in self._stall_windows.values():
            actions += [(start, None) for start, _ in windows]
        actions += [(kill_at, None) for kill_at in self._kill_at.values()]
        actions.sort(key=lambda item: item[0])
        self._machine_schedule = actions + [NEVER_DUE]
        self._schedule_pos = 0

    # -------------------------------------------------------- cycle-level hooks

    def arm(self, now: int) -> None:
        """Run start: due at the first undrained entry."""
        self.next_due = self._machine_schedule[self._schedule_pos][0]

    def poll(self, target, now: int, run_limit: Optional[int] = None) -> None:
        """Apply every scheduled action whose cycle has been reached."""
        schedule = self._machine_schedule
        while self.next_due <= now:
            action = schedule[self._schedule_pos][1]
            if action is not None:
                action(now)
            self._schedule_pos += 1
            self.arm(now)

    def link_blocked(self, key: int, now: int) -> bool:
        """True if the owning router of channel ``key`` (a fabric key,
        :func:`~repro.network.routing.decode_key`) is down this cycle."""
        windows = self._link_windows.get(decode_key(key)[0])
        if windows is None:
            return False
        for start, stop in windows:
            if now >= start and (stop is None or now < stop):
                self.counters["link_blocks"] += 1
                return True
        return False

    def node_killed(self, node_id: int, now: int) -> bool:
        """True once ``node_id`` has fail-stopped."""
        kill_at = self._kill_at.get(node_id)
        if kill_at is None or now < kill_at:
            return False
        if node_id not in self._kill_recorded:
            self._kill_recorded.add(node_id)
            self.record("kill", now, node_id, "kills")
        return True

    def node_stall_until(self, node_id: int, now: int) -> int:
        """End cycle of an active stall on ``node_id``, or ``now``."""
        windows = self._stall_windows.get(node_id)
        if windows is None:
            return now
        for start, end in windows:
            if start <= now < end:
                if (node_id, start) not in self._stall_recorded:
                    self._stall_recorded.add((node_id, start))
                    self.record("stall", now, node_id, "stalls",
                                until=end)
                return end
        return now

    def blackhole(self, message, now: int) -> None:
        """A delivery to a dead node was destroyed."""
        self.record("blackhole", now, message.dest, "blackholes",
                    src=message.source)

    def fabric_verdict(self, message, now: int) -> int:
        """Decide one arriving worm's fate: OK, DROP, or CORRUPT."""
        rng = self._fabric_rng.random
        for spec in self.fabric_rate_specs:
            if not spec.active(now):
                continue
            if spec.node is not None and spec.node != message.dest:
                continue
            if rng() < spec.rate:
                if spec.kind == "drop":
                    self.record("drop", now, message.dest, "drops",
                                src=message.source)
                    if self._inbound is not None:
                        self._inbound[message.dest] -= 1
                    return DROP
                self.record("corrupt", now, message.dest, "corruptions",
                            src=message.source)
                return CORRUPT
        return OK

    # -------------------------------------------------------- macro-level hook

    def macro_verdict(self, source: int, dest: int, handler: str,
                      length: int, now: int) -> Tuple[bool, int]:
        """(drop?, extra_delay) for one macro-level message."""
        rng = self._macro_rng.random
        extra = 0
        for spec in self._macro_rate_specs:
            if not spec.active(now):
                continue
            if spec.node is not None and spec.node != dest:
                continue
            if rng() < spec.rate:
                if spec.kind == "drop":
                    self.record("drop", now, dest, "drops",
                                src=source, handler=handler)
                    return True, 0
                extra += spec.delay
                self.record("delay", now, dest, "delays",
                            src=source, cycles=spec.delay)
        return False, extra

    # ------------------------------------------------------ snapshot contract

    #: Attributes re-derived from the plan by ``__init__`` /
    #: ``attach_*`` rather than captured: the rate-spec lists, the
    #: window/kill indexes, the schedule closures (which close over live
    #: node objects), and the telemetry binding; ``next_due`` is
    #: re-derived from the position by :meth:`arm` at run start.
    DERIVED_ATTRS = frozenset({
        "plan", "_events", "fabric_rate_specs", "_macro_rate_specs",
        "_link_windows", "_stall_windows", "_kill_at", "_machine_schedule",
        "_inbound", "next_due",
    })

    def state_dict(self) -> dict:
        """Everything needed to resume injection mid-plan, picklable.

        The RNG streams are captured as ``random.Random.getstate()``
        tuples — the named-stream *positions*, which is what makes a
        resumed chaos run replay the exact same drop/corrupt decisions
        as the uninterrupted one.
        """
        return {
            "plan": self.plan.to_dict(),
            "counters": dict(self.counters),
            "log": list(self.log),
            "fabric_rng": self._fabric_rng.getstate(),
            "macro_rng": self._macro_rng.getstate(),
            "schedule_rng": self._schedule_rng.getstate(),
            "schedule_pos": self._schedule_pos,
            "stall_recorded": set(self._stall_recorded),
            "kill_recorded": set(self._kill_recorded),
        }

    def load_state(self, state: dict) -> None:
        """Resume a :meth:`state_dict` capture on this engine.

        Call *after* ``attach_machine``/``attach_macro``: attachment
        rebuilds the schedule closures over the restored nodes and
        resets ``_schedule_pos``, which this method then overwrites with
        the captured position so already-applied one-shot actions do not
        fire twice.
        """
        if state["plan"] != self.plan.to_dict():
            from ..core.errors import SnapshotError

            raise SnapshotError(
                "chaos state was captured under a different fault plan")
        self.counters = dict(state["counters"])
        self.log = list(state["log"])
        self._fabric_rng.setstate(state["fabric_rng"])
        self._macro_rng.setstate(state["macro_rng"])
        self._schedule_rng.setstate(state["schedule_rng"])
        self._schedule_pos = state["schedule_pos"]
        self._stall_recorded = set(state["stall_recorded"])
        self._kill_recorded = set(state["kill_recorded"])

    # ------------------------------------------------------------- summaries

    def summary(self) -> Dict[str, int]:
        """Non-zero counters, for reports and the replay CLI, and the
        scheduled actions not yet applied (docs/ROBUSTNESS.md)."""
        out = {k: v for k, v in self.counters.items() if v}
        unapplied = sum(action is not None for _, action in
                        self._machine_schedule[self._schedule_pos:])
        return out | {"unapplied": unapplied} if unapplied else out

    def __repr__(self) -> str:
        active = ", ".join(f"{k}={v}" for k, v in self.summary().items())
        return (f"ChaosEngine(plan={self.plan.name!r}, "
                f"seed={self.plan.seed}, {active or 'no faults yet'})")
