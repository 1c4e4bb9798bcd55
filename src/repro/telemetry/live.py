"""In-run telemetry sampling: periodic pull-based metric snapshots.

Everything else in :mod:`repro.telemetry` is after-the-fact — a
:class:`~repro.telemetry.report.SimReport` only exists once ``run()``
returns, so a Figure-5-scale run is minutes of opaque wall clock.  This
module closes that gap: a :class:`LiveSampler` attached to a simulator
takes periodic snapshots *during* the run, polled through the run
loops' :class:`~repro.core.hooks.RunHooks` (the cycle loop's top and
the macro event loop's top), and keeps them in a bounded ring of
:class:`SamplePoint` time-series frames.  Consumers — the ``/metrics``
and ``/stream`` HTTP endpoints (:mod:`repro.telemetry.serve`) and the
``watch`` terminal dashboard (:mod:`repro.telemetry.watch`) — only ever
read that ring.

House rules, inherited from the rest of the telemetry layer:

* **Zero cost when detached.**  A run with no sampler pays the hook
  site's one integer compare per loop iteration, shared with
  checkpoints, and nothing at all per instruction.
* **Read-only when attached.**  A sample is a
  :meth:`~repro.telemetry.metrics.MetricsRegistry.snapshot` — pull
  sources over counters the subsystems maintain anyway — so a sampled
  run is bit-identical to an unsampled one (the equivalence suite
  enforces digest equality, with and without chaos).
* **Per-poll, never per-instruction.**  :meth:`SamplePolicy.due` is an
  integer comparison; the wall clock is consulted at most once per
  ``wall_stride`` polls.

Derived per-frame rates (simulated cycles per wall second, messages per
second, per-node busy-fraction deltas), progress/ETA against the run's
cycle limit, and a stall indicator fed by the deadlock watchdog's
:class:`~repro.chaos.watchdog.NodeSnapshot` machinery make the frames
directly renderable without post-processing.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Any, Deque, Dict, List, Optional, Tuple

from ..chaos.watchdog import ProgressGauge, machine_snapshots
from .metrics import MetricsRegistry

__all__ = ["SamplePolicy", "SamplePoint", "LiveSampler"]

Number = float


class SamplePolicy:
    """When to take a live sample: every N simulated cycles and/or every
    S wall-clock seconds.

    Mirrors :class:`~repro.snapshot.CheckpointPolicy`: run start (or
    the first :meth:`due` call) only arms the clocks (a sample at cycle
    0 would capture the state the caller already has), and :meth:`mark`
    re-arms both after a sample is taken.  A wall interval can pass at
    any cycle, so a policy with one asks to be polled every iteration
    (:attr:`next_due` is 0); the wall clock itself is only consulted
    every ``wall_stride`` polls, so those polls stay an integer compare.
    """

    __slots__ = ("every_cycles", "every_wall_s", "wall_stride",
                 "_armed", "_next_cycle", "_next_wall", "_wall_countdown")

    def __init__(self, every_cycles: Optional[int] = None,
                 every_wall_s: Optional[float] = None,
                 wall_stride: int = 64) -> None:
        if every_cycles is None and every_wall_s is None:
            raise ValueError(
                "a SamplePolicy needs a cycle interval, a wall-clock "
                "interval, or both")
        if every_cycles is not None and every_cycles <= 0:
            raise ValueError("sample cycle interval must be positive")
        if every_wall_s is not None and every_wall_s <= 0:
            raise ValueError("sample wall interval must be positive")
        if wall_stride <= 0:
            raise ValueError("wall_stride must be positive")
        self.every_cycles = every_cycles
        self.every_wall_s = every_wall_s
        self.wall_stride = wall_stride
        self._armed = False
        self._next_cycle: Optional[int] = None
        self._next_wall: Optional[float] = None
        self._wall_countdown = 0

    def arm(self, now: int) -> None:
        """Start the clocks at a run's first cycle (no-op once armed)."""
        if not self._armed:
            self.mark(now)

    @property
    def next_due(self) -> int:
        """Earliest simulated cycle :meth:`due` can answer True."""
        return 0 if self.every_wall_s is not None else self._next_cycle

    def due(self, now: int) -> bool:
        """Is a sample due at simulated time ``now``?  O(1)."""
        if not self._armed:
            self.mark(now)
            return False
        if self._next_cycle is not None and now >= self._next_cycle:
            return True
        if self._next_wall is not None:
            self._wall_countdown -= 1
            if self._wall_countdown <= 0:
                self._wall_countdown = self.wall_stride
                return time.monotonic() >= self._next_wall
        return False

    def mark(self, now: int) -> None:
        """(Re-)arm both clocks from simulated time ``now``."""
        self._armed = True
        if self.every_cycles is not None:
            self._next_cycle = now + self.every_cycles
        if self.every_wall_s is not None:
            self._next_wall = time.monotonic() + self.every_wall_s
            self._wall_countdown = 0


class SamplePoint:
    """One frame of the live time series.

    ``metrics`` is a flat ``{dotted-name: number}`` dict, a full
    registry snapshot; ``source`` says which loop took it (``"serial"``
    for the cycle level, ``"macro"``).  ``derived`` holds the rates
    computed against the previous retained frame:
    ``cycles_per_sec`` (simulated cycles per wall second),
    ``msgs_per_sec``, ``progress`` (0..1 against ``run_limit``, when
    known), ``eta_s``, and ``stalled`` (0/1).  ``stall`` is only
    present on stalled cycle-level frames and carries compact
    :class:`~repro.chaos.watchdog.NodeSnapshot` dicts of the implicated
    nodes.  ``fabric`` is only present when the sampled fabric has an
    observatory probe attached and carries a
    :meth:`~repro.network.observatory.FabricReport.to_dict` payload
    (per-link loads, stall split, heat-map raw material).
    """

    __slots__ = ("seq", "sim_now", "wall_s", "source", "metrics",
                 "derived", "stall", "fabric")

    def __init__(self, seq: int, sim_now: int, wall_s: float, source: str,
                 metrics: Dict[str, Number],
                 derived: Dict[str, Number],
                 stall: Optional[Dict[str, Any]] = None,
                 fabric: Optional[Dict[str, Any]] = None) -> None:
        self.seq = seq
        self.sim_now = sim_now
        self.wall_s = wall_s
        self.source = source
        self.metrics = metrics
        self.derived = derived
        self.stall = stall
        self.fabric = fabric

    def to_dict(self) -> Dict[str, Any]:
        """The JSON frame served by ``/snapshot.json`` and ``/stream``."""
        out: Dict[str, Any] = {
            "seq": self.seq,
            "sim_now": self.sim_now,
            "wall_s": self.wall_s,
            "source": self.source,
            "metrics": self.metrics,
            "derived": self.derived,
        }
        if self.stall is not None:
            out["stall"] = self.stall
        if self.fabric is not None:
            out["fabric"] = self.fabric
        return out

    @staticmethod
    def from_dict(data: Dict[str, Any]) -> "SamplePoint":
        return SamplePoint(
            seq=data["seq"], sim_now=data["sim_now"],
            wall_s=data["wall_s"], source=data.get("source", "?"),
            metrics=data.get("metrics", {}),
            derived=data.get("derived", {}),
            stall=data.get("stall"),
            fabric=data.get("fabric"),
        )


def _progress_signature(metrics: Dict[str, Number]
                        ) -> Tuple[float, float, float]:
    """The live analogue of ``JMachine.progress_signature``.

    Instructions retired anywhere, messages completed, messages
    submitted — computed from whichever of the cycle-level or
    macro-level metric names are present.  An unchanged signature
    across samples while the run is still going is the stall signal.
    """
    instructions = 0.0
    for name, value in metrics.items():
        if name.endswith(".proc.instructions") or \
                name.endswith(".profile.instructions"):
            instructions += value
    completed = metrics.get("net.completed",
                            metrics.get("macro.messages_sent", 0.0))
    submitted = metrics.get("net.submitted", 0.0)
    return (instructions, completed, submitted)


#: Metric names whose per-frame delta feeds ``msgs_per_sec``, in
#: preference order (cycle level, macro level).
_MSG_COUNTERS = ("net.completed", "macro.messages_sent")


class LiveSampler:
    """The in-run sampling rig: policy + bounded frame ring + health.

    Attach with :meth:`attach` (sets ``target.sampler``); the target's
    run loops then :meth:`poll` it at their safe points.  Frames are
    appended under a lock so the HTTP
    server and the dashboard can read them from other threads while
    the simulation is running; the simulation itself never blocks on a
    reader (appends only contend with O(1) ring reads).

    Health is self-describing: the sampler registers a ``live`` pull
    source (``live.samples``, ``live.sample_cost_us`` — the *mean*
    wall-clock microseconds per sample — and ``live.ring_dropped``) on
    the same registry it samples, so every frame and every
    :class:`~repro.telemetry.report.SimReport` shows whether the
    monitoring itself is overloaded.
    """

    def __init__(self, policy: Optional[SamplePolicy] = None,
                 ring: int = 512) -> None:
        if ring <= 0:
            raise ValueError("ring size must be positive")
        self.policy = policy if policy is not None else \
            SamplePolicy(every_cycles=10_000)
        self.points: Deque[SamplePoint] = deque(maxlen=ring)
        #: Lifetime sample count (frames taken, including ones the ring
        #: has since evicted).
        self.samples = 0
        #: Cumulative wall seconds spent inside :meth:`sample`.
        self.sample_cost_s = 0.0
        #: Frames the bounded ring has evicted (lifetime).
        self.ring_evicted = 0
        #: The run's absolute cycle limit (progress/ETA denominator).
        #: Set by the run-loop hooks when they know it; settable by the
        #: host for runs that end on quiescence (an *estimate* is fine —
        #: it only shapes the progress bar, never the simulation).
        self.run_limit: Optional[int] = None
        self._lock = threading.Lock()
        self._new_frame = threading.Condition(self._lock)
        self._registry: Optional[MetricsRegistry] = None
        self._limit_pinned = False
        self._target: Any = None
        self._wall0 = time.monotonic()
        #: Wall-clock stall detector over the frames' progress signature.
        self._progress = ProgressGauge()
        self._seq = 0

    # -- wiring --------------------------------------------------------------

    def attach(self, target, run_limit: Optional[int] = None) -> "LiveSampler":
        """Install this sampler on a machine or macro simulator.

        Uses the target's attached telemetry registry when present
        (frames then include every standard metric *plus* ``events.*``
        and ``chaos.*`` health); otherwise wires a throwaway registry
        with the standard pull sources, exactly as
        :meth:`SimReport.from_machine` does.  Returns ``self``.
        """
        telemetry = getattr(target, "telemetry", None)
        if telemetry is not None:
            registry = telemetry.registry
        else:
            registry = MetricsRegistry()
            if hasattr(target, "fabric"):
                from .wiring import register_machine_metrics

                register_machine_metrics(target, registry)
                bus = target.fabric._events
            else:
                from .wiring import register_macro_metrics

                register_macro_metrics(target, registry)
                bus = getattr(target, "_ebus", None)
            if bus is not None:
                # An event bus wired without a Telemetry rig (e.g. by a
                # chaos harness) still surfaces its health on /metrics,
                # same names as Telemetry.__init__ registers.
                registry.register_source(
                    "events",
                    lambda: {"collected": len(bus), "dropped": bus.dropped},
                )
        self._registry = registry
        self._target = target
        if run_limit is not None:
            # A host-supplied limit (often an analytic estimate for a
            # quiescence-driven run) wins over the loop-reported one,
            # which for such runs is just ``now + max_cycles``.
            self.run_limit = run_limit
            self._limit_pinned = True
        if "live" not in registry.names():
            registry.register_source("live", self._health)
        target.sampler = self
        return self

    def _health(self) -> Dict[str, Number]:
        mean_us = (self.sample_cost_s / self.samples * 1e6
                   if self.samples else 0.0)
        return {
            "samples": self.samples,
            "sample_cost_us": round(mean_us, 3),
            "ring_dropped": self.ring_evicted,
        }

    # -- the run-loop hooks --------------------------------------------------

    def arm(self, now: int) -> None:
        self.policy.arm(now)

    @property
    def next_due(self) -> int:
        return self.policy.next_due

    def poll(self, target, now: int, run_limit: Optional[int] = None) -> None:
        """The run-loop hook: take a frame of ``target`` if one is due."""
        if self.policy.due(now):
            self.sample(target, now, run_limit=run_limit)

    def sample(self, target, now: int,
               run_limit: Optional[int] = None) -> SamplePoint:
        """Take one frame from ``target`` at simulated time ``now``.

        Read-only: the frame is a registry snapshot (pull sources only)
        plus derived rates; nothing on the target is touched, so the
        simulation the sampler observes cannot diverge from an
        unobserved one.
        """
        t0 = time.perf_counter()
        if run_limit is not None and not self._limit_pinned:
            self.run_limit = run_limit
        registry = self._registry
        if registry is None:
            self.attach(target)
            registry = self._registry
        self.samples += 1
        metrics = registry.snapshot()
        fab = getattr(target, "fabric", None)
        source = "serial" if fab is not None else "macro"
        fabric = None
        if fab is not None and fab.probe is not None:
            from ..network.observatory import FabricReport

            fabric = FabricReport.from_fabric(fab, now).to_dict()
        point = self._build_point(now, metrics, source, target, fabric)
        self.sample_cost_s += time.perf_counter() - t0
        self.policy.mark(now)
        return point

    # -- frame construction --------------------------------------------------

    def _build_point(self, now: int, metrics: Dict[str, Number],
                     source: str, target,
                     fabric: Optional[Dict[str, Any]] = None) -> SamplePoint:
        wall = time.monotonic() - self._wall0
        with self._lock:
            prev = self.points[-1] if self.points else None
        derived: Dict[str, Number] = {}
        if prev is not None:
            dt = wall - prev.wall_s
            if dt > 0:
                derived["cycles_per_sec"] = round(
                    (now - prev.sim_now) / dt, 3)
                for name in _MSG_COUNTERS:
                    if name in metrics and name in prev.metrics:
                        derived["msgs_per_sec"] = round(
                            (metrics[name] - prev.metrics[name]) / dt, 3)
                        break
        limit = self.run_limit
        if limit:
            progress = min(1.0, now / limit) if limit > 0 else 0.0
            derived["run_limit"] = limit
            derived["progress"] = round(progress, 6)
            rate = derived.get("cycles_per_sec")
            if rate:
                derived["eta_s"] = round(max(0, limit - now) / rate, 3)
        stall = None
        frozen_s = self._progress.observe(_progress_signature(metrics), wall)
        derived["stalled"] = 1 if frozen_s else 0
        if frozen_s:
            derived["stalled_wall_s"] = round(frozen_s, 3)
            if hasattr(target, "fabric"):
                # Reuse the deadlock watchdog's diagnostic machinery:
                # the implicated-node snapshots are read-only and only
                # taken on already-stalled frames.
                snaps = machine_snapshots(target)
                stall = {
                    "nodes_implicated": len(snaps),
                    "nodes": [snap.to_dict() for snap in snaps[:8]],
                }
        point = SamplePoint(self._seq, now, round(wall, 6), source,
                            metrics, derived, stall, fabric)
        with self._new_frame:
            self._seq += 1
            if len(self.points) == self.points.maxlen:
                self.ring_evicted += 1
            self.points.append(point)
            self._new_frame.notify_all()
        return point

    # -- relay side (the simulation service) ---------------------------------

    def ingest(self, frame: Dict[str, Any],
               source: Optional[str] = None) -> SamplePoint:
        """Adopt a frame sampled in *another process* into this ring.

        The simulation service's workers each run their own sampler and
        relay frames to the supervisor in heartbeat messages; the
        supervisor ingests them here so the existing ``/metrics``,
        ``/snapshot.json``, and ``/stream`` endpoints serve the whole
        fleet unchanged.  The frame is re-sequenced into this ring
        (worker-local ``seq`` values from different processes would
        interleave non-monotonically); ``source`` overrides the frame's
        origin tag, e.g. with a job/worker label.
        """
        point = SamplePoint.from_dict(frame)
        if source is not None:
            point.source = source
        with self._new_frame:
            point.seq = self._seq
            self._seq += 1
            self.samples += 1
            if len(self.points) == self.points.maxlen:
                self.ring_evicted += 1
            self.points.append(point)
            self._new_frame.notify_all()
        return point

    # -- reader side (dashboard / HTTP server threads) -----------------------

    def latest(self) -> Optional[SamplePoint]:
        with self._lock:
            return self.points[-1] if self.points else None

    def frames_since(self, seq: int) -> List[SamplePoint]:
        """Every retained frame with ``point.seq > seq``, oldest first."""
        with self._lock:
            return [point for point in self.points if point.seq > seq]

    def wait_for_frame(self, seq: int, timeout: float = 1.0
                       ) -> List[SamplePoint]:
        """Block up to ``timeout`` for a frame newer than ``seq``."""
        deadline = time.monotonic() + timeout
        with self._new_frame:
            while True:
                fresh = [p for p in self.points if p.seq > seq]
                if fresh:
                    return fresh
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return []
                self._new_frame.wait(remaining)
