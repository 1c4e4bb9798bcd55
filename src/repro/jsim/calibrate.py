"""Fit the macro latency model against flit-level fabric measurements.

The macro simulator's :class:`~repro.jsim.netmodel.LatencyModel` charges
``contention_scale * u / (1 - u)`` cycles of queueing to messages that
cross the X midplane.  The scale was hand-tuned; this module *measures*
it instead, closing the loop between the two simulation levels:

1. Run the Figure 3 random-traffic experiment on the exact flit-level
   fabric at several offered-load points (``idle_cycles`` sweeps load),
   with a :class:`~repro.network.observatory.FabricProbe` attached.
2. From each run's :class:`~repro.network.observatory.FabricReport`,
   read the *observed* midplane utilization ``u`` and the mean e-cube
   hop count; from the experiment itself, the measured one-way latency.
3. The distance + streaming part of each latency is known exactly
   (``interface + hop * hops + phits_per_word * words``), so the
   leftover is the contention the model must reproduce.  A closed-form
   least-squares fit of ``residual = scale * u/(1-u)`` through the
   origin yields the calibrated scale — no optimizer, no new deps.

:func:`calibrate` returns a :class:`CalibrationResult` whose
:meth:`~CalibrationResult.format` prints the model-vs-measured residual
at every load point before and after the fit, and whose
:meth:`~CalibrationResult.apply` installs the fitted parameters on a
live :class:`~repro.jsim.netmodel.LatencyModel`.  Exposed on the CLI as
``python -m repro.telemetry fabric --calibrate``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..network.observatory import FabricReport
from ..network.topology import Mesh3D
from ..network.traffic import RandomTrafficExperiment
from .netmodel import (CONTENTION_CAP, CONTENTION_SCALE, INTERFACE_CYCLES,
                       LatencyModel)

__all__ = ["CalibrationPoint", "CalibrationResult", "calibrate"]

#: Offered-load sweep: near-saturation, moderate, and light traffic
#: (larger ``idle_cycles`` = less load), mirroring Figure 3's spread.
DEFAULT_IDLE_POINTS = (0, 200, 1000)
#: Words per message at every load point.
MESSAGE_WORDS = 8


@dataclass
class CalibrationPoint:
    """One offered-load measurement from the flit-level fabric."""

    idle_cycles: int
    message_words: int
    utilization: float          # observed midplane peak utilization
    mean_hops: float
    measured_latency: float     # one-way, from the experiment
    base_latency: float         # distance + streaming, known exactly

    @property
    def residual(self) -> float:
        """Latency the base terms do not explain (the contention)."""
        return self.measured_latency - self.base_latency

    @property
    def x(self) -> float:
        """The open-network queueing regressor ``u / (1 - u)``."""
        u = min(self.utilization, 0.95)
        return u / (1.0 - u)


@dataclass
class CalibrationResult:
    """A fitted contention scale plus the evidence behind it."""

    points: List[CalibrationPoint]
    scale: float                # fitted contention_scale
    default_scale: float        # what the model shipped with
    cap: float                  # CONTENTION_CAP, used for predictions

    def predict(self, point: CalibrationPoint,
                scale: Optional[float] = None) -> float:
        """Model latency at a measured load point, with either scale."""
        s = self.scale if scale is None else scale
        return point.base_latency + min(self.cap, s * point.x)

    def residuals(self, scale: float) -> List[float]:
        """Model-minus-measured error at every point for ``scale``."""
        return [self.predict(p, scale) - p.measured_latency
                for p in self.points]

    def apply(self, model: LatencyModel) -> LatencyModel:
        """Install the fitted scale on a live macro latency model."""
        model.contention_scale = self.scale
        return model

    def format(self) -> str:
        """Model-vs-measured table at each load point, before/after."""
        lines = [
            "contention calibration (fit of scale * u/(1-u) through "
            f"{len(self.points)} flit-measured load points)",
            f"  contention_scale: {self.default_scale:.2f} (default) -> "
            f"{self.scale:.2f} (fitted)",
            f"  {'idle':>6} {'util':>6} {'hops':>5} {'measured':>9} "
            f"{'base':>7} {'model(def)':>10} {'model(fit)':>10} "
            f"{'resid(def)':>10} {'resid(fit)':>10}",
        ]
        before = self.residuals(self.default_scale)
        after = self.residuals(self.scale)
        for point, rb, ra in zip(self.points, before, after):
            lines.append(
                f"  {point.idle_cycles:>6} {point.utilization:>6.3f} "
                f"{point.mean_hops:>5.2f} {point.measured_latency:>9.1f} "
                f"{point.base_latency:>7.1f} "
                f"{self.predict(point, self.default_scale):>10.1f} "
                f"{self.predict(point):>10.1f} "
                f"{rb:>+10.1f} {ra:>+10.1f}")
        rms_before = (sum(r * r for r in before) / len(before)) ** 0.5
        rms_after = (sum(r * r for r in after) / len(after)) ** 0.5
        lines.append(f"  rms residual: {rms_before:.1f} -> "
                     f"{rms_after:.1f} cycles")
        return "\n".join(lines)


def _measure_point(mesh: Mesh3D, idle_cycles: int, warmup_cycles: int,
                   measure_cycles: int) -> CalibrationPoint:
    experiment = RandomTrafficExperiment(
        mesh, message_words=MESSAGE_WORDS, idle_cycles=idle_cycles)
    costs = experiment.costs
    experiment.fabric.attach_probe()
    result = experiment.run(warmup_cycles=warmup_cycles,
                            measure_cycles=measure_cycles)
    now = warmup_cycles + measure_cycles
    report = FabricReport.from_fabric(experiment.fabric, now)
    total_hops = sum(report.dim_hops)
    mean_hops = total_hops / report.messages if report.messages else 0.0
    base = (INTERFACE_CYCLES + costs.hop * mean_hops
            + costs.phits_per_word * MESSAGE_WORDS)
    utilization = report.midplane_split()["midplane"]["peak_utilization"]
    return CalibrationPoint(
        idle_cycles=idle_cycles,
        message_words=MESSAGE_WORDS,
        utilization=utilization,
        mean_hops=mean_hops,
        measured_latency=result.one_way_latency_cycles,
        base_latency=base,
    )


def calibrate(mesh: Optional[Mesh3D] = None,
              idle_points: Tuple[int, ...] = DEFAULT_IDLE_POINTS,
              warmup_cycles: int = 2000, measure_cycles: int = 6000
              ) -> CalibrationResult:
    """Measure ``len(idle_points)`` load points and fit the contention
    scale (closed-form least squares through the origin, clamped >= 0).
    """
    mesh = mesh if mesh is not None else Mesh3D(4, 4, 2)
    points = [
        _measure_point(mesh, idle, warmup_cycles, measure_cycles)
        for idle in idle_points
    ]
    numerator = sum(p.residual * p.x for p in points)
    denominator = sum(p.x * p.x for p in points)
    scale = max(0.0, numerator / denominator) if denominator > 0 else \
        CONTENTION_SCALE
    return CalibrationResult(
        points=points,
        scale=scale,
        default_scale=CONTENTION_SCALE,
        cap=CONTENTION_CAP,
    )
