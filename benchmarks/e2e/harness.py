"""Calibrated timing of workload units.

A workload is a fixed list of *units* (one call into a public entry
point each).  A *pass* prepares every unit (untimed), then runs each
once with the collector off, with a fixed pure-Python calibration spin
before and after it; the sample is scaled to a reference machine by
``spin_ref / mean(adjacent spins)``, and a unit's host time is the
median of its samples over the run's timed passes.

The shared 2-core box this was built on runs at two speeds (the spin
takes 21 or 40 ms, flipping for seconds at a time), so raw wall-clock
medians of identical code moved by up to 1.8x between back-to-back
runs.  The scaled median moves 1-3 % on a steady host and stays within
~10 % on the unsteadiest seen; estimators built on a run's fastest pass
were as good on a steady host and far worse (+60 %) on a host that is
slow most of the time (README.md, "Calibration").
"""

from __future__ import annotations

import gc
import heapq
import json
import os
import resource
import statistics
import time
from statistics import median
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))

#: What a vanished public entry point raises when a unit reaches for it.
MISSING_ERRORS = (ImportError, AttributeError, TypeError)


def load_config() -> Dict[str, Any]:
    with open(os.path.join(HERE, "bench_config.json"), encoding="utf-8") as fh:
        return json.load(fh)


class _Cell:
    __slots__ = ("n",)

    def __init__(self) -> None:
        self.n = 0

    def bump(self) -> int:
        self.n += 1
        return self.n


def spin(iters: int) -> float:
    """Seconds for a fixed amount of interpreter work: a slot-attribute
    method call, a dict store and a heap push/pop per iteration — the
    operations the simulators' hot loops are made of."""
    cell = _Cell()
    table: Dict[int, int] = {}
    heap: List[int] = []
    push, pop = heapq.heappush, heapq.heappop
    start = time.perf_counter()
    for i in range(iters):
        k = cell.bump()
        table[k & 255] = i
        push(heap, (k * 7919) & 1023)
        if len(heap) > 64:
            pop(heap)
    return time.perf_counter() - start


class Clock:
    """Spin-calibrated stopwatch; remembers every spin it took."""

    def __init__(self, config: Dict[str, Any], scale: float = 1.0) -> None:
        # A shrunken run (the selfcheck) shrinks its spins with it.
        self.iters = max(1000, int(config["spin_iters"] * scale))
        self.ref = float(config["spin_ref_s"]) * self.iters \
            / int(config["spin_iters"])
        self.spins: List[float] = []

    def spin(self) -> float:
        value = spin(self.iters)
        self.spins.append(value)
        return value

    def timed(self, fn: Callable[[], Any], before: Optional[float] = None):
        """Run ``fn`` between two spins with the collector off.

        Returns ``(result, raw seconds, calibrated seconds, spin after)``;
        pass the previous call's trailing spin as ``before`` to share it.
        """
        if before is None:
            before = self.spin()
        gc.collect()
        gc.disable()
        try:
            start = time.perf_counter()
            result = fn()
            raw = time.perf_counter() - start
        finally:
            gc.enable()
        after = self.spin()
        return result, raw, raw * self.ref / ((before + after) / 2), after

    def spread(self) -> float:
        """IQR / median of the spins: how unsteady the host was."""
        return iqr_share(self.spins)


@dataclass
class Unit:
    """One timed call.  ``prepare`` builds its inputs (untimed), ``run``
    is the timed region, ``stats`` checks the result and returns the
    simulated statistics that must repeat exactly."""

    name: str
    prepare: Callable[[], Any]
    run: Callable[[Any], Any]
    stats: Callable[[Any], Dict[str, Any]]
    #: Counted in ``host_s``; layer-only units are run with ``--trace 1``.
    e2e: bool = True
    #: Operations attempted by one execution (service phases run many).
    ops: int = 1
    #: Scale the host time by the adjacent spins.  Off for the service
    #: phases: three processes mostly waiting on timers and each other
    #: are not slowed the way one busy interpreter is (about half of a
    #: cache-hit round trip does not move with the client's spin at
    #: all), and scaling them by it tripled their spread.  Such a unit
    #: times itself: its ``stats`` return ``typical_s``, requests x
    #: their median round trip, which a stalled request does not move.
    calibrate: bool = True
    #: Simulated statistics must be identical on every pass of a run
    #: (service phases get fresh specs each pass, so theirs are not).
    repeats: bool = True


@dataclass
class Sample:
    raw: float
    #: Raw seconds scaled by the adjacent spins (``typical_s`` for a
    #: unit that is not calibrated).
    cal: float
    stats: Dict[str, Any]


@dataclass
class PassResult:
    samples: Dict[str, Sample] = field(default_factory=dict)
    #: Layer-only units whose entry point is gone: name -> reason.
    missing: Dict[str, str] = field(default_factory=dict)
    #: Units whose run or checker raised: name -> error.
    failed: Dict[str, str] = field(default_factory=dict)
    raw_wall: float = 0.0


def run_pass(units: List[Unit], clock: Clock, tracer,
             reverse: bool = False) -> PassResult:
    """Prepare every unit, then time each once (see module docstring).

    ``reverse`` flips the order on alternate passes so paired variants
    (plain vs observed) do not always run in the same position.  A
    layer-only unit that fails for want of its entry point is recorded
    in ``missing``; an end-to-end unit never tolerates that and the
    error propagates.  Any other exception (an app's own checker) is a
    failed operation.
    """
    out = PassResult()
    order = list(reversed(units)) if reverse else list(units)
    states = {}
    wall_start = time.perf_counter()
    for unit in order:
        try:
            with tracer.span(f"{unit.name}:prepare"):
                states[unit.name] = unit.prepare()
        except MISSING_ERRORS as exc:
            if unit.e2e:
                raise
            out.missing[unit.name] = f"{type(exc).__name__}: {exc}"
    after = None
    for unit in order:
        if unit.name in out.missing:
            continue
        state = states.pop(unit.name)
        try:
            with tracer.span(f"{unit.name}:run", profile=True):
                result, raw, cal, after = clock.timed(
                    lambda: tracer.profiled(unit.run, state), before=after)
            with tracer.span(f"{unit.name}:verify"):
                stats = unit.stats(result)
        except MISSING_ERRORS as exc:
            if unit.e2e:
                raise
            out.missing[unit.name] = f"{type(exc).__name__}: {exc}"
            after = None
            continue
        except Exception as exc:  # a checker raised: count it, keep going
            out.failed[unit.name] = f"{type(exc).__name__}: {exc}"
            after = None
            continue
        out.samples[unit.name] = Sample(
            raw, cal if unit.calibrate else stats["typical_s"], stats)
    out.raw_wall = time.perf_counter() - wall_start
    return out


def scaled(base: int, scale: float, floor: int = 1) -> int:
    """An iteration count shrunk by ``scale`` (the selfcheck's 1/10)."""
    return max(floor, int(base * scale))


def quartiles(values: List[float]) -> List[float]:
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def iqr_share(values: List[float]) -> float:
    """(Q3 - Q1) / median, the spread statistic the benchmark is held to."""
    if len(values) < 2:
        return 0.0
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0


def percentile(values: List[float], fraction: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(fraction * len(ordered)))]


def peak_rss_mb(children: bool = False) -> float:
    """``ru_maxrss`` of this process (Linux: KiB), plus reaped children."""
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        rss += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return rss / 1024.0


@dataclass
class Workload:
    """What a workload's ``setup(seed, scale, ctx)`` hands the runner."""

    units: List[Unit]
    #: Per-layer metrics from the timed passes: name -> value, or None
    #: when the unit behind it is missing.  Only asked with ``--trace 1``.
    layer_metrics: Callable[["Results"], Dict[str, Optional[float]]]
    #: Observed / sharded variant -> the plain unit whose simulated
    #: statistics (``twin_keys``) it must reproduce.
    twins: Dict[str, str] = field(default_factory=dict)
    twin_keys: tuple = ("cycles", "instructions")
    #: Layer-only units run in the warm-up pass alone (simulated-time
    #: results that repeat exactly and cost too much to repeat).
    once: frozenset = frozenset()
    #: Layer-only units the traced pass profiles beside the end-to-end
    #: ones (the service's jobs run in worker processes the profiler
    #: cannot see; the same jobs in-process stand in for them).
    profiled: frozenset = frozenset()
    #: Called once after the timed set-ups, and at the end of the run:
    #: the service subprocess's boot and drain.
    start: Callable[[], None] = lambda: None
    close: Callable[[], None] = lambda: None
    #: ``peak_rss_mb`` adds the largest reaped child.
    multi_process: bool = False


class Results:
    """The timed passes of one run, read by ``layer_metrics``."""

    def __init__(self, warmup: PassResult, passes: List[PassResult]) -> None:
        self.warmup = warmup
        self.passes = passes

    def seconds(self, name: str) -> Optional[float]:
        """Host seconds of a unit: the median of its calibrated samples
        over the timed passes; None if it never ran."""
        values = [p.samples[name].cal for p in self.passes
                  if name in p.samples]
        return median(values) if values else None

    def stats(self, name: str) -> Optional[Dict[str, Any]]:
        for result in reversed(self.passes + [self.warmup]):
            if name in result.samples:
                return result.samples[name].stats
        return None

    def stat(self, name: str, key: str) -> Optional[float]:
        stats = self.stats(name)
        return None if stats is None else stats.get(key)

    def overhead_pct(self, variant: str, plain: str) -> Optional[float]:
        """Median over passes of the same-pass ratio, as a percentage:
        the pair runs back to back (order alternating), so whatever
        speed the host was at mostly cancels."""
        ratios = [p.samples[variant].cal / p.samples[plain].cal
                  for p in self.passes
                  if variant in p.samples and plain in p.samples]
        return (median(ratios) - 1.0) * 100.0 if ratios else None

    def total(self, names: List[str], key: Optional[str] = None
              ) -> Optional[float]:
        """Sum of the units' host seconds (or of one statistic)."""
        values = [self.seconds(n) if key is None else self.stat(n, key)
                  for n in names]
        return None if any(v is None for v in values) else sum(values)


def ratio(top: Optional[float], bottom: Optional[float]) -> Optional[float]:
    if top is None or bottom is None or not bottom:
        return None
    return top / bottom
