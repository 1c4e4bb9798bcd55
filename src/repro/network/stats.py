"""Network measurement: latency and bisection-traffic statistics.

The paper's Figure 3 plots one-way message latency against *bisection
traffic* — the rate at which data crosses the machine's X midplane.  Its
capacity convention counts the midplane channels in a single direction
(64 channels for 8x8x8, giving the quoted 14.4 Gbits/sec peak), so for
symmetric traffic we count all midplane crossings and halve them, which
this module documents once so every benchmark reports the same quantity.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import Dict, Optional, Sequence, TYPE_CHECKING

from ..core.costs import CLOCK_HZ, WORD_BITS

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .fabric import Worm

__all__ = ["NetworkStats", "LatencySummary", "SUMMARY_FIELDS"]

#: The keys of :meth:`LatencySummary.snapshot`: every histogram metric
#: expands into these.
SUMMARY_FIELDS = ("count", "total", "mean", "min", "max", "p50", "p99")

#: Default histogram bucket upper bounds: powers of two up to ~1M cycles.
#: Latencies in this simulator span a handful of cycles (one hop) to the
#: hundreds of thousands (a saturated 512-node bisection), so a
#: logarithmic scale keeps relative quantile error bounded everywhere.
DEFAULT_BUCKET_BOUNDS = tuple(1 << k for k in range(21))


class LatencySummary:
    """Streaming mean/min/max plus fixed-bucket quantile estimates.

    Values land in fixed buckets (``bounds[i-1] < v <= bounds[i]``, with
    one overflow bucket above the last bound), so memory is O(buckets)
    regardless of sample count and summaries from different nodes can be
    :meth:`merge`\\ d exactly.  Quantiles are bucket-resolution estimates:
    :meth:`percentile` returns the upper bound of the bucket holding the
    requested rank, clamped to the observed min/max.
    """

    __slots__ = ("count", "total", "min", "max", "bounds", "buckets")

    def __init__(self, bounds: Optional[Sequence[int]] = None) -> None:
        self.count = 0
        self.total = 0
        self.min: Optional[int] = None
        self.max: Optional[int] = None
        self.bounds = (DEFAULT_BUCKET_BOUNDS if bounds is None
                       else tuple(bounds))
        if list(self.bounds) != sorted(set(self.bounds)):
            raise ValueError("histogram bounds must be strictly increasing")
        self.buckets = [0] * (len(self.bounds) + 1)

    def record(self, value: int) -> None:
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        self.buckets[bisect_left(self.bounds, value)] += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, fraction: float) -> float:
        """Bucket-resolution quantile estimate (0.0 when empty)."""
        if not 0.0 <= fraction <= 1.0:
            raise ValueError(f"fraction {fraction} outside [0, 1]")
        if not self.count:
            return 0.0
        target = max(1, math.ceil(self.count * fraction))
        seen = 0
        for i, n in enumerate(self.buckets):
            seen += n
            if seen >= target:
                upper = (self.bounds[i] if i < len(self.bounds)
                         else self.max)
                return float(min(max(upper, self.min), self.max))
        return float(self.max)  # pragma: no cover - bucket counts == count

    @property
    def p50(self) -> float:
        return self.percentile(0.50)

    @property
    def p99(self) -> float:
        return self.percentile(0.99)

    def merge(self, other: "LatencySummary") -> None:
        """Fold another summary (e.g. a per-node one) into this one."""
        if self.bounds != other.bounds:
            raise ValueError("cannot merge summaries with different buckets")
        self.count += other.count
        self.total += other.total
        if other.min is not None and (self.min is None or other.min < self.min):
            self.min = other.min
        if other.max is not None and (self.max is None or other.max > self.max):
            self.max = other.max
        for i, n in enumerate(other.buckets):
            self.buckets[i] += n

    def snapshot(self) -> Dict[str, float]:
        """Flat scalar view (the telemetry registry's histogram format)."""
        return dict(zip(SUMMARY_FIELDS, (
            self.count, self.total, self.mean,
            self.min if self.min is not None else 0,
            self.max if self.max is not None else 0,
            self.p50, self.p99)))


class NetworkStats:
    """Counters the fabric maintains, with a resettable window.

    ``window_bisection_words`` accumulates since the last
    :meth:`open_window` call, so a load sweep can warm the network up and
    then measure a clean steady-state interval (Figure 3).
    """

    def __init__(self) -> None:
        self.submitted = 0
        self.completed = 0
        self.block_cycles = 0
        self.delivery_stall_cycles = 0
        self.bounces = 0
        #: Messages destroyed in transit by fault injection (repro.chaos).
        self.drops = 0
        self.latency = LatencySummary()
        # measurement window
        self._window_start_cycle = 0
        self.window_bisection_words = 0

    def record_completion(self, worm: "Worm", now: int) -> None:
        self.completed += 1
        message = worm.message
        if message.inject_time is not None:
            self.latency.record(now - message.inject_time)
        if worm.crosses_bisection:
            self.window_bisection_words += len(message.words)

    # -- measurement windows --------------------------------------------------

    def open_window(self, now: int) -> None:
        """Start a fresh measurement interval at cycle ``now``."""
        self._window_start_cycle = now
        self.window_bisection_words = 0

    def window_cycles(self, now: int) -> int:
        return max(1, now - self._window_start_cycle)

    def bisection_traffic_bits_per_s(self, now: int) -> float:
        """Measured bisection traffic, paper convention (one direction).

        Crossings are counted in both directions and halved, matching the
        capacity convention of
        :meth:`~repro.network.topology.Mesh3D.bisection_capacity_bits_per_s`.
        """
        words_per_cycle = self.window_bisection_words / 2 / self.window_cycles(now)
        return words_per_cycle * WORD_BITS * CLOCK_HZ
