"""Analytic network model for the macro simulator.

Full flit-level simulation (``repro.network.fabric``) is exact but costs
Python time proportional to phits x hops; the applications move hundreds
of thousands of messages, so the macro simulator uses a calibrated
latency model instead:

    latency = interface + hops(src, dst) + 2 * length + contention

* ``interface`` and the per-hop / per-word terms are the same constants
  the flit model uses (and that Figure 2 validates end to end).
* ``contention`` grows with measured bisection utilization following the
  standard open-network queueing shape ``u / (1 - u)`` that Agarwal's
  model (the paper's reference [1]) predicts and that our own flit
  simulator reproduces; utilization is metered over a sliding window of
  recent sends that actually cross the machine's X midplane.

When offered load exceeds the bisection capacity the model also
*throttles*: the excess crossing words accumulate in a backlog and every
crossing message queues behind it, so application-level throughput (e.g.
radix sort's reorder phase) saturates just as it does on the machine.
"""

from __future__ import annotations

from ..core.costs import CostModel, DEFAULT_COSTS
from ..network.topology import Mesh3D

__all__ = ["LatencyModel", "CONTENTION_SCALE", "CONTENTION_CAP",
           "INTERFACE_CYCLES"]

#: Fixed per-message cycles outside the hops and the body: the sending
#: and receiving interface pipelines (the ``interface`` term above).
INTERFACE_CYCLES = 9

#: Sliding-window length for utilization metering, in cycles.
_WINDOW_CYCLES = 1024

#: Fraction of theoretical bisection bandwidth usable by wormhole routing
#: under irregular traffic before latency diverges (the flit simulator
#: and the paper both saturate near half of peak).
_SATURATION_FRACTION = 0.55

#: Contention delay multiplier (cycles of queueing per unit of u/(1-u)).
CONTENTION_SCALE = 8.0

#: Upper bound on the contention term, to keep pathological bursts finite.
CONTENTION_CAP = 2000.0


class LatencyModel:
    """Distance + length + contention latency with saturation throttling.

    ``contention_scale`` starts at the hand-tuned module value; the
    calibrator (:mod:`repro.jsim.calibrate`) fits it against per-link
    utilization measured by the flit simulator's fabric observatory and
    installs the fit on a live model.  The metering window, the cap and
    the usable fraction of the bisection and the interface cycles are
    module constants.
    """

    def __init__(
        self,
        mesh: Mesh3D,
        costs: CostModel = DEFAULT_COSTS,
    ) -> None:
        self.mesh = mesh
        self.costs = costs
        self.contention_scale = CONTENTION_SCALE
        # Usable crossing capacity, in words per cycle (both directions:
        # Y*Z channels each way, each carrying a word per
        # ``phits_per_word`` cycles).
        raw = mesh.bisection_channels() * 2 / costs.phits_per_word
        self.capacity_words_per_cycle = max(raw * _SATURATION_FRACTION,
                                            0.25)
        self._bucket_start = 0
        self._bucket_words = 0.0
        self._prev_rate = 0.0
        #: Backlog of crossing words beyond capacity (saturation queue).
        self._backlog_clear_time = 0.0
        self._phits_per_word = costs.phits_per_word
        #: src -> row, ``row[dst] = distance_cycles << 1 | crosses_midplane``
        #: (both pure functions of the pair), built when ``src`` first
        #: sends: the per-message cost is two probes plus the contention
        #: arithmetic.
        self._rows: dict = {}

    # -- the model ------------------------------------------------------------

    def _build_row(self, src: int) -> list:
        """The distance row of ``src``.  Hops are separable and ids are
        x-major, so the row is the outer sum of a YZ part and an X part
        (which alone decides the midplane bit)."""
        mesh = self.mesh
        sx, sy, sz = mesh.coord(src)  # raises outside the mesh
        x_dim, y_dim, z_dim = mesh.dims
        hop = self.costs.hop
        half = x_dim // 2
        x_part = [(hop * abs(sx - x)) << 1 | ((sx < half) != (x < half))
                  for x in range(x_dim)]
        yz_part = [(INTERFACE_CYCLES
                    + hop * (abs(sy - y) + abs(sz - z))) << 1
                   for z in range(z_dim) for y in range(y_dim)]
        row = self._rows[src] = [yz_cost + x_cost for yz_cost in yz_part
                                 for x_cost in x_part]
        return row

    def latency(self, src: int, dst: int, length_words: int, now: int) -> int:
        """Cycles from launch at ``src`` to queued at ``dst``."""
        try:
            if dst < 0:
                raise IndexError  # a negative index would wrap
            packed = self._rows[src][dst]
        except LookupError:
            # The first message from ``src``, or a node outside the mesh
            # (``coord`` raises ConfigurationError for either end).
            self.mesh.coord(dst)
            packed = self._build_row(src)[dst]
        base = (packed >> 1) + self._phits_per_word * length_words
        # Utilization: crossing words per cycle over the current window
        # blended with the previous window's rate, against capacity.
        elapsed = now - self._bucket_start
        if elapsed >= _WINDOW_CYCLES:
            self._prev_rate = self._bucket_words / elapsed
            self._bucket_start = now
            self._bucket_words = 0.0
            elapsed = 1
        elif elapsed < 1:
            elapsed = 1
        u = ((self._bucket_words + self._prev_rate * _WINDOW_CYCLES)
             / (elapsed + _WINDOW_CYCLES) / self.capacity_words_per_cycle)
        if u > 0.999:
            u = 0.999
        cap = CONTENTION_CAP
        if not packed & 1:
            # Local traffic sees only mild contention.
            contention = self.contention_scale * u * u
            return base + int(contention if contention < cap else cap)

        self._bucket_words += length_words
        contention = self.contention_scale * u / (1.0 - u)
        if contention > cap:
            contention = cap

        # Saturation throttling: words beyond capacity queue up.
        start = self._backlog_clear_time
        if start < now:
            start = float(now)
        self._backlog_clear_time = \
            start + length_words / self.capacity_words_per_cycle
        return base + int(contention + (start - now))

    # ------------------------------------------------------ snapshot contract

    #: Attributes a restored simulator rebuilds from its own config
    #: rather than loads: the mesh/cost structure, the sizing constants
    #: derived from them, and the pure per-source distance rows.
    EXTERNAL_ATTRS = frozenset({
        "mesh", "costs", "capacity_words_per_cycle",
        "_phits_per_word", "_rows", "contention_scale",
    })

    def state_dict(self) -> dict:
        """The mutable model state (utilization metering + backlog).

        The model is *stateful*: latency depends on the sliding
        utilization window and the saturation backlog, so a resumed run
        with a cold model would see different arrival times than the
        uninterrupted one.
        """
        return {
            "bucket_start": self._bucket_start,
            "bucket_words": self._bucket_words,
            "prev_rate": self._prev_rate,
            "backlog_clear_time": self._backlog_clear_time,
        }

    def load_state(self, state: dict) -> None:
        """Inverse of :meth:`state_dict`."""
        self._bucket_start = state["bucket_start"]
        self._bucket_words = state["bucket_words"]
        self._prev_rate = state["prev_rate"]
        self._backlog_clear_time = state["backlog_clear_time"]
