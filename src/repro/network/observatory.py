"""The fabric observatory: per-link and per-router congestion telemetry.

Endpoint statistics (:class:`~repro.network.stats.NetworkStats`) can say
that p99 latency rose; they cannot say *where* in the mesh the cycles
went.  This module adds the missing layer:

* :class:`FabricProbe` — raw counters the fabric accumulates while a
  probe is attached (``fabric.probe`` is None by default, and every
  instrumentation site sits behind the standard ``is None`` guard, so
  un-probed runs are bit-identical and cost nothing):

  - per-directed-link phit and message counts (a channel moves one phit
    per cycle, so accumulated phits / elapsed cycles *is* utilization),
  - per-link blocked-at-head cycles, split by cause: channel busy
    (contention) vs. chaos link outage vs. destination backpressure,
  - per-dimension e-cube hop and phit attribution (X is the bisection
    dimension, so this shows how much traffic the midplane carries),
  - per-router injection-queue occupancy histograms built on
    :class:`~repro.network.stats.LatencySummary`'s mergeable fixed
    buckets.

* :class:`FabricReport` — the analyzer over a probe: top-k saturated
  links, midplane vs. off-midplane split (same X-midplane convention as
  :meth:`~repro.network.topology.Mesh3D.bisection_channels`), stall
  breakdown, per-Z-slice heat maps, JSON round-trip, and diffs between
  two runs.

``FABRIC_METRICS`` names the metric families the telemetry wiring
exports for a probed fabric (:data:`repro.telemetry.wiring.METRIC_FAMILIES`
composes them into the one schema).
"""

from __future__ import annotations

import json
from typing import Dict, List, Tuple

from .routing import ChannelKey, EJECT, INJECT, decode_key
from .stats import SUMMARY_FIELDS, LatencySummary

__all__ = [
    "FabricProbe",
    "FabricReport",
    "FABRIC_METRICS",
    "QUEUE_OCCUPANCY_BOUNDS",
    "link_name",
    "parse_link_name",
]

#: Injection-queue depths span one message to a few hundred under the
#: radix-sort starvation pattern; powers of two to 1024 keep the
#: histogram small and exactly mergeable across routers.
QUEUE_OCCUPANCY_BOUNDS = tuple(1 << k for k in range(11))

#: The probed fabric's metric families, ``(prefix, leaves, kind, unit)``
#: rows; each wiring source keys its dict by its prefix's leaves, in row
#: order.  The histogram expands like every LatencySummary.
FABRIC_METRICS = (
    ("net.link", ("observed",), "gauge", "links"),
    ("net.link", ("phits",), "counter", "phits"),
    ("net.link", ("messages",), "counter", "messages"),
    ("net.link", ("peak_phits",), "gauge", "phits"),
    ("net.link", ("peak_utilization",), "gauge", "fraction"),
    ("net.link", ("blocked_cycles",), "counter", "cycles"),
    ("net.stall", ("channel_busy", "link_outage", "backpressure"),
     "counter", "cycles"),
    ("net.dim", ("x.hops", "y.hops", "z.hops"), "counter", "hops"),
    ("net.dim", ("x.phits", "y.phits", "z.phits"), "counter", "phits"),
    ("net.router.inject_queue", SUMMARY_FIELDS, "histogram", "messages"),
)

_DIM_LETTERS = "xyz"


def link_name(link: ChannelKey) -> str:
    """Stable string form of a directed channel: ``"12.x+"``.

    Mesh channels render as ``<node>.<xyz><+->``; the router's
    processor-side ports (where head flits can also block, waiting for
    a busy ejection port) render as ``<node>.inj`` / ``<node>.ej``.
    """
    node, dim, direction = link
    if dim >= INJECT:
        return f"{node}.{'inj' if dim == INJECT else 'ej'}"
    return f"{node}.{_DIM_LETTERS[dim]}{'+' if direction > 0 else '-'}"


def parse_link_name(name: str) -> ChannelKey:
    """Inverse of :func:`link_name`."""
    node_part, tag = name.rsplit(".", 1)
    if tag == "inj":
        return (int(node_part), INJECT, 0)
    if tag == "ej":
        return (int(node_part), EJECT, 0)
    return (int(node_part), _DIM_LETTERS.index(tag[0]),
            1 if tag[1] == "+" else -1)


class FabricProbe:
    """Raw per-link/per-router counters for one fabric.

    The probe holds no mesh reference and only dicts of ints plus
    histograms, so it pickles cheaply — the snapshot layer captures it
    with :meth:`Fabric.state_dict`.

    Accumulation sites (all in ``fabric.py``, all behind ``probe is
    None`` guards):

    * :meth:`record_completion` — message delivered: every phit crossed
      every mesh channel of the path exactly once.
    * :meth:`record_block` — a head flit failed to acquire its next
      virtual channel this cycle (contention or chaos outage); the
      cycles a frozen worm slept through arrive in one call when it
      wakes or the fabric is synced (reading ``fabric.probe`` syncs).
    * :meth:`record_backpressure` — a fully-arrived worm was refused by
      the destination queue this cycle.
    * :meth:`record_queue_depth` — a worm entered its source's
      injection queue (depth observed after the append).
    """

    __slots__ = (
        "opened_at", "messages", "link_phits", "link_messages",
        "link_blocked", "dim_hops", "dim_phits", "stall_channel_busy",
        "stall_link_outage", "stall_backpressure", "node_backpressure",
        "queue_occupancy",
    )

    def __init__(self, opened_at: int = 0) -> None:
        self.opened_at = opened_at
        self.messages = 0
        self.link_phits: Dict[ChannelKey, int] = {}
        self.link_messages: Dict[ChannelKey, int] = {}
        self.link_blocked: Dict[ChannelKey, int] = {}
        self.dim_hops = [0, 0, 0]
        self.dim_phits = [0, 0, 0]
        self.stall_channel_busy = 0
        self.stall_link_outage = 0
        self.stall_backpressure = 0
        self.node_backpressure: Dict[int, int] = {}
        self.queue_occupancy: Dict[int, LatencySummary] = {}

    # -- accumulation (hot paths: keep these allocation-free) ---------------

    def record_completion(self, worm) -> None:
        """Attribute a delivered worm's phits to every link it held."""
        phits = worm.total_phits
        self.messages += 1
        link_phits = self.link_phits
        link_messages = self.link_messages
        dim_hops = self.dim_hops
        dim_phits = self.dim_phits
        for key in worm.keys[1:-1]:  # mesh channels only
            link = decode_key(key)
            dim = link[1]
            link_phits[link] = link_phits.get(link, 0) + phits
            link_messages[link] = link_messages.get(link, 0) + 1
            dim_hops[dim] += 1
            dim_phits[dim] += phits

    def record_block(self, key, outage: bool, cycles: int = 1) -> None:
        """``cycles`` blocked-at-head cycles on the channel behind ``key``.

        ``key`` is the fabric's int virtual-channel key; blocked cycles
        aggregate on the physical link it decodes to
        (:func:`~repro.network.routing.decode_key`).
        """
        link = decode_key(key)
        self.link_blocked[link] = self.link_blocked.get(link, 0) + cycles
        if outage:
            self.stall_link_outage += cycles
        else:
            self.stall_channel_busy += cycles

    def record_backpressure(self, dest: int, cycles: int = 1) -> None:
        """``cycles`` of delivery refusal by ``dest``'s queue."""
        self.stall_backpressure += cycles
        self.node_backpressure[dest] = (
            self.node_backpressure.get(dest, 0) + cycles)

    def record_queue_depth(self, node: int, depth: int) -> None:
        """A worm joined ``node``'s injection queue at ``depth``."""
        summary = self.queue_occupancy.get(node)
        if summary is None:
            summary = self.queue_occupancy[node] = LatencySummary(
                QUEUE_OCCUPANCY_BOUNDS)
        summary.record(depth)

    # -- derived ------------------------------------------------------------

    def elapsed(self, now: int) -> int:
        """Cycles observed so far (never 0, for safe division)."""
        return max(1, now - self.opened_at)

    def inject_queue_summary(self) -> LatencySummary:
        """All routers' injection-queue occupancy, merged exactly."""
        merged = LatencySummary(QUEUE_OCCUPANCY_BOUNDS)
        for summary in self.queue_occupancy.values():
            merged.merge(summary)
        return merged

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "opened_at": self.opened_at,
            "messages": self.messages,
            "link_phits": {link_name(k): v
                           for k, v in sorted(self.link_phits.items())},
            "link_messages": {link_name(k): v
                              for k, v in sorted(self.link_messages.items())},
            "link_blocked": {link_name(k): v
                             for k, v in sorted(self.link_blocked.items())},
            "dim_hops": list(self.dim_hops),
            "dim_phits": list(self.dim_phits),
            "stall_channel_busy": self.stall_channel_busy,
            "stall_link_outage": self.stall_link_outage,
            "stall_backpressure": self.stall_backpressure,
            "node_backpressure": {str(node): n for node, n
                                  in sorted(self.node_backpressure.items())},
            "queue_occupancy": {str(node): summary.snapshot()
                                for node, summary
                                in sorted(self.queue_occupancy.items())},
        }


class FabricReport:
    """Hotspot analysis over a :class:`FabricProbe`.

    Built with :meth:`from_fabric` at the end of (or during) a run; the
    report is plain data — JSON round-trippable, diffable, and equal
    (``==``) across repeated executions of the same run.
    """

    def __init__(self, dims: Tuple[int, int, int], elapsed: int,
                 messages: int, links: Dict[ChannelKey, Dict[str, float]],
                 dim_hops: List[int], dim_phits: List[int],
                 stalls: Dict[str, int], node_backpressure: Dict[int, int],
                 queue_occupancy: Dict[int, Dict[str, float]]) -> None:
        self.dims = tuple(dims)
        self.elapsed = elapsed
        self.messages = messages
        self.links = links
        self.dim_hops = list(dim_hops)
        self.dim_phits = list(dim_phits)
        self.stalls = dict(stalls)
        self.node_backpressure = dict(node_backpressure)
        self.queue_occupancy = dict(queue_occupancy)

    @classmethod
    def from_fabric(cls, fabric, now: int) -> "FabricReport":
        """Analyze ``fabric.probe`` as of cycle ``now``."""
        probe = fabric.probe
        if probe is None:
            raise ValueError("fabric has no probe attached "
                             "(call fabric.attach_probe() before the run)")
        elapsed = probe.elapsed(now)
        links: Dict[ChannelKey, Dict[str, float]] = {}
        for link in set(probe.link_phits) | set(probe.link_blocked):
            phits = probe.link_phits.get(link, 0)
            links[link] = {
                "phits": phits,
                "messages": probe.link_messages.get(link, 0),
                "blocked_cycles": probe.link_blocked.get(link, 0),
                "utilization": phits / elapsed,
            }
        return cls(
            dims=fabric.mesh.dims,
            elapsed=elapsed,
            messages=probe.messages,
            links=links,
            dim_hops=probe.dim_hops,
            dim_phits=probe.dim_phits,
            stalls={
                "channel_busy": probe.stall_channel_busy,
                "link_outage": probe.stall_link_outage,
                "backpressure": probe.stall_backpressure,
            },
            node_backpressure=dict(probe.node_backpressure),
            queue_occupancy={node: summary.snapshot() for node, summary
                             in probe.queue_occupancy.items()},
        )

    # -- analysis -----------------------------------------------------------

    def is_midplane(self, link: ChannelKey) -> bool:
        """Does this channel cross the X midplane?

        Same boundary as
        :meth:`~repro.network.topology.Mesh3D.crosses_x_midplane`: the
        plane sits between ``x = X//2 - 1`` and ``x = X//2``, so the
        crossing channels are the ``x+`` outputs of the former column
        and the ``x-`` outputs of the latter.
        """
        node, dim, direction = link
        if dim != 0:
            return False
        half = self.dims[0] // 2
        x = node % self.dims[0]
        return ((x == half - 1 and direction > 0)
                or (x == half and direction < 0))

    def top_links(self, k: int = 8) -> List[Tuple[ChannelKey, Dict[str, float]]]:
        """The ``k`` busiest links by phits (deterministic tie-break)."""
        ranked = sorted(self.links.items(),
                        key=lambda item: (-item[1]["phits"], item[0]))
        return ranked[:k]

    def midplane_split(self) -> Dict[str, Dict[str, float]]:
        """Traffic split across vs. off the X midplane.

        Uniform random traffic under e-cube routing concentrates on the
        midplane (Figure 3's saturation) — this is the number that shows
        it.  Mean utilization is over *observed* links in each group.
        """
        out = {}
        for group, member in (("midplane", True), ("off_midplane", False)):
            rows = [info for link, info in self.links.items()
                    if self.is_midplane(link) == member]
            utils = [row["utilization"] for row in rows]
            out[group] = {
                "links": len(rows),
                "phits": sum(row["phits"] for row in rows),
                "blocked_cycles": sum(row["blocked_cycles"] for row in rows),
                "mean_utilization": (sum(utils) / len(utils)) if utils else 0.0,
                "peak_utilization": max(utils) if utils else 0.0,
            }
        return out

    def heatmap(self, dim: int = 0, z: int = 0, direction: int = 1) -> str:
        """One Z-plane's link loads as an ASCII grid (0-9, '.' unused).

        Each cell shows the relative load of the node's output channel
        in dimension ``dim`` toward ``direction``, scaled against the
        busiest such channel.  For uniform random traffic under e-cube
        routing the X midplane columns glow — the bisection-concentration
        effect Figure 3's saturation comes from.
        """
        x_dim, y_dim, z_dim = self.dims
        if not 0 <= z < z_dim:
            raise ValueError(f"z={z} outside mesh")
        loads = {}
        peak = 0
        for (node, link_dim, link_dir), info in self.links.items():
            if link_dim == dim and link_dir == direction:
                loads[node] = info["phits"]
                peak = max(peak, info["phits"])
        lines = [f"link load: dim={_DIM_LETTERS[dim].upper()} "
                 f"dir={direction:+d} z-plane {z} (peak {peak} phits)"]
        for y in range(y_dim - 1, -1, -1):
            row = []
            for x in range(x_dim):
                node = x + x_dim * (y + y_dim * z)
                phits = loads.get(node)
                if not phits:
                    row.append(".")
                else:
                    row.append(str(min(9, int(round(9 * phits / peak)))))
            lines.append(" ".join(row))
        return "\n".join(lines)

    def format(self, top: int = 8, dim: int = 0, direction: int = 1) -> str:
        """Human-readable report: totals, stalls, hotspots, heat maps."""
        lines = [
            f"fabric observatory: {self.dims[0]}x{self.dims[1]}x"
            f"{self.dims[2]} mesh, {self.elapsed} cycles observed, "
            f"{self.messages} messages, {len(self.links)} links touched",
            "stalled cycles: "
            f"channel_busy={self.stalls['channel_busy']} "
            f"link_outage={self.stalls['link_outage']} "
            f"backpressure={self.stalls['backpressure']}",
        ]
        total_hops = sum(self.dim_hops)
        if total_hops:
            shares = " ".join(
                f"{_DIM_LETTERS[d]}={self.dim_hops[d]}"
                f" ({100.0 * self.dim_hops[d] / total_hops:.0f}%)"
                for d in range(3))
            lines.append(f"hop attribution: {shares}")
        split = self.midplane_split()
        mid, off = split["midplane"], split["off_midplane"]
        lines.append(
            f"midplane: {mid['links']} links, "
            f"mean util {mid['mean_utilization']:.3f}, "
            f"peak {mid['peak_utilization']:.3f}; off-midplane: "
            f"{off['links']} links, mean util "
            f"{off['mean_utilization']:.3f}, "
            f"peak {off['peak_utilization']:.3f}")
        ranked = self.top_links(top)
        if ranked:
            lines.append(f"top {len(ranked)} links by phits:")
            for link, info in ranked:
                tag = " [midplane]" if self.is_midplane(link) else ""
                lines.append(
                    f"  {link_name(link):>8}  {info['phits']:>10} phits  "
                    f"util {info['utilization']:.3f}  blocked "
                    f"{info['blocked_cycles']} cyc{tag}")
        for z in range(self.dims[2]):
            lines.append(self.heatmap(dim=dim, z=z, direction=direction))
        return "\n".join(lines)

    # -- serialization / equality / diff ------------------------------------

    def to_dict(self) -> dict:
        return {
            "dims": list(self.dims),
            "elapsed": self.elapsed,
            "messages": self.messages,
            "links": {link_name(k): dict(v)
                      for k, v in sorted(self.links.items())},
            "dim_hops": list(self.dim_hops),
            "dim_phits": list(self.dim_phits),
            "stalls": dict(self.stalls),
            "node_backpressure": {str(node): n for node, n
                                  in sorted(self.node_backpressure.items())},
            "queue_occupancy": {str(node): dict(snap) for node, snap
                                in sorted(self.queue_occupancy.items())},
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "FabricReport":
        return cls(
            dims=tuple(payload["dims"]),
            elapsed=payload["elapsed"],
            messages=payload["messages"],
            links={parse_link_name(name): dict(info)
                   for name, info in payload["links"].items()},
            dim_hops=list(payload["dim_hops"]),
            dim_phits=list(payload["dim_phits"]),
            stalls=dict(payload["stalls"]),
            node_backpressure={int(node): n for node, n
                               in payload["node_backpressure"].items()},
            queue_occupancy={int(node): dict(snap) for node, snap
                             in payload["queue_occupancy"].items()},
        )

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=1, sort_keys=True)
            fh.write("\n")

    @classmethod
    def load(cls, path: str) -> "FabricReport":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FabricReport):
            return NotImplemented
        return self.to_dict() == other.to_dict()

    __hash__ = None  # mutable container semantics

    def diff(self, other: "FabricReport"
             ) -> Dict[str, Tuple[float, float]]:
        """Per-link phit pairs ``(mine, theirs)`` where they differ,
        plus stall-counter pairs under ``stall.<cause>`` keys."""
        out: Dict[str, Tuple[float, float]] = {}
        for link in sorted(set(self.links) | set(other.links)):
            a = self.links.get(link, {}).get("phits", 0)
            b = other.links.get(link, {}).get("phits", 0)
            if a != b:
                out[link_name(link)] = (a, b)
        for cause in sorted(set(self.stalls) | set(other.stalls)):
            a = self.stalls.get(cause, 0)
            b = other.stalls.get(cause, 0)
            if a != b:
                out[f"stall.{cause}"] = (a, b)
        return out

    def format_diff(self, other: "FabricReport", limit: int = 20) -> str:
        """Text diff of two runs' link loads, largest deltas first."""
        pairs = self.diff(other)
        if not pairs:
            return "fabric: no per-link differences"
        ranked = sorted(pairs.items(),
                        key=lambda item: (-abs(item[1][0] - item[1][1]),
                                          item[0]))
        lines = [f"fabric: {len(pairs)} differing entries "
                 f"(a={self.elapsed} cyc, b={other.elapsed} cyc)"]
        for name, (a, b) in ranked[:limit]:
            lines.append(f"  {name:>20}  a={a:>10}  b={b:>10}  "
                         f"delta={a - b:+}")
        if len(ranked) > limit:
            lines.append(f"  ... {len(ranked) - limit} more")
        return "\n".join(lines)
