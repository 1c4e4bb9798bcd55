"""A curses-free ANSI terminal dashboard over live sample frames.

``python -m repro.telemetry watch`` renders
:class:`~repro.telemetry.live.SamplePoint` frames — from an in-process
sampler (the demo workloads) or a remote ``/stream`` SSE endpoint —
as a full-screen text dashboard:

* a header with run progress, ETA, simulated-cycles/sec and
  messages/sec, and a STALL banner fed by the watchdog-style progress
  signature;
* a per-node utilization heatmap (busy-fraction since the previous
  frame, one shaded cell per node, row-major in node order);
* queue high-water bars for the hottest nodes;
* a fabric-observatory pane (stall-cause split, hottest links, link-load
  heat map) whenever the sampled fabric carries a probe;
* network in-flight / submitted / completed, chaos and retry counters
  when fault injection is armed, and the event-stream + sampler health
  line (``events.dropped``, ``live.sample_cost_us``).

Rendering is plain ANSI (cursor-home + clear) so it works in any
terminal and, with ``--plain``, in no terminal at all — the headless
mode ``make live-smoke`` drives.  docs/OBSERVABILITY.md §7 shows a
frame as text.
"""

from __future__ import annotations

import sys
from typing import Dict, List, Optional, Tuple

from ..jsim.profile import CATEGORIES
from .live import LiveSampler, SamplePoint

__all__ = ["render_frame", "watch_sampler", "watch_sse"]

#: Busy-fraction shades, empty→full.
_SHADES = " ░▒▓█"

_CLEAR = "\x1b[H\x1b[2J"


def _node_count(metrics: Dict[str, float]) -> int:
    return int(metrics.get("machine.nodes", metrics.get("macro.nodes", 0)))


def _node_busy(metrics: Dict[str, float], node: int) -> Optional[float]:
    """Cumulative busy cycles for one node, whichever level is present."""
    cycle = metrics.get(f"node.{node}.proc.busy_cycles")
    if cycle is not None:
        return cycle
    total = 0.0
    seen = False
    for cat in CATEGORIES:
        value = metrics.get(f"node.{node}.profile.{cat}")
        if value is not None:
            total += value
            seen = True
    return total if seen else None


def _heatmap(point: SamplePoint, prev: Optional[SamplePoint],
             width: int) -> List[str]:
    """One shaded cell per node: busy fraction since the previous frame
    (cumulative fraction on the first frame)."""
    n = _node_count(point.metrics)
    if n == 0:
        return []
    dt = point.sim_now - (prev.sim_now if prev is not None else 0)
    if dt <= 0:
        dt = max(1, point.sim_now)
    cells = []
    for i in range(n):
        busy = _node_busy(point.metrics, i)
        if busy is None:
            cells.append("?")
            continue
        base = _node_busy(prev.metrics, i) if prev is not None else 0.0
        frac = (busy - (base or 0.0)) / dt
        idx = min(len(_SHADES) - 1,
                  max(0, int(frac * (len(_SHADES) - 1) + 0.5)))
        cells.append(_SHADES[idx])
    per_row = max(1, min(n, width - 8))
    lines = ["utilization (busy fraction since last frame)"]
    for row_start in range(0, n, per_row):
        row = "".join(cells[row_start:row_start + per_row])
        lines.append(f"  {row_start:>4} |{row}|")
    return lines


def _queue_bars(point: SamplePoint, top: int = 8,
                width: int = 30) -> List[str]:
    """High-water bars for the ``top`` deepest node queues."""
    highs: List[Tuple[int, float]] = []
    n = _node_count(point.metrics)
    for i in range(n):
        macro = point.metrics.get(f"node.{i}.queue_high_water")
        if macro is not None:
            highs.append((i, macro))
            continue
        p0 = point.metrics.get(f"node.{i}.queue.p0.high_water")
        p1 = point.metrics.get(f"node.{i}.queue.p1.high_water")
        if p0 is not None or p1 is not None:
            highs.append((i, max(p0 or 0, p1 or 0)))
    highs = [(i, h) for i, h in highs if h > 0]
    if not highs:
        return []
    highs.sort(key=lambda item: (-item[1], item[0]))
    highs = highs[:top]
    peak = highs[0][1]
    lines = ["queue high water (words)"]
    for i, high in highs:
        bar = "#" * max(1, int(high / peak * width))
        lines.append(f"  node {i:>4} {bar} {int(high)}")
    return lines


def _rate(value: Optional[float]) -> str:
    if value is None:
        return "-"
    for scale, suffix in ((1e9, "G"), (1e6, "M"), (1e3, "k")):
        if abs(value) >= scale:
            return f"{value / scale:.1f}{suffix}"
    return f"{value:.0f}"


def _eta(seconds: Optional[float]) -> str:
    if seconds is None:
        return "-"
    seconds = int(seconds)
    if seconds >= 3600:
        return f"{seconds // 3600}h{(seconds % 3600) // 60:02d}m"
    if seconds >= 60:
        return f"{seconds // 60}m{seconds % 60:02d}s"
    return f"{seconds}s"


def _header(point: SamplePoint) -> List[str]:
    derived = point.derived
    parts = [f"t={point.sim_now}", f"src={point.source}",
             f"wall={point.wall_s:.1f}s"]
    progress = derived.get("progress")
    if progress is not None:
        filled = int(progress * 20)
        bar = "#" * filled + "." * (20 - filled)
        parts.append(f"[{bar}] {progress * 100:5.1f}%")
        parts.append(f"ETA {_eta(derived.get('eta_s'))}")
    parts.append(f"{_rate(derived.get('cycles_per_sec'))} cyc/s")
    if "msgs_per_sec" in derived:
        parts.append(f"{_rate(derived.get('msgs_per_sec'))} msg/s")
    lines = ["J-Machine live  " + "  ".join(parts)]
    if derived.get("stalled"):
        stalled_for = derived.get("stalled_wall_s", 0)
        line = f"*** STALLED — no progress for {stalled_for:.1f}s wall"
        if point.stall:
            line += f", {point.stall['nodes_implicated']} nodes implicated"
        lines.append(line + " ***")
    return lines


def _counters(point: SamplePoint) -> List[str]:
    metrics = point.metrics
    lines = []
    net = []
    for key, label in (("net.in_flight", "in-flight"),
                       ("net.submitted", "submitted"),
                       ("net.completed", "completed"),
                       ("macro.messages_sent", "messages")):
        if key in metrics:
            net.append(f"{label} {int(metrics[key])}")
    if net:
        lines.append("net: " + "  ".join(net))
    chaos = {k[len("chaos."):]: v for k, v in metrics.items()
             if k.startswith("chaos.") and v}
    if chaos:
        lines.append("chaos: " + "  ".join(
            f"{k} {int(v)}" for k, v in sorted(chaos.items())))
    retries = {k: v for k, v in metrics.items()
               if k.startswith("reliable.") and v}
    if retries:
        lines.append("reliable: " + "  ".join(
            f"{k.split('.', 1)[1]} {int(v)}"
            for k, v in sorted(retries.items())))
    health = []
    if "events.collected" in metrics:
        health.append(f"events {int(metrics['events.collected'])}"
                      f" (dropped {int(metrics.get('events.dropped', 0))})")
    if "live.samples" in metrics:
        health.append(f"samples {int(metrics['live.samples'])}"
                      f" @ {metrics.get('live.sample_cost_us', 0):.0f}us")
        if metrics.get("live.ring_dropped"):
            health.append(f"ring dropped {int(metrics['live.ring_dropped'])}")
    if health:
        lines.append("health: " + "  ".join(health))
    return lines


def _fabric_pane(point: SamplePoint, top: int = 4) -> List[str]:
    """Congestion pane from the frame's fabric-observatory payload.

    Present only when the sampled fabric has a probe attached (the
    frame's ``fabric`` field rides the same JSON path locally and over
    SSE, so remote watch gets the pane too).
    """
    if point.fabric is None:
        return []
    from ..network.observatory import FabricReport, link_name

    fab = FabricReport.from_dict(point.fabric)
    lines = [f"fabric: {len(fab.links)} links observed  stalls "
             f"busy={fab.stalls['channel_busy']} "
             f"outage={fab.stalls['link_outage']} "
             f"backpressure={fab.stalls['backpressure']}"]
    ranked = fab.top_links(top)
    hot = "  ".join(
        f"{link_name(link)}={info['phits']}"
        f"{'*' if fab.is_midplane(link) else ''}"
        for link, info in ranked)
    if hot:
        lines.append(f"hot links (phits, *=midplane): {hot}")
    lines.extend(fab.heatmap(dim=0, z=0, direction=1).splitlines())
    return lines


def render_frame(point: SamplePoint, prev: Optional[SamplePoint] = None,
                 width: int = 72) -> str:
    """One dashboard frame as a plain-text block (no ANSI codes)."""
    lines = _header(point)
    heat = _heatmap(point, prev, width)
    if heat:
        lines.append("")
        lines.extend(heat)
    bars = _queue_bars(point)
    if bars:
        lines.append("")
        lines.extend(bars)
    fabric = _fabric_pane(point)
    if fabric:
        lines.append("")
        lines.extend(fabric)
    counters = _counters(point)
    if counters:
        lines.append("")
        lines.extend(counters)
    return "\n".join(lines)


def _emit(text: str, plain: bool, out) -> None:
    if plain:
        out.write(text + "\n" + "-" * 40 + "\n")
    else:
        out.write(_CLEAR + text + "\n")
    out.flush()


def watch_sampler(sampler: LiveSampler, done, plain: bool = False,
                  max_frames: Optional[int] = None, out=None) -> int:
    """Render frames from an in-process sampler until ``done()`` is true
    (and the ring is drained) or ``max_frames`` frames have been shown.
    Returns the number of frames rendered."""
    out = out if out is not None else sys.stdout
    shown = 0
    last_seq = -1
    prev: Optional[SamplePoint] = None
    while max_frames is None or shown < max_frames:
        frames = sampler.wait_for_frame(last_seq, timeout=0.25)
        if not frames:
            if done():
                break
            continue
        for point in frames:
            _emit(render_frame(point, prev), plain, out)
            prev = point
            last_seq = point.seq
            shown += 1
            if max_frames is not None and shown >= max_frames:
                break
    return shown


def watch_sse(url: str, plain: bool = False,
              max_frames: Optional[int] = None, out=None) -> int:
    """Render frames from a remote ``/stream`` endpoint; returns the
    number of frames rendered (the stream ending is not an error)."""
    from .serve import iter_sse

    out = out if out is not None else sys.stdout
    shown = 0
    prev: Optional[SamplePoint] = None
    stream = url.rstrip("/") + "/stream" if not url.endswith("/stream") \
        else url
    for data in iter_sse(stream):
        point = SamplePoint.from_dict(data)
        _emit(render_frame(point, prev), plain, out)
        prev = point
        shown += 1
        if max_frames is not None and shown >= max_frames:
            break
    return shown
