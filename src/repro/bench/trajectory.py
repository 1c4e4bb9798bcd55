"""Render and gate the committed perf-trajectory artifacts.

``make perfsmoke`` and ``make snapshot-smoke`` accumulate one
timestamped entry per run into ``BENCH_simspeed.json`` and
``BENCH_snapshot.json`` (see ``benchmarks/append_trajectory.py``) — but
until this module those histories were write-only.  ``python -m
repro.bench trajectory`` renders them as per-benchmark tables with an
ASCII sparkline per series, and exits non-zero when the newest point
regresses beyond the documented noise allowance.

The thresholds are the telemetry-overhead gate's, defined here as the
single source of truth (``benchmarks/check_telemetry_overhead.py``
imports them): a 3% contract plus a 5% shared-host noise allowance.
The regression rule is deliberately conservative about the artifacts'
measured run-to-run spread (the committed history shows >50% swings on
single benchmarks between adjacent runs on the shared host):

* the newest entry is compared against the **median of all prior
  points**, not the best one — a single lucky early measurement must
  not condemn every later run;
* a series is only gated once it has at least :data:`MIN_PRIOR_POINTS`
  prior entries — below that the median is itself noise;
* a series the newest run no longer reports (its benchmark was
  deleted) has *ended*: its history is rendered, its last point judged
  nothing;
* benchmark *time* minima and snapshot payload *bytes* are gated;
  snapshot save/restore *latencies* are rendered but informational
  (they measure the smoke harness's subprocess environment as much as
  the code).

Exit status: 0 clean, 1 regression, 2 unusable artifact.
"""

from __future__ import annotations

import json
import os
import sys
from typing import Dict, List, Optional, Tuple

__all__ = ["CONTRACT", "NOISE_ALLOWANCE", "LIMIT", "MIN_PRIOR_POINTS",
           "load_series", "sparkline", "check_series", "render", "main"]

#: The overhead contract: instrumentation stays within 3%.
CONTRACT = 0.03
#: Measurement-noise allowance on the shared single-core CI host (see
#: benchmarks/check_telemetry_overhead.py for the measured basis).
NOISE_ALLOWANCE = 0.05
#: A trajectory point is a regression when it exceeds the median of its
#: priors by more than this.
LIMIT = CONTRACT + NOISE_ALLOWANCE
#: Series shorter than this (priors, excluding the newest point) are
#: rendered but not gated: a median of one or two shared-host
#: measurements is itself noise.
MIN_PRIOR_POINTS = 3

#: Sparkline glyphs, low→high.
_SPARKS = "▁▂▃▄▅▆▇█"


def sparkline(values: List[float]) -> str:
    """One glyph per value, scaled to the series' own min..max."""
    if not values:
        return ""
    lo, hi = min(values), max(values)
    if hi <= lo:
        return _SPARKS[0] * len(values)
    span = hi - lo
    return "".join(
        _SPARKS[min(len(_SPARKS) - 1,
                    int((v - lo) / span * (len(_SPARKS) - 1) + 0.5))]
        for v in values)


def _median(values: List[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2


Series = Dict[str, List[Tuple[str, Optional[float], bool]]]


def load_series(path: str) -> Tuple[Series, Series]:
    """Read one trajectory artifact into ``(gated, informational)``.

    Both maps are ``{series-name: [(datetime, value, dirty), ...]}``,
    oldest first, one point per run from the series' first appearance
    on: a run that no longer reports it contributes a ``None`` value.
    Gated series are benchmark ``min`` seconds and snapshot payload
    bytes; informational ones are snapshot save/restore latencies.
    """
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    trajectory = data.get("trajectory")
    if not trajectory:
        raise ValueError(f"{path} has no trajectory entries")
    gated: Series = {}
    info: Series = {}
    for entry in trajectory:
        stamp = (entry.get("datetime") or "?")[:19]
        dirty = bool(entry.get("dirty"))
        gated_now = {name: stats.get("min") for name, stats
                     in (entry.get("benchmarks") or {}).items()}
        info_now = {}
        for level, snap in (entry.get("snapshot") or {}).items():
            gated_now[f"snapshot.{level}.bytes"] = snap.get("bytes")
            for field in ("save_s", "restore_s"):
                info_now[f"snapshot.{level}.{field}"] = snap.get(field)
        for series, now in ((gated, gated_now), (info, info_now)):
            for name in series.keys() | now.keys():
                series.setdefault(name, []).append(
                    (stamp, now.get(name), dirty))
    return gated, info


def check_series(points: List[Tuple[str, Optional[float], bool]]
                 ) -> Tuple[str, Optional[float]]:
    """Judge one gated series; returns ``(verdict, overhead-or-None)``.

    Verdicts: ``"ok"``, ``"REGRESSION"``, ``"ungated"`` (not enough
    priors) or ``"ended"`` (the newest run did not report it).  The
    overhead is newest/median(priors) - 1 when computable.
    """
    if points and points[-1][1] is None:
        return "ended", None
    values = [value for _stamp, value, _dirty in points
              if value is not None]
    if len(values) < 2:
        return "ungated", None
    newest = values[-1]
    priors = values[:-1]
    baseline = _median(priors)
    overhead = (newest / baseline - 1.0) if baseline > 0 else None
    if len(priors) < MIN_PRIOR_POINTS:
        return "ungated", overhead
    if overhead is not None and overhead > LIMIT:
        return "REGRESSION", overhead
    return "ok", overhead


def _fmt_value(name: str, value: Optional[float]) -> str:
    if value is None:
        return "-"
    if name.endswith(".bytes"):
        return f"{value / 1e6:.2f}MB" if value >= 1e6 else f"{int(value)}B"
    return f"{value:.4f}s"


def render(path: str, gate: bool = True) -> Tuple[str, int]:
    """Format one artifact; returns ``(text, exit-status)``."""
    gated, info = load_series(path)
    lines = [f"# {os.path.basename(path)} — "
             f"{max(len(p) for p in gated.values())} runs, "
             f"gate: newest ≤ median(priors) × {1 + LIMIT:.2f} "
             f"(≥{MIN_PRIOR_POINTS} priors)"]
    status = 0
    width = max(len(name) for name in list(gated) + list(info))
    for name in sorted(gated):
        points = gated[name]
        verdict, overhead = check_series(points)
        values = [v for _s, v, _d in points if v is not None]
        spark = sparkline(values)
        delta = f"{overhead:+.1%}" if overhead is not None else "    -"
        dirty = "*" if points[-1][2] and verdict != "ended" else " "
        lines.append(
            f"{name:<{width}}  {spark:<12} "
            f"{_fmt_value(name, values[-1] if values else None):>10}{dirty} "
            f"{delta:>7} vs median  {verdict}")
        if verdict == "REGRESSION" and gate:
            status = 1
    for name in sorted(info):
        points = info[name]
        values = [v for _s, v, _d in points if v is not None]
        spark = sparkline(values)
        dirty = "*" if points[-1][2] else " "
        lines.append(
            f"{name:<{width}}  {spark:<12} "
            f"{_fmt_value(name, values[-1] if values else None):>10}{dirty} "
            f"{'':>7} (informational)")
    if any(p[-1][2] for p in list(gated.values()) + list(info.values())):
        lines.append("(* = newest point measured on a dirty tree)")
    return "\n".join(lines), status


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    gate = True
    if "--no-gate" in argv:
        gate = False
        argv.remove("--no-gate")
    paths = [arg for arg in argv if not arg.startswith("-")]
    if not paths:
        root = os.getcwd()
        paths = [p for p in (os.path.join(root, "BENCH_simspeed.json"),
                             os.path.join(root, "BENCH_snapshot.json"))
                 if os.path.exists(p)]
        if not paths:
            print("trajectory: no BENCH_*.json artifacts found "
                  "(run 'make perfsmoke' / 'make snapshot-smoke')",
                  file=sys.stderr)
            return 2
    status = 0
    for path in paths:
        try:
            text, code = render(path, gate=gate)
        except (OSError, ValueError, KeyError) as exc:
            print(f"trajectory: cannot read {path}: {exc}",
                  file=sys.stderr)
            return 2
        print(text)
        print()
        status = max(status, code)
    if status:
        print("trajectory: REGRESSION beyond the noise allowance "
              f"({LIMIT:.0%} over the median of prior points)")
    return status


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
