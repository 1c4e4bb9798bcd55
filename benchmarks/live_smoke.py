"""Live-monitoring smoke: headless watch of one sampled LCS run.

The ``make live-smoke`` entry point (chained into ``make check``).  It
drives the whole live-monitoring surface end to end:

* runs the systolic LCS app with a :class:`LiveSampler` attached
  (cycle-interval policy, so frame times are deterministic) while the
  terminal dashboard renders every frame headlessly (``--plain`` mode,
  output captured);
* asserts the frame stream is monotone — strictly increasing ``seq``
  and ``sim_now``, non-decreasing ``progress`` — and that the final
  forced frame's metrics equal a post-run ``report()`` exactly
  (minus ``live.sample_cost_us``, which by design accrues *after* the
  frame's registry snapshot);
* serves the finished sampler over HTTP and asserts ``/metrics``
  parses as Prometheus text exposition, ``/snapshot.json`` is the last
  frame, and ``/stream`` replays ≥2 SSE frames.

Usage::

    PYTHONPATH=src python benchmarks/live_smoke.py --smoke
"""

from __future__ import annotations

import argparse
import io
import json
import os
import re
import sys
import urllib.request

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
sys.path.insert(0, SRC)

from repro.telemetry.demo import start_demo  # noqa: E402
from repro.telemetry.serve import LiveServer, iter_sse  # noqa: E402
from repro.telemetry.watch import watch_sampler  # noqa: E402

LCS_NODES = 16
LCS_SCALE = 0.1
SAMPLE_EVERY = 20_000

#: Prometheus text exposition 0.0.4: a metric line is
#: ``name{labels} value`` with the label block optional.
_PROM_LINE = re.compile(
    r'^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="[^"]*"'
    r'(,[a-zA-Z_][a-zA-Z0-9_]*="[^"]*")*\})? -?[0-9.eE+-]+$')


def _check_monotone(frames) -> None:
    assert len(frames) >= 2, (
        f"expected >=2 frames from a sampled LCS run, got {len(frames)}")
    last_progress = -1.0
    for prev, point in zip(frames, frames[1:]):
        assert point.seq == prev.seq + 1, (
            f"frame seq not contiguous: {prev.seq} -> {point.seq}")
        assert point.sim_now > prev.sim_now, (
            f"frame sim_now not increasing: {prev.sim_now} -> "
            f"{point.sim_now}")
    for point in frames:
        progress = point.derived.get("progress")
        if progress is not None:
            assert progress >= last_progress, (
                f"progress went backwards: {last_progress} -> {progress}")
            last_progress = progress


def _check_final_frame(run) -> None:
    final = run.sampler.latest()
    report = run.result.report()
    want = dict(report.metrics)
    got = dict(final.metrics)
    # The mean sample cost is updated after each frame's snapshot (the
    # frame cannot observe its own not-yet-finished cost), so it is the
    # one metric allowed to differ between the last frame and report().
    want.pop("live.sample_cost_us", None)
    got.pop("live.sample_cost_us", None)
    assert got == want, (
        "final frame != report(): "
        + str({k: (got.get(k), want.get(k))
               for k in set(got) | set(want) if got.get(k) != want.get(k)}))


def _check_http(sampler) -> None:
    server = LiveServer(sampler)
    url = server.start_background()
    try:
        body = urllib.request.urlopen(url + "/metrics",
                                      timeout=10).read().decode()
        lines = [line for line in body.splitlines()
                 if line and not line.startswith("#")]
        assert lines, "/metrics served no metric lines"
        for line in lines:
            assert _PROM_LINE.match(line), (
                f"/metrics line is not exposition format: {line!r}")
        snap = json.loads(urllib.request.urlopen(
            url + "/snapshot.json", timeout=10).read())
        assert snap["seq"] == sampler.latest().seq, (
            f"/snapshot.json seq {snap['seq']} != latest frame "
            f"{sampler.latest().seq}")
        streamed = []
        for frame in iter_sse(url + "/stream", timeout=10):
            streamed.append(frame)
            if len(streamed) >= 2:
                break
        assert len(streamed) >= 2, (
            f"/stream replayed {len(streamed)} frames, expected >=2")
        assert streamed[0]["seq"] < streamed[1]["seq"]
    finally:
        server.stop()
    print(f"live-smoke: HTTP OK — {len(lines)} exposition lines, "
          f"snapshot seq {snap['seq']}, {len(streamed)} SSE frames")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--smoke", action="store_true",
                        help="assert the live-monitoring contract "
                             "(make live-smoke); currently the only mode")
    parser.parse_args(argv)

    run = start_demo(workload="lcs", n_nodes=LCS_NODES, scale=LCS_SCALE,
                     every_cycles=SAMPLE_EVERY, every_wall_s=None)
    screen = io.StringIO()
    shown = watch_sampler(run.sampler, done=run.done, plain=True,
                          out=screen)
    run.join(timeout=120)
    assert run.done(), "LCS demo run did not finish"

    frames = list(run.sampler.points)
    _check_monotone(frames)
    _check_final_frame(run)
    rendered = screen.getvalue()
    assert "J-Machine live" in rendered and "utilization" in rendered, (
        "headless watch rendered no dashboard frames")
    print(f"live-smoke: watch OK — {shown} frames rendered headlessly, "
          f"{run.sampler.samples} samples, final t="
          f"{frames[-1].sim_now}, progress "
          f"{frames[-1].derived.get('progress', 0) * 100:.0f}%")
    _check_http(run.sampler)
    print("live-smoke: PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
