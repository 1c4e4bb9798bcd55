"""Sampled demo workloads behind ``repro.telemetry serve`` / ``watch``.

Both CLI surfaces need a running simulation to observe; this module
runs any entry of the catalogue (:mod:`repro.apps.scenario`) — the
systolic LCS app on the macro level is the default (the paper's
Figure-5 workload; scalable to its real size with ``--scale 1``) — on
a background thread with a :class:`~repro.telemetry.live.LiveSampler`
attached, so the serving/rendering thread has a live frame ring to
read while the simulation makes progress.  A final forced sample on
completion makes the last frame equal the finished run's ``report()``
(the live-smoke gate asserts exactly this).
"""

from __future__ import annotations

import threading
from typing import Optional

from ..apps.scenario import CATALOGUE, run_scenario
from . import Telemetry
from .live import LiveSampler, SamplePolicy

__all__ = ["DemoRun", "start_demo", "WORKLOADS"]

WORKLOADS = tuple(CATALOGUE)

#: How the demo's one ``--scale`` knob maps onto an entry's params;
#: an entry not listed runs at the catalogue's defaults.
_SCALED = {
    "lcs": lambda scale: {"scale": scale},
    "ping": lambda scale: {"iterations": max(1, int(200 * scale))},
}


class DemoRun:
    """A demo workload in flight: its sampler plus completion state."""

    def __init__(self, sampler: LiveSampler) -> None:
        self.sampler = sampler
        #: The finished ``MacroSimulator`` / ``JMachine``.
        self.result = None
        self.error: Optional[BaseException] = None
        self._thread: Optional[threading.Thread] = None

    def done(self) -> bool:
        return self._thread is not None and not self._thread.is_alive()

    def join(self, timeout: Optional[float] = None) -> None:
        if self._thread is not None:
            self._thread.join(timeout)
        if self.error is not None:
            raise self.error


def start_demo(workload: str = "lcs", n_nodes: int = 64,
               scale: float = 0.25,
               every_cycles: Optional[int] = None,
               every_wall_s: Optional[float] = 0.5,
               ring: int = 512) -> DemoRun:
    """Launch a sampled demo workload on a daemon thread.

    The default policy is wall-clock driven (2 frames/sec) so the
    dashboard refreshes steadily regardless of simulation speed; pass
    ``every_cycles`` for deterministic frame times instead.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown demo workload {workload!r}; "
                         f"choose from {WORKLOADS}")
    policy = SamplePolicy(every_cycles=every_cycles,
                          every_wall_s=every_wall_s)
    run = DemoRun(LiveSampler(policy, ring=ring))

    def guarded():
        try:
            params = _SCALED.get(workload, lambda scale: {})(scale)
            finished = run_scenario(workload, n_nodes, params,
                                    telemetry=Telemetry(),
                                    sampler=run.sampler)
            # Final frame at the end state: equals a subsequent report().
            run.sampler.sample(finished.target, finished.cycles)
            run.result = finished.target
        except BaseException as exc:  # surfaced by join()
            run.error = exc

    thread = threading.Thread(target=guarded,
                              name=f"demo-{workload}", daemon=True)
    run._thread = thread
    thread.start()
    return run
