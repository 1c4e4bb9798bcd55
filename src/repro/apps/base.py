"""Shared structure for macro-benchmark applications.

Every application exposes the same surface so the benchmark harness can
drive them uniformly:

* ``run_parallel(n_nodes, params) -> AppResult`` — simulate the parallel
  program on a macro-simulated machine and verify its output.
* ``run_sequential(params) -> SequentialResult`` — the paper's speedup
  base case: a good sequential implementation, costed with the same
  per-operation constants but none of the parallel overheads.

``AppResult`` carries everything Figures 5 and 6 and Tables 4 and 5
need: run time in cycles, the per-node activity profiles, and per-handler
thread statistics.

Every ``run_parallel`` hands its prepared simulator to :func:`launch`
— the one attach-run-assemble sequence — then verifies its answer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional

from ..core.costs import CLOCK_HZ
from ..jsim.sim import HandlerStats, MacroSimulator

__all__ = ["AppResult", "SequentialResult", "launch", "speedup"]


@dataclass
class SequentialResult:
    """Cost of the single-node baseline implementation."""

    cycles: int
    output: Any = None

    @property
    def milliseconds(self) -> float:
        return self.cycles / CLOCK_HZ * 1e3


@dataclass
class AppResult:
    """Outcome of one parallel application run."""

    name: str
    n_nodes: int
    cycles: int
    output: Any
    handler_stats: Dict[str, HandlerStats]
    breakdown: Dict[str, float]
    sim: Optional[MacroSimulator] = field(default=None, repr=False)
    extra: Dict[str, Any] = field(default_factory=dict)

    @property
    def milliseconds(self) -> float:
        """Run time at the prototype's 12.5 MHz clock."""
        return self.cycles / CLOCK_HZ * 1e3

    def total_threads(self) -> int:
        return sum(s.invocations for s in self.handler_stats.values())

    def total_instructions(self) -> int:
        return sum(s.instructions for s in self.handler_stats.values())


def launch(name: str, sim: MacroSimulator, start: Callable[[], None], *,
           chaos=None, reliable=None, checkpoint=None, restore_from=None,
           sampler=None, run_limit: Optional[int] = None) -> AppResult:
    """Attach the rig to a prepared ``sim``, run it, assemble the result.

    ``sim`` has its state seeded and handlers registered; ``start()``
    injects the first messages.  The rig, each part optional:

    * ``chaos`` — a :class:`~repro.chaos.ChaosEngine` (fault injection);
    * ``reliable`` — ``True`` or :class:`~repro.runtime.rpc.ReliableLayer`
      kwargs (``{}`` too) adds the retransmitting transport that
      survives message loss; ``None`` / ``False`` is no transport;
    * ``checkpoint`` — a :class:`~repro.snapshot.CheckpointPolicy`;
    * ``restore_from`` — resume such a save instead of calling
      ``start``.  Restore loads state *into* ``sim`` (handlers are
      closures a snapshot cannot hold; docs/SNAPSHOT.md), so pass the
      app setup and rig of the saving run;
    * ``sampler`` — a read-only :class:`~repro.telemetry.live.LiveSampler`;
      ``run_limit`` seeds its progress/ETA denominator unless the
      caller pinned one (display-only, never a limit).

    ``output`` is left ``None`` for the app to verify and fill;
    ``extra["reliable"]`` carries the transport's counters.
    """
    if chaos is not None:
        chaos.attach_macro(sim)
    layer = None
    if reliable not in (None, False):
        from ..runtime.rpc import ReliableLayer

        layer = ReliableLayer(sim, **({} if reliable is True else reliable))
    sim.checkpoint = checkpoint
    if sampler is not None:
        sampler.attach(sim)
        if sampler.run_limit is None:
            sampler.run_limit = run_limit
    if restore_from is not None:
        sim.restore_state(restore_from)
    else:
        start()
    cycles = sim.run()
    return AppResult(
        name=name,
        n_nodes=sim.n_nodes,
        cycles=cycles,
        output=None,
        handler_stats=dict(sim.handler_stats),
        breakdown=sim.breakdown(),
        sim=sim,
        extra={} if layer is None else {"reliable": layer.stats()},
    )


def speedup(sequential: SequentialResult, parallel: AppResult) -> float:
    """Classic fixed-problem speedup: T_seq / T_par."""
    return sequential.cycles / parallel.cycles if parallel.cycles else 0.0
