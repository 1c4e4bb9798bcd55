"""Run macro benchmarks under a fault plan — the chaos sweep's engine.

This module is the shared plumbing behind ``benchmarks/chaos_sweep.py``
and ``python -m repro.chaos replay``: run one of the catalogue's
macro-level entries (:mod:`repro.apps.scenario`) with a
:class:`~repro.chaos.plan.FaultPlan` attached and the reliable
transport enabled, and report what happened — completion, correctness,
cycle overhead, retry counts, and a fingerprint of the telemetry event
stream (the thing the determinism gate compares).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Any, Dict, Optional

from ..apps.scenario import CATALOGUE, run_scenario
from ..core.errors import SimulationError
from ..telemetry import Telemetry
from .engine import ChaosEngine
from .plan import FaultPlan

__all__ = ["ChaosRunResult", "run_app_under_plan", "APPS"]

#: Benchmarks the harness knows how to run under chaos: the
#: catalogue's macro-level entries.
APPS = tuple(name for name, entry in CATALOGUE.items()
             if entry.level == "macro")

#: Events a chaos run keeps before its bus counts drops.
EVENT_LIMIT = 2_000_000


@dataclass
class ChaosRunResult:
    """One benchmark run under one fault plan."""

    app: str
    n_nodes: int
    plan_name: str
    seed: int
    completed: bool
    correct: bool
    cycles: int = 0
    error: str = ""
    chaos: Dict[str, int] = field(default_factory=dict)
    reliable: Dict[str, int] = field(default_factory=dict)
    fingerprint: str = ""
    n_events: int = 0

    def to_dict(self) -> Dict[str, Any]:
        return {("plan" if name == "plan_name" else name): value
                for name, value in asdict(self).items()}


def run_app_under_plan(
    plan: FaultPlan,
    *,
    app: str,
    n_nodes: int,
    scale: Optional[float] = None,
    reliable: Any = True,
    events: bool = True,
) -> ChaosRunResult:
    """Run one macro benchmark under ``plan`` and summarize the outcome.

    ``scale`` overrides the catalogue default of an entry that takes
    one (the LCS instance as a fraction of the paper's 1024 x 4096
    problem); everything else runs at the catalogue's defaults.
    ``reliable`` is forwarded to the app (True, False, or ReliableLayer
    kwargs).  A failed run (deadlock, delivery give-up, wrong answer)
    is *caught* and reported, not raised — a chaos sweep's whole point
    is measuring the failure rate.
    """
    if app not in APPS:
        raise ValueError(f"unknown chaos app {app!r}; expected one of {APPS}")
    params = {}
    if scale is not None and "scale" in CATALOGUE[app].schema:
        params["scale"] = scale
    telemetry = Telemetry(events=events, event_limit=EVENT_LIMIT)
    engine = ChaosEngine(plan)
    result = ChaosRunResult(app=app, n_nodes=n_nodes, plan_name=plan.name,
                            seed=plan.seed, completed=False, correct=False)
    try:
        run = run_scenario(app, n_nodes, params, telemetry=telemetry,
                           chaos=engine, reliable=reliable)
        result.completed = True
        result.correct = True  # every app verifies its own output
        result.cycles = run.cycles
        result.reliable = run.extra.get("reliable", {})
    except SimulationError as err:
        result.error = f"{type(err).__name__}: {err}"
    result.chaos = engine.summary()
    if telemetry.events is not None:
        result.fingerprint = telemetry.events.fingerprint()
        result.n_events = len(telemetry.events)
    return result
