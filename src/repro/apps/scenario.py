"""The catalogue of named runs, and the one way to run them.

The paper's evaluation is one fixed set of programs re-run at different
machine sizes with different measurement attached.  Everything that
drives a program *by name* — the job service, the chaos harness, the
telemetry demo, the snapshot CLI — reads :data:`CATALOGUE` for which
runs exist and what parameters each takes, checks them with
:func:`validate`, and runs through :func:`run_scenario`.  Macro-level
entries end in :func:`repro.apps.base.launch`; the cycle-level attach
sequence is the one here.  docs/ARCHITECTURE.md ("Named runs").

Importing this module loads no simulator (the service's front end
validates specs with it); each entry imports its own on first run.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Dict, NamedTuple, Optional, Tuple

from ..core.errors import ConfigurationError

__all__ = ["Scenario", "ScenarioRun", "CATALOGUE", "validate", "run_scenario"]


class Scenario(NamedTuple):
    """One named run."""

    #: ``"macro"`` (event-level, the full rig applies) or ``"cycle"``
    #: (real MDP code: telemetry, checkpointing and sampling only).
    level: str
    #: Parameter name -> (coercion type, default).
    schema: Dict[str, Tuple[type, Any]]
    #: macro: ``(n_nodes, params, **rig) -> AppResult``;
    #: cycle: ``(machine, params)``, runs a built, rigged machine.
    run: Callable


class ScenarioRun(NamedTuple):
    """What :func:`run_scenario` hands back."""

    cycles: int
    output: Any
    #: The finished ``MacroSimulator`` / ``JMachine`` (``.telemetry``,
    #: ``.report()``, ``.now``).
    target: Any
    extra: Dict[str, Any]


def _lcs(n_nodes: int, params: Dict[str, Any], **rig):
    from . import lcs

    return lcs.run_parallel(
        n_nodes, lcs.LcsParams(seed=params["seed"]).scaled(params["scale"]),
        **rig)


def _nqueens(n_nodes: int, params: Dict[str, Any], **rig):
    from . import nqueens

    return nqueens.run_parallel(n_nodes, nqueens.NQueensParams(**params),
                                **rig)


def _ping(machine, params: Dict[str, Any]) -> None:
    from ..runtime.rpc import run_ping

    run_ping(machine, 0, len(machine.nodes) - 1,
             iterations=params["iterations"], stop="quiescent")


CATALOGUE: Dict[str, Scenario] = {
    "lcs": Scenario("macro", {"scale": (float, 0.02),
                              "seed": (int, 20130501)}, _lcs),
    "nqueens": Scenario("macro", {"n": (int, 8),
                                  "tasks_per_node": (int, 4)}, _nqueens),
    "ping": Scenario("cycle", {"iterations": (int, 50)}, _ping),
}


def validate(app: str, params: Optional[Dict[str, Any]] = None, *,
             chaos=None, reliable=None) -> Dict[str, Any]:
    """The fully-defaulted, coerced params of a run — or a rejection.

    :class:`ConfigurationError` for an unknown ``app`` or param, a value
    its schema type refuses, a non-finite number, and fault injection
    or the reliable transport (macro-level mechanisms) on a cycle-level
    entry.
    """
    entry = CATALOGUE.get(app)
    if entry is None:
        raise ConfigurationError(
            f"unknown app {app!r}; expected one of {tuple(CATALOGUE)}")
    params = dict(params or {})
    unknown = set(params) - set(entry.schema)
    if unknown:
        raise ConfigurationError(
            f"unknown {app} params {sorted(unknown)}; "
            f"expected a subset of {sorted(entry.schema)}")
    out = {}
    for name, (kind, default) in entry.schema.items():
        raw = params.get(name, default)
        try:
            value = kind(raw)
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(raw)
        except (TypeError, ValueError, OverflowError):
            raise ConfigurationError(
                f"{app} param {name!r} must be a finite {kind.__name__}, "
                f"got {raw!r}") from None
        out[name] = value
    if entry.level == "cycle" and (
            chaos is not None or reliable not in (None, False)):
        raise ConfigurationError(
            f"{app} is a cycle-level run; macro fault plans and the "
            "reliable transport do not apply")
    return out


def run_scenario(app: str, n_nodes: int,
                 params: Optional[Dict[str, Any]] = None, *,
                 telemetry=None, chaos=None, reliable=None, checkpoint=None,
                 restore_from=None, sampler=None) -> ScenarioRun:
    """Run (or resume) the named run on ``n_nodes`` with a rig attached.

    ``restore_from`` is a checkpoint this same call (same arguments)
    wrote through ``checkpoint``; the resumed event stream is
    digest-equal to an uninterrupted run's.  A cycle-level snapshot
    carries its own telemetry rig: read ``run.target.telemetry``.
    """
    params = validate(app, params, chaos=chaos, reliable=reliable)
    entry = CATALOGUE[app]
    if entry.level == "macro":
        result = entry.run(n_nodes, params, telemetry=telemetry,
                           chaos=chaos, reliable=reliable,
                           checkpoint=checkpoint, restore_from=restore_from,
                           sampler=sampler)
        return ScenarioRun(result.cycles, result.output, result.sim,
                           result.extra)
    from ..machine.jmachine import JMachine

    if restore_from is not None:
        machine = JMachine.restore(restore_from)
    else:
        machine = JMachine.build(n_nodes, telemetry=telemetry)
    machine.checkpoint = checkpoint  # keeps saving on a resumed leg too
    if sampler is not None:
        sampler.attach(machine)
    if restore_from is not None:
        machine.run_until_quiescent()
    else:
        entry.run(machine, params)
    return ScenarioRun(machine.now, {"final_cycle": machine.now}, machine, {})
