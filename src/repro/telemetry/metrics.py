"""The metrics registry: pull sources flattened into one snapshot.

The paper's authors lament that the J-Machine "lacked hardware for
collecting statistics"; this module is the statistics hardware the
simulator gets instead.  Every subsystem registers its measurements under
hierarchical dotted names (``node.3.proc.comm_cycles``,
``net.latency.p50``) and a single :meth:`MetricsRegistry.snapshot` turns
the whole machine's state into one flat ``{name: number}`` dict — the raw
material of :class:`~repro.telemetry.report.SimReport`.

A registration is a *pull source* (:meth:`MetricsRegistry.register_source`)
over counters a subsystem already maintains (``MdpCounters``,
``NetworkStats``, ``Profile``...).  It costs *nothing* during simulation
— the callable only runs at snapshot time — which is why telemetry is
zero-cost when disabled: with no telemetry attached no source is
registered and no hot path changes.  The families a registry can hold
are declared once, in :data:`repro.telemetry.wiring.METRIC_FAMILIES`.

A source returning a :class:`~repro.network.stats.LatencySummary` is a
histogram: one quantile implementation for the whole codebase,
mergeable across nodes.
"""

from __future__ import annotations

from typing import Callable, Dict, Tuple, Union

from ..network.stats import LatencySummary

__all__ = ["MetricsRegistry"]

Number = Union[int, float]
SourceValue = Union[Number, Dict[str, Number], LatencySummary]
Source = Callable[[], SourceValue]


class MetricsRegistry:
    """Hierarchical name -> source map with flat snapshots.

    Names are dotted paths; the registry itself imposes no tree
    structure (a flat dict with dots is trivially groupable), but the
    naming schema is declared in :mod:`repro.telemetry.wiring` and
    documented in docs/OBSERVABILITY.md, and a test keeps them equal.
    """

    def __init__(self) -> None:
        self._sources: Dict[str, Source] = {}

    # -- registration -------------------------------------------------------

    def register_source(self, name: str, fn: Source) -> None:
        """Register a pull source sampled only at snapshot time.

        ``fn`` may return a scalar, a ``{suffix: scalar}`` dict (each key
        appears as ``name.suffix``), or a :class:`LatencySummary` (which
        expands to its ``count``/``mean``/``p50``/... fields).
        """
        if name in self._sources:
            raise ValueError(f"metric name {name!r} already registered")
        self._sources[name] = fn

    # -- reading ------------------------------------------------------------

    def names(self) -> Tuple[str, ...]:
        return tuple(sorted(self._sources))

    def snapshot(self) -> Dict[str, Number]:
        """One flat ``{dotted-name: number}`` view of everything."""
        flat: Dict[str, Number] = {}
        for name, fn in self._sources.items():
            value = fn()
            if isinstance(value, LatencySummary):
                value = value.snapshot()
            if isinstance(value, dict):
                for suffix, scalar in value.items():
                    flat[f"{name}.{suffix}"] = scalar
            else:
                flat[name] = value
        return dict(sorted(flat.items()))
