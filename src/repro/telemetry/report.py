"""SimReport: one JSON artifact summarizing a whole run.

A report is a flat ``{metric-name: number}`` snapshot of a
:class:`~repro.telemetry.metrics.MetricsRegistry` plus a small ``meta``
block (what ran, at what size, for how many cycles).  Because the
registry is pull-based, a report can be taken from *any* machine — one
with a full telemetry rig attached, or a bare one (an ad-hoc registry is
wired on the spot).  Reports serialize to JSON, diff against each other,
and answer "hottest handler" style questions, which gives benchmarks and
the CLI (``python -m repro.telemetry report``) one common currency.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Tuple, Union

from .metrics import MetricsRegistry

__all__ = ["SimReport"]

Number = Union[int, float]


class SimReport:
    """An immutable-by-convention snapshot of one simulation run."""

    def __init__(self, metrics: Dict[str, Number],
                 meta: Optional[Dict[str, Any]] = None) -> None:
        self.metrics = dict(metrics)
        self.meta = dict(meta or {})

    # -- construction --------------------------------------------------------

    @classmethod
    def from_registry(cls, registry: MetricsRegistry,
                      meta: Optional[Dict[str, Any]] = None) -> "SimReport":
        return cls(registry.snapshot(), meta)

    @classmethod
    def from_machine(cls, machine,
                     meta: Optional[Dict[str, Any]] = None) -> "SimReport":
        """Snapshot a cycle-level :class:`~repro.machine.jmachine.JMachine`
        through :func:`~repro.telemetry.wiring.registry_for`."""
        from .wiring import registry_for

        full_meta = {
            "kind": "machine",
            "nodes": machine.mesh.n_nodes,
            "cycles": machine.now,
        }
        probe = getattr(machine.fabric, "probe", None)
        if probe is not None:
            from ..network.observatory import FabricReport

            full_meta["fabric"] = FabricReport.from_fabric(
                machine.fabric, machine.now).to_dict()
        full_meta.update(meta or {})
        return cls.from_registry(registry_for(machine), full_meta)

    @classmethod
    def from_macro(cls, sim,
                   meta: Optional[Dict[str, Any]] = None) -> "SimReport":
        """Snapshot a :class:`~repro.jsim.sim.MacroSimulator` through
        :func:`~repro.telemetry.wiring.registry_for`."""
        from .wiring import registry_for

        full_meta = {
            "kind": "macro",
            "nodes": sim.n_nodes,
            "cycles": sim.end_time,
        }
        full_meta.update(meta or {})
        return cls.from_registry(registry_for(sim), full_meta)

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return {"meta": self.meta, "metrics": self.metrics}

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=1, sort_keys=True)

    @classmethod
    def load(cls, path: str) -> "SimReport":
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        return cls(data.get("metrics", {}), data.get("meta", {}))

    # -- queries -------------------------------------------------------------

    def total(self, suffix: str) -> Number:
        """Sum of every metric whose name ends with ``.suffix``."""
        tail = f".{suffix}"
        return sum(v for k, v in self.metrics.items() if k.endswith(tail))

    def top(self, prefix: str, suffix: str, n: int = 5
            ) -> List[Tuple[str, Number]]:
        """The ``n`` largest ``<prefix><middle><suffix>`` metrics.

        ``top("handler.", ".cycles")`` ranks macro handlers by cycles;
        the returned names are the middles (the handler names).
        """
        found = [
            (k[len(prefix):len(k) - len(suffix)], v)
            for k, v in self.metrics.items()
            if k.startswith(prefix) and k.endswith(suffix)
        ]
        found.sort(key=lambda item: (-item[1], item[0]))
        return found[:n]

    def diff(self, other: "SimReport") -> Dict[str, Tuple[Optional[Number],
                                                          Optional[Number]]]:
        """``{name: (self_value, other_value)}`` for every difference.

        Metrics present on only one side appear with ``None`` on the
        other; identical values are omitted.
        """
        out: Dict[str, Tuple[Optional[Number], Optional[Number]]] = {}
        for name in sorted(set(self.metrics) | set(other.metrics)):
            a = self.metrics.get(name)
            b = other.metrics.get(name)
            if a != b:
                out[name] = (a, b)
        return out

    # -- rendering -----------------------------------------------------------

    def format(self, limit: Optional[int] = None) -> str:
        """A human-readable listing (meta block, then sorted metrics)."""
        lines = []
        for k, v in sorted(self.meta.items()):
            if k == "fabric" and isinstance(v, dict):
                links = len(v.get("links", {}))
                lines.append(f"# fabric: {links} links observed "
                             "(see --fabric / FabricReport)")
            else:
                lines.append(f"# {k}: {v}")
        names = sorted(self.metrics)
        shown = names if limit is None else names[:limit]
        width = max((len(n) for n in shown), default=0)
        for name in shown:
            lines.append(f"{name:<{width}}  {_fmt(self.metrics[name])}")
        if limit is not None and len(names) > limit:
            lines.append(f"... {len(names) - limit} more metrics")
        return "\n".join(lines)

    def format_diff(self, other: "SimReport") -> str:
        """A two-column diff listing (self vs other)."""
        diff = self.diff(other)
        if not diff:
            return "(no metric differences)"
        width = max(len(n) for n in diff)
        lines = [f"{'metric':<{width}}  {'a':>14}  {'b':>14}  {'delta':>14}"]
        for name, (a, b) in diff.items():
            delta = "" if a is None or b is None else _fmt(b - a)
            lines.append(
                f"{name:<{width}}  {_fmt(a):>14}  {_fmt(b):>14}  {delta:>14}"
            )
        return "\n".join(lines)


def _fmt(value: Optional[Number]) -> str:
    if value is None:
        return "-"
    if isinstance(value, float) and not value.is_integer():
        return f"{value:.3f}"
    return str(int(value))
