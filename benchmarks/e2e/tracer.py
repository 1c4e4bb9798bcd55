"""Span recorder and profile folding for the traced (``--trace 1``) pass.

Spans are recorded from the benchmark's side of each layer boundary:
one around the workload, one per pass phase (setup / prepare / run /
verify of each unit).  A ``run`` span also carries that unit's
``cProfile`` statistics folded into layers by source path, so the
layer's self time inside the span is known without touching ``src/``.
Everything stays in memory until :meth:`Tracer.write`.
"""

from __future__ import annotations

import cProfile
import json
import os
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from typing import Any, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))

#: Layers are this repo's packages; the hot modules get their own row.
LAYERS = (
    "core.fastpath", "core.processor", "core.other",
    "network.fabric", "network.vectorize", "network.other",
    "machine", "jsim.sim", "jsim.netmodel", "apps",
    "telemetry", "snapshot", "chaos", "parallel", "service", "other",
)

_MODULE_LAYERS = {
    ("core", "fastpath"): "core.fastpath",
    ("core", "processor"): "core.processor",
    ("network", "fabric"): "network.fabric",
    ("network", "vectorize"): "network.vectorize",
    ("jsim", "sim"): "jsim.sim",
    ("jsim", "netmodel"): "jsim.netmodel",
}
_PACKAGE_LAYERS = {
    "core": "core.other", "network": "network.other", "machine": "machine",
    "apps": "apps", "telemetry": "telemetry", "snapshot": "snapshot",
    "chaos": "chaos", "parallel": "parallel", "service": "service",
}


def layer_of(code: Any) -> Optional[str]:
    """The layer owning a profiled function, or None for builtins and
    stdlib (whose time :func:`fold` hands to the calling layer)."""
    filename = getattr(code, "co_filename", None)
    if filename is None:
        return None  # builtin: cProfile names it with a string
    marker = f"{os.sep}src{os.sep}repro{os.sep}"
    at = filename.rfind(marker)
    if at >= 0:
        parts = filename[at + len(marker):].split(os.sep)
        package = parts[0]
        module = parts[1][:-3] if len(parts) > 1 else ""
        return (_MODULE_LAYERS.get((package, module))
                or _PACKAGE_LAYERS.get(package, "other"))
    if filename.startswith(HERE):
        return "other"  # the benchmark's own drivers
    return None


def fold(entries) -> Tuple[Dict[str, float], Dict[str, int]]:
    """Fold ``cProfile`` entries into (self seconds, calls) per layer.

    A repo function's inline time goes to its layer.  A builtin or
    stdlib function's inline time is split over the layers that called
    it, following the caller edges through other foreign functions (a
    ``random.randrange`` under ``network.traffic`` is network time, and
    so is the ``getrandbits`` beneath it).
    """
    seconds: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    inbound: Dict[Any, List[Tuple[Any, float]]] = defaultdict(list)
    for entry in entries:
        layer = layer_of(entry.code)
        if layer is not None:
            seconds[layer] += entry.inlinetime
            calls[layer] += entry.callcount
        for sub in entry.calls or ():
            if layer_of(sub.code) is None:
                inbound[sub.code].append((entry.code, sub.inlinetime))
    share: Dict[Any, Dict[str, float]] = {}
    for _ in range(6):  # stdlib call chains under a repo caller are short
        for callee, edges in inbound.items():
            split: Dict[str, float] = defaultdict(float)
            for caller, inline in edges:
                layer = layer_of(caller)
                if layer is not None:
                    split[layer] += inline
                    continue
                upstream = share.get(caller)
                total = sum(upstream.values()) if upstream else 0.0
                if total:
                    for name, value in upstream.items():
                        split[name] += inline * value / total
                else:
                    split["other"] += inline
            share[callee] = split
    for split in share.values():
        for name, value in split.items():
            seconds[name] += value
    return dict(seconds), dict(calls)


class NullTracer:
    """Tracing off (``--trace 0``): no spans, no profiler."""

    def span(self, name: str, profile: bool = False):
        return nullcontext()

    def profiled(self, fn, *args):
        return fn(*args)


class Tracer:
    """In-memory spans sharing one ``run_id``; written at exit."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: List[Dict[str, Any]] = []
        self._stack: List[int] = []
        self._profile: Optional[cProfile.Profile] = None
        self.layer_seconds: Dict[str, float] = defaultdict(float)
        self.layer_calls: Dict[str, int] = defaultdict(int)
        self._origin = time.perf_counter()

    @contextmanager
    def span(self, name: str, profile: bool = False):
        index = len(self.spans)
        record = {"name": name, "run_id": self.run_id,
                  "parent": self._stack[-1] if self._stack else None,
                  "start": time.perf_counter() - self._origin, "end": None}
        self.spans.append(record)
        self._stack.append(index)
        if profile:
            self._profile = cProfile.Profile()
        try:
            yield record
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter() - self._origin
            if profile:
                seconds, calls = fold(self._profile.getstats())
                self._profile = None
                record["layers"] = seconds
                for layer, value in seconds.items():
                    self.layer_seconds[layer] += value
                for layer, value in calls.items():
                    self.layer_calls[layer] += value

    def profiled(self, fn, *args):
        """Call ``fn`` under the current span's profiler."""
        profile = self._profile
        profile.enable()
        try:
            return fn(*args)
        finally:
            profile.disable()

    def shares(self) -> Dict[str, float]:
        total = sum(self.layer_seconds.values())
        return {layer: (self.layer_seconds.get(layer, 0.0) / total
                        if total else 0.0) for layer in LAYERS}

    def write(self, path: str) -> None:
        """Chrome-trace JSON (``chrome://tracing`` / Perfetto)."""
        events = []
        for index, record in enumerate(self.spans):
            args = {"run_id": record["run_id"], "span": index,
                    "parent": record["parent"]}
            if "layers" in record:
                args["layer_self_s"] = record["layers"]
            events.append({
                "name": record["name"], "ph": "X", "pid": 1, "tid": 1,
                "ts": record["start"] * 1e6,
                "dur": (record["end"] - record["start"]) * 1e6,
                "args": args})
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"traceEvents": events}, fh)
