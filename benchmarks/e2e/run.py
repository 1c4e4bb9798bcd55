"""The repo benchmark: one command, every metric by name and unit.

    python3 benchmarks/e2e/run.py --workload cycle_apps --seed 7 \\
        --seconds 12 --trace 0

prints a ``detail`` JSON line (per-unit medians, quartiles, notes) and,
last, the result line: ``correct``, ``attempted``, ``failed`` and the
metrics listed in ``BENCHMARK.json`` — the end-to-end ones with
``--trace 0``, the per-layer ones with ``--trace 1`` (alias
``--layers``).  ``--selfcheck`` and ``--repin`` are described in
README.md.  Layers are timed from outside, through their public
functions; nothing under ``src/`` knows this file exists.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
EXPECTED = os.path.join(HERE, "expected.json")

if not os.path.isdir(os.path.join(SRC, "repro")):
    sys.exit(f"run.py: no program to measure: {SRC}/repro is missing")
sys.path.insert(0, SRC)
sys.path.insert(0, HERE)

import harness  # noqa: E402
import tracer as tracing  # noqa: E402
import wl_cycle  # noqa: E402
import wl_fabric  # noqa: E402
import wl_macro  # noqa: E402
import wl_observed  # noqa: E402
import wl_service  # noqa: E402

WORKLOADS = {
    "cycle_compute": wl_cycle.setup_compute,
    "cycle_apps": wl_cycle.setup_apps,
    "fabric_traffic": wl_fabric.setup,
    "macro_apps": wl_macro.setup,
    "observed_run": wl_observed.setup,
    "service_sweep": wl_service.setup,
}

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


@dataclass
class Context:
    """What a workload's set-up may ask the runner for."""

    #: Build the layer-only units too (``--trace 1``).
    layers: bool
    #: Scratch directory inside the checkout, removed at exit.
    tmpdir: str


@contextmanager
def _context(layers: bool):
    """A :class:`Context` whose scratch directory lives for the block."""
    ctx = Context(layers=layers,
                  tmpdir=os.path.join(OUT, f"tmp-{os.getpid()}"))
    os.makedirs(ctx.tmpdir, exist_ok=True)
    try:
        yield ctx
    finally:
        shutil.rmtree(ctx.tmpdir, ignore_errors=True)


def load_benchmark() -> Dict[str, Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _purge_repro() -> None:
    """Forget the imported package so the next set-up pays for importing
    it again (numpy and the stdlib stay: they are not this repo's)."""
    for name in [m for m in sys.modules
                 if m == "repro" or m.startswith("repro.")]:
        del sys.modules[name]


def _hide(target: str) -> None:
    """Delete ``module:attr`` — the selfcheck's vanished entry point."""
    import importlib

    module, attr = target.split(":")
    delattr(importlib.import_module(module), attr)


def _raw_seconds(result: harness.PassResult, names: List[str]
                 ) -> Optional[float]:
    """Raw wall seconds one pass spent in the named units."""
    if any(name not in result.samples for name in names):
        return None  # a unit failed: this pass has no total
    return sum(result.samples[n].raw for n in names)


def _drift(workload: str, seed: int, scale: float,
           results: harness.Results, units: List[harness.Unit]) -> List[str]:
    """Units whose simulated statistics differ from ``expected.json``."""
    if not os.path.exists(EXPECTED):
        return []
    with open(EXPECTED, encoding="utf-8") as fh:
        pinned = json.load(fh)
    if pinned["seed"] != seed or scale != 1.0:
        return []  # the pin describes one input set only
    drifted = []
    for unit in units:
        want = pinned["units"].get(f"{workload}/{unit.name}")
        got = results.stats(unit.name)
        if unit.repeats and want is not None and got is not None \
                and want != got:
            drifted.append(unit.name)
    return drifted


@dataclass
class Measured:
    """What one run observed, before any metric is computed."""

    workload: harness.Workload
    #: Calibrated seconds of each set-up.
    setup: List[float]
    warmup: harness.PassResult
    passes: List[harness.PassResult]
    #: The extra pass under the span recorder (``--trace 1`` only).
    traced: Optional[harness.PassResult]


def _measure(name: str, seed: int, seconds: float, scale: float,
             setup_reps: int, min_passes: int, hide: Optional[str],
             clock: harness.Clock, tracer, ctx: Context) -> Measured:
    """Set-up several times, one warm-up pass, timed passes for
    ``seconds``, and with tracing on one traced pass."""
    untraced = tracing.NullTracer()  # per-layer timings come from these

    def set_up():
        built = WORKLOADS[name](seed, scale, ctx)
        for unit in built.units:
            if unit.e2e:
                unit.prepare()
        return built

    setup = []
    for _ in range(setup_reps):
        _purge_repro()
        with tracer.span("setup"):
            workload, _, cal, _ = clock.timed(set_up)
        setup.append(cal)
    if hide:
        _hide(hide)
    workload.start()
    try:
        warmup = harness.run_pass(workload.units, clock, untraced)
        timed_units = [u for u in workload.units
                       if u.name not in workload.once]
        passes: List[harness.PassResult] = []
        # The traced run also needs time for its traced pass.
        budget = seconds * (0.75 if ctx.layers else 1.0)
        started = time.perf_counter()
        estimate = warmup.raw_wall
        while (len(passes) < min_passes
               or time.perf_counter() - started + estimate <= budget):
            passes.append(harness.run_pass(timed_units, clock, untraced,
                                           reverse=len(passes) % 2 == 1))
            estimate = harness.median([p.raw_wall for p in passes])
        traced = None
        if ctx.layers:
            with tracer.span(f"workload:{name}"):
                traced = harness.run_pass(
                    [u for u in workload.units
                     if u.e2e or u.name in workload.profiled],
                    clock, tracer)
    finally:
        workload.close()
    return Measured(workload, setup, warmup, passes, traced)


def _check(m: Measured, results: harness.Results):
    """(attempted, failed, notes): raised checkers, failed service jobs,
    statistics that differ between passes, variants that diverge from
    their plain twin."""
    every = [m.warmup] + m.passes + ([m.traced] if m.traced else [])
    by_name = {unit.name: unit for unit in m.workload.units}
    attempted = failed = 0
    notes: List[str] = []
    for result in every:
        for unit_name, sample in result.samples.items():
            attempted += by_name[unit_name].ops
            failed += sample.stats.get("failed_ops", 0)
        for unit_name, error in result.failed.items():
            attempted += by_name[unit_name].ops
            failed += by_name[unit_name].ops
            notes.append(f"{unit_name}: {error}")
    for unit in m.workload.units:
        if not unit.repeats:
            continue
        seen = [r.samples[unit.name].stats for r in every
                if unit.name in r.samples]
        attempted += 1
        if any(stats != seen[0] for stats in seen[1:]):
            failed += 1
            notes.append(f"{unit.name}: simulated statistics differ "
                         f"between passes of one run")
    for variant, plain in m.workload.twins.items():
        ours, theirs = results.stats(variant), results.stats(plain)
        if ours is None or theirs is None:
            continue
        attempted += 1
        if any(ours.get(k) != theirs.get(k) for k in m.workload.twin_keys):
            failed += 1
            notes.append(f"{variant}: diverges from {plain}")
    return attempted, failed, notes


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 scale: float = 1.0, setup_reps: Optional[int] = None,
                 min_passes: Optional[int] = None,
                 hide: Optional[str] = None) -> Dict[str, Any]:
    """One benchmark run; returns ``{"result": ..., "detail": ...}``."""
    config = harness.load_config()
    benchmark = load_benchmark()
    clock = harness.Clock(config, scale)
    tracer = (tracing.Tracer(f"{name}-{seed}-{os.getpid()}") if trace
              else tracing.NullTracer())
    if setup_reps is None:
        setup_reps = 1 if trace else int(config["setup_reps"])
    if min_passes is None:
        min_passes = 2 if trace else int(config["min_timed_passes"])
    with _context(trace) as ctx:
        m = _measure(name, seed, seconds, scale, setup_reps, min_passes,
                     hide, clock, tracer, ctx)
    units = m.workload.units
    e2e = [unit.name for unit in units if unit.e2e]
    results = harness.Results(m.warmup, m.passes)
    attempted, failed, notes = _check(m, results)
    missing = dict(m.warmup.missing)
    for result in m.passes:
        missing.update(result.missing)
    drifted = _drift(name, seed, scale, results, units)

    host_s = results.total(e2e)
    # A pass in which a unit failed has no total; the others still count.
    whole = [p for p in m.passes if _raw_seconds(p, e2e)]
    cycles = harness.median([
        sum(p.samples[n].stats.get("cycles", 0) for n in e2e) for p in whole])
    bench = {
        "bench.raw_wall_s":
            harness.median([_raw_seconds(p, e2e) for p in whole]),
        "bench.calib_spin_s": harness.median(clock.spins),
        "bench.calib_spread": clock.spread(),
        "bench.passes": len(m.passes),
    }
    detail: Dict[str, Any] = {
        "workload": name, "seed": seed, "scale": scale, "trace": int(trace),
        **bench,
        "host_s_pass_quartiles": harness.quartiles(
            [sum(p.samples[n].cal for n in e2e) for p in whole]),
        "units_s": {unit.name: results.seconds(unit.name) for unit in units},
        "missing": missing, "sim.stat_drift": drifted, "notes": notes,
    }
    if not trace:
        values = {
            "setup_s": harness.median(m.setup),
            "host_s": host_s,
            "peak_rss_mb": harness.peak_rss_mb(m.workload.multi_process),
            "sim_cycles_per_host_s": cycles / host_s,
        }
        wanted = benchmark["end_to_end"]
    else:
        values = dict(m.workload.layer_metrics(results))
        shares = tracer.shares()
        for layer in tracing.LAYERS:
            values[f"prof.{layer}.share"] = shares[layer]
            values[f"prof.{layer}.calls"] = tracer.layer_calls.get(layer, 0)
        values.update(bench)
        values["bench.trace_overhead_ratio"] = harness.ratio(
            _raw_seconds(m.traced, e2e), bench["bench.raw_wall_s"])
        values["sim.stat_drift"] = len(drifted)
        tracer.write(os.path.join(OUT, f"trace-{name}.json"))
        wanted = benchmark["per_layer"]
        # A layer metric this workload does not measure reads 0; one
        # whose entry point is gone reads 0 too and is named in
        # detail["null"] (the result line carries numbers only).
        detail["null"] = sorted(k for k, v in values.items() if v is None)
    detail["measured"] = sorted(k for k, v in values.items() if v is not None)
    metrics = {}
    for metric in wanted:
        value = values.get(metric["name"])
        metrics[metric["name"]] = {
            "value": 0.0 if value is None else value, "unit": metric["unit"]}
    return {"detail": detail,
            "result": {"correct": failed == 0, "attempted": attempted,
                       "failed": failed, "metrics": metrics}}


def _emit(report: Dict[str, Any]) -> None:
    print(json.dumps({"detail": report["detail"]}))
    print(json.dumps(report["result"]))


def repin() -> int:
    """Rewrite ``expected.json`` from one pass at the default seed."""
    config = harness.load_config()
    seed = config["default_seed"]
    units: Dict[str, Any] = {}
    for name in WORKLOADS:
        with _context(layers=True) as ctx:
            workload = WORKLOADS[name](seed, 1.0, ctx)
            try:
                workload.start()
                result = harness.run_pass(workload.units,
                                          harness.Clock(config),
                                          tracing.NullTracer())
            finally:
                workload.close()
        for unit in workload.units:
            if unit.repeats and unit.name in result.samples:
                units[f"{name}/{unit.name}"] = result.samples[unit.name].stats
    with open(EXPECTED, "w", encoding="utf-8") as fh:
        json.dump({"seed": seed, "units": units}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"repin: {len(units)} units pinned at seed {seed}")
    return 0


def write_layers() -> int:
    """Rewrite ``LAYERS.json``: what ``--trace 1`` measures on each
    workload at the default seed (a metric another workload measures
    reads 0 on the result line and is left out here)."""
    seed = harness.load_config()["default_seed"]
    seconds = load_benchmark()["run_seconds"]
    layers: Dict[str, Any] = {"seed": seed, "run_seconds": seconds}
    for name in WORKLOADS:
        report = run_workload(name, seed, seconds, True)
        result, detail = report["result"], report["detail"]
        layers[name] = {
            "correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "missing": detail["missing"],
            "metrics": {k: result["metrics"][k] for k in detail["measured"]
                        if k in result["metrics"]}}
        print(f"layers: {name} done", flush=True)
    with open(os.path.join(HERE, "LAYERS.json"), "w", encoding="utf-8") as fh:
        json.dump(layers, fh, indent=1)
        fh.write("\n")
    return 0


def selfcheck() -> int:
    """Every workload at ~1/10 size; names and counts against the
    contract; one hidden entry point (README.md, "Selfcheck")."""
    started = time.perf_counter()
    benchmark = load_benchmark()
    assert set(benchmark) == {"command", "paths", "run_seconds", "workloads",
                              "end_to_end", "per_layer"}, sorted(benchmark)
    assert [w["name"] for w in benchmark["workloads"]] == list(WORKLOADS)
    assert 2 <= len(benchmark["workloads"]) <= 8
    assert 1 <= len(benchmark["end_to_end"]) <= 16
    assert 1 <= len(benchmark["per_layer"]) <= 128
    listed = {}
    for group in ("workloads", "end_to_end", "per_layer"):
        for entry in benchmark[group]:
            assert NAME.match(entry["name"]), entry["name"]
            assert entry["name"] not in listed, entry["name"]
            listed[entry["name"]] = group
            if group != "workloads":
                assert re.match(r"^[A-Za-z0-9_/%.-]{1,16}$", entry["unit"])
    assert any(m["name"] == "setup_s" and m["unit"] == "s"
               and m["better"] == "lower" for m in benchmark["end_to_end"])
    per_layer = {m["name"] for m in benchmark["per_layer"]}
    measured_somewhere = set()
    seed = harness.load_config()["default_seed"] + 1
    for name in WORKLOADS:
        for trace in (False, True):
            report = run_workload(name, seed, 0.0, trace, scale=0.1,
                                  setup_reps=1, min_passes=1)
            result = report["result"]
            wanted = benchmark["per_layer" if trace else "end_to_end"]
            assert list(result["metrics"]) == [m["name"] for m in wanted]
            assert all(m["unit"] for m in result["metrics"].values())
            assert result["correct"] and result["failed"] == 0, \
                (name, report["detail"]["notes"])
            assert result["attempted"] >= 1
            if trace:
                assert not report["detail"]["null"], report["detail"]
                extra = set(report["detail"]["measured"]) - per_layer
                assert not extra, f"{name} measures unlisted {extra}"
                measured_somewhere |= set(report["detail"]["measured"])
            else:
                assert all(m["value"] > 0
                           for m in result["metrics"].values()), result
        print(f"selfcheck: {name} ok "
              f"({time.perf_counter() - started:.1f} s)")
    unmeasured = per_layer - measured_somewhere
    assert not unmeasured, f"no workload measures {sorted(unmeasured)}"
    # The missing-entry-point rule: a per-layer unit whose public entry
    # point is gone reads null and is named; the run still succeeds.
    report = run_workload("macro_apps", seed, 0.0, True, scale=0.1,
                          setup_reps=1, min_passes=1,
                          hide="repro.jsim.netmodel:LatencyModel")
    assert report["detail"]["null"] == ["jsim.netmodel_latency_us"], report
    assert "netmodel" in report["detail"]["missing"]
    assert report["result"]["correct"]
    elapsed = time.perf_counter() - started
    print(f"selfcheck: hidden entry point ok; all ok in {elapsed:.1f} s")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int,
                        default=harness.load_config()["default_seed"])
    parser.add_argument("--seconds", type=float, default=None,
                        help="measurement length (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--layers", action="store_true",
                        help="same as --trace 1")
    parser.add_argument("--selfcheck", action="store_true")
    parser.add_argument("--repin", action="store_true")
    parser.add_argument("--write-layers", action="store_true",
                        help="rewrite LAYERS.json from all six workloads")
    args = parser.parse_args(argv)
    if args.selfcheck:
        return selfcheck()
    if args.repin:
        return repin()
    if args.write_layers:
        return write_layers()
    if args.workload is None:
        parser.error("--workload is required")
    seconds = args.seconds
    if seconds is None:
        seconds = load_benchmark()["run_seconds"]
    _emit(run_workload(args.workload, args.seed, seconds,
                       bool(args.trace or args.layers)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
