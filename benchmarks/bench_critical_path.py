"""Critical-path analysis of the traced macro benchmarks.

Runs LCS and N-Queens with causal tracing on (``Telemetry(trace=True)``)
at several machine sizes, rebuilds the causal graph from the event
stream, and reports per run:

* the **critical path** — the longest chain of causally-dependent work
  from the first injection to run end, with its cycles attributed to
  compute / dispatch / send / net / sync / xlate;
* the **available parallelism** — total work divided by critical-path
  length, i.e. the speedup ceiling no machine size can beat.

This is the causal explanation of the Figure 5 speedup knees: an
application stops scaling once the node count passes its available
parallelism, because from there the machine is waiting on the critical
path, not on free processors.  Where the ceiling sits depends on the
problem size relative to the machine: the table makes the knee visible
as the point where ``avail.par`` stops tracking ``nodes`` — efficiency
(avail.par / nodes) decays monotonically as chunks shrink and the
serial spine (for LCS, node 0 generating every character message)
takes over.

Usage::

    PYTHONPATH=src python benchmarks/bench_critical_path.py           # table
    PYTHONPATH=src python benchmarks/bench_critical_path.py --smoke   # gate

``--smoke`` is the ``make trace-smoke`` entry point: a tiny traced LCS
run that *asserts* the tracing contract — the reconstructed path is
connected from an injection root to run end, the causal graph is
acyclic, and the per-category attribution sums to the path length and
never exceeds the run's cycle count — then asserts the knee itself:
both apps' efficiency decays over 4, 8 and 16 nodes.  Exit status is
non-zero on any violation.
"""

from __future__ import annotations

import argparse
import sys

from repro.apps import lcs, nqueens
from repro.telemetry import CausalGraph, Telemetry
from repro.telemetry.trace import PATH_CATEGORIES

#: (app name, runner) — runner(n_nodes, telemetry) -> AppResult.
APPS = (
    ("lcs", lambda n, t, scale: lcs.run_parallel(
        n, lcs.LcsParams().scaled(scale), telemetry=t)),
    ("nqueens", lambda n, t, scale: nqueens.run_parallel(
        n, nqueens.NQueensParams(n=9), telemetry=t)),
)

NODE_COUNTS = (4, 8, 16)


def trace_app(name: str, runner, n_nodes: int, scale: float):
    """Run one traced app; returns (AppResult, CausalGraph, CriticalPath)."""
    telemetry = Telemetry(trace=True)
    result = runner(n_nodes, telemetry, scale)
    graph = CausalGraph.from_bus(telemetry.events)
    path = graph.critical_path()
    return result, graph, path


def check_contract(result, graph, path) -> None:
    """Assert the tracing invariants the smoke gate holds."""
    problems = graph.validate()
    assert not problems, f"causal graph invalid: {problems}"
    assert path.connected, "critical path has a gap"
    assert path.acyclic, "critical path revisits a span"
    assert path.steps[0].span.parent is None, \
        "critical path does not start at an injection root"
    cats = path.categories()
    total = sum(cats.values())
    assert abs(total - path.length) <= max(1e-6 * path.length, 1e-6), \
        f"category attribution {total} != path length {path.length}"
    assert total <= result.cycles + 1e-6, \
        f"attributed cycles {total} exceed run cycles {result.cycles}"


def sweep(node_counts, scale: float):
    """Trace every app at every size; returns printable result rows."""
    rows = []
    for name, runner in APPS:
        for n_nodes in node_counts:
            result, graph, path = trace_app(name, runner, n_nodes, scale)
            check_contract(result, graph, path)
            cats = path.categories()
            rows.append({
                "app": name,
                "nodes": n_nodes,
                "cycles": result.cycles,
                "spans": graph.n_spans,
                "path": path.length,
                "work": path.total_work,
                "parallelism": path.available_parallelism,
                "cats": cats,
            })
    return rows


def format_rows(rows) -> str:
    out = ["# Critical path and available parallelism (traced runs)", ""]
    header = (f"{'app':<10}{'nodes':>6}{'cycles':>10}{'path':>10}"
              f"{'work':>11}{'avail.par':>10}  top categories")
    out.append(header)
    out.append("-" * len(header))
    for row in rows:
        cats = sorted(row["cats"].items(), key=lambda kv: -kv[1])
        top = "  ".join(f"{k}={v / row['path']:.0%}" for k, v in cats[:3]
                        if v > 0)
        out.append(f"{row['app']:<10}{row['nodes']:>6}{row['cycles']:>10}"
                   f"{round(row['path']):>10}{round(row['work']):>11}"
                   f"{row['parallelism']:>10.2f}  {top}")
    out.append("")
    out.append("The Figure 5 knee for each app sits where the node count "
               "crosses avail.par: past that, the run is bound by the "
               "critical path, not by processor count.")
    return "\n".join(out)


def smoke() -> int:
    """The CI gate: the tracing contract on a tiny LCS run, then each
    app's efficiency decaying over ``NODE_COUNTS`` (the speedup knee)."""
    result, graph, path = trace_app("lcs", APPS[0][1], 4, scale=0.05)
    check_contract(result, graph, path)
    cats = path.categories()
    assert set(cats) == set(PATH_CATEGORIES)
    print(f"trace-smoke OK: {graph.n_spans} spans, critical path "
          f"{round(path.length)} of {result.cycles} cycles, "
          f"available parallelism {path.available_parallelism:.2f}x")
    for name, runner in APPS:
        efficiency = []
        for n_nodes in NODE_COUNTS:
            _, _, path = trace_app(name, runner, n_nodes, scale=0.25)
            assert path.available_parallelism < n_nodes + 1e-6
            efficiency.append(path.available_parallelism / n_nodes)
        assert efficiency == sorted(efficiency, reverse=True), \
            f"{name}: efficiency should decay toward the knee: {efficiency}"
    print(f"trace-smoke OK: efficiency decays over {NODE_COUNTS} nodes")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="tiny asserting run (the make trace-smoke gate)")
    parser.add_argument("--scale", type=float, default=0.25,
                        help="problem-size factor for the full sweep")
    parser.add_argument("--nodes", type=int, nargs="+",
                        default=list(NODE_COUNTS),
                        help="machine sizes to trace")
    args = parser.parse_args(argv)
    if args.smoke:
        return smoke()
    rows = sweep(args.nodes, args.scale)
    print(format_rows(rows))
    return 0


if __name__ == "__main__":
    sys.exit(main())
