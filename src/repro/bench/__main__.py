"""Run every experiment, print every table/figure, and score the paper.

Usage::

    python -m repro.bench                     # small scale, ~36 s
    JM_SCALE=paper python -m repro.bench      # the paper's sizes
    python -m repro.bench fig2 table2 --out results.md   # a subset, saved

Each selected artifact runs once; the report ends with the
:mod:`repro.bench.fidelity` scorecard of the artifacts that ran, and the
exit status is 1 when a row is out of band.  Timings go to stderr, so
the report is byte-identical between commits that simulate the same
numbers.  ``python -m repro.bench trajectory [artifacts...]
[--no-gate]`` instead renders and gates the committed perf-trajectory
histories (:mod:`repro.bench.trajectory`).
"""

from __future__ import annotations

import sys
import time

from . import (ablations, crossover, fidelity, fig2, fig3, fig4, fig5, fig6,
               harness, table1, table2, table3, table4, table5, xlevel)


def _joined(*formats):
    return lambda result: "\n\n".join(format(result) for format in formats)


#: Report order: name -> (run, render).
ARTIFACTS = {
    "fig2": (fig2.run, _joined(fig2.format_result, fig2.format_chart)),
    "table1": (table1.run, table1.format_result),
    "fig3": (fig3.run, _joined(
        fig3.format_latency_table, fig3.format_chart,
        fig3.format_efficiency_table, fig3.format_efficiency_chart)),
    "fig4": (fig4.run, _joined(fig4.format_result, fig4.format_chart)),
    "table2": (table2.run, table2.format_result),
    "table3": (table3.run, table3.format_result),
    "fig5": (fig5.run, _joined(fig5.format_result, fig5.format_chart)),
    "fig6": (fig6.run, fig6.format_result),
    "table4": (table4.run, table4.format_result),
    "table5": (table5.run, table5.format_result),
    "crossover": (crossover.run, crossover.format_result),
    "ablations": (ablations.run, ablations.format_result),
    "xlevel": (xlevel.run, xlevel.format_result),
}


def main(argv) -> int:
    if argv and argv[0] == "trajectory":
        from .trajectory import main as trajectory_main

        return trajectory_main(argv[1:])
    args = list(argv)
    out_path = None
    if "--out" in args:
        index = args.index("--out")
        out_path = args[index + 1]
        del args[index:index + 2]
    unknown = sorted(set(args) - set(ARTIFACTS))
    if unknown:
        print(f"unknown artifact(s) {', '.join(unknown)}; choose from "
              f"{', '.join(ARTIFACTS)}", file=sys.stderr)
        return 2
    lines = []

    def emit(text: str) -> None:
        print(text)
        lines.append(text + "\n")

    emit(f"J-Machine reproduction — scale: {harness.scale()}\n")
    scores = []
    for name, (run, render) in ARTIFACTS.items():
        if args and name not in args:
            continue
        start = time.time()
        result = run()
        emit(render(result) + "\n")
        print(f"[{name}: {time.time() - start:.1f}s]", file=sys.stderr)
        scores += fidelity.score(name, result)
    emit(fidelity.format_scorecard(scores))
    if out_path:
        with open(out_path, "w") as sink:
            sink.writelines(lines)
    return 0 if all(row.accepts(value) for row, value in scores) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
