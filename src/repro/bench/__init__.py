"""Benchmark harness: regenerates every table and figure of the paper.

One module per artifact::

    fig2    round-trip latency vs distance
    table1  one-way message overhead vs contemporaries
    fig3    latency vs load / efficiency vs grain size
    fig4    terminal bandwidth vs message size
    table2  producer-consumer synchronization costs
    table3  barrier synchronization vs machine size
    fig5    application speedups
    fig6    per-node time breakdowns
    table4  application statistics (64 nodes)
    table5  TSP cost components

plus ``crossover``, ``ablations`` and ``xlevel``.  Each exposes ``run()``
and a formatter; :mod:`repro.bench.fidelity` scores the paper's claims
against the results.  ``python -m repro.bench`` runs them all.  Scale is
``JM_SCALE`` (``small`` default, ``paper`` full).
"""

from . import (ablations, appscale, crossover, fidelity, fig2, fig3, fig4,
               fig5, fig6, harness, plots, reference, table1, table2, table3,
               table4, table5)

__all__ = [
    "ablations", "appscale", "crossover", "fidelity", "fig2", "fig3", "fig4",
    "fig5", "fig6", "harness", "plots", "reference", "table1", "table2",
    "table3", "table4", "table5",
]
