"""The paper's application runs: one table of instances, each run once.

``paper`` scale uses exactly the paper's instances; ``small`` scale uses
proportionally reduced ones that keep every qualitative trend (systolic
skew, bisection saturation, task-size imbalance, pruning luck) while
running in seconds.

Figure 5, Figure 6 and Tables 4 and 5 all describe runs of these apps,
and the 64-node ones are shared by all four.  A run is a pure function
of (app, nodes, instance), so :func:`run_app` simulates each point once
per process and every artifact reads the same :class:`AppResult`.
"""

from __future__ import annotations

from functools import lru_cache
from types import ModuleType
from typing import Any, NamedTuple

from ..apps import lcs, nqueens, radix_sort, tsp
from ..apps.base import AppResult
from .harness import is_paper_scale

__all__ = ["App", "APPS", "run_app", "base_cycles"]


class App(NamedTuple):
    module: ModuleType
    small: Any
    paper: Any
    #: Figure 5's base case is "a good sequential implementation", except
    #: for TSP, where "it is the parallel code" on one node.
    sequential_base: bool = True

    def instance(self) -> Any:
        return self.paper if is_paper_scale() else self.small


#: App name -> its module and instances, in Figure 6's row order.
APPS = {
    "lcs": App(lcs, lcs.LcsParams(a_len=256, b_len=1024),
               lcs.LcsParams()),  # 1024 x 4096
    "nqueens": App(nqueens, nqueens.NQueensParams(n=11),
                   nqueens.NQueensParams(n=13)),
    "radix_sort": App(radix_sort, radix_sort.RadixParams(n_keys=16384),
                      radix_sort.RadixParams()),  # 65,536 keys
    "tsp": App(tsp, tsp.TspParams(n_cities=11, task_depth=2),
               tsp.TspParams(n_cities=14, task_depth=3),
               sequential_base=False),
}


def run_app(name: str, n_nodes: int) -> AppResult:
    """App ``name`` on ``n_nodes`` nodes at the active scale, run once."""
    return _simulate(name, n_nodes, APPS[name].instance())


@lru_cache(maxsize=None)
def _simulate(name: str, n_nodes: int, instance: Any) -> AppResult:
    return APPS[name].module.run_parallel(n_nodes, instance)


def base_cycles(name: str) -> int:
    """Figure 5's base case for app ``name``: the speedup numerator."""
    app = APPS[name]
    if app.sequential_base:
        return app.module.run_sequential(app.instance()).cycles
    return run_app(name, 1).cycles
