"""Tests for the table of application runs behind Figures 5-6, Tables 4-5."""

from collections import Counter

from repro.apps.lcs import LcsParams
from repro.apps.nqueens import NQueensParams
from repro.apps.radix_sort import RadixParams
from repro.apps.tsp import TspParams
from repro.bench import appscale, fig5, fig6, table4, table5


def _instances():
    return {name: app.instance() for name, app in appscale.APPS.items()}


def test_small_scale_sizes(monkeypatch):
    monkeypatch.delenv("JM_SCALE", raising=False)
    apps = _instances()
    assert apps["lcs"].a_len == 256
    assert apps["radix_sort"].n_keys == 16384
    assert apps["nqueens"].n == 11
    assert apps["tsp"].n_cities == 11


def test_paper_scale_sizes(monkeypatch):
    monkeypatch.setenv("JM_SCALE", "paper")
    apps = _instances()
    assert apps["lcs"].a_len == 1024
    assert apps["lcs"].b_len == 4096
    assert apps["radix_sort"].n_keys == 65536
    assert apps["nqueens"].n == 13
    assert apps["tsp"].n_cities == 14
    assert apps["tsp"].task_depth == 3


def test_small_preserves_structure(monkeypatch):
    """Small-scale instances keep the same digit/alphabet structure."""
    monkeypatch.delenv("JM_SCALE", raising=False)
    apps = _instances()
    assert apps["radix_sort"].n_digits == 7
    assert apps["lcs"].b_len == 4 * apps["lcs"].a_len


TINY = {
    "lcs": LcsParams(a_len=16, b_len=64),
    "nqueens": NQueensParams(n=6, tasks_per_node=2),
    "radix_sort": RadixParams(n_keys=256),
    "tsp": TspParams(n_cities=6, task_depth=1),
}


def test_each_app_run_is_simulated_once_per_process(monkeypatch):
    """Figures 5-6 and Tables 4-5 share every (app, nodes, instance)."""
    runs = Counter()
    for name, app in appscale.APPS.items():
        monkeypatch.setitem(appscale.APPS, name,
                            app._replace(small=TINY[name]))

        def counted(n_nodes, params, _run=app.module.run_parallel,
                    _name=name):
            runs[_name, n_nodes, params] += 1
            return _run(n_nodes, params)

        monkeypatch.setattr(app.module, "run_parallel", counted)
    monkeypatch.delenv("JM_SCALE", raising=False)
    appscale._simulate.cache_clear()
    try:
        fig5.run(max_nodes=4)
        fig6.run(4)
        table4.run(4)
        table5.run(4)
    finally:
        appscale._simulate.cache_clear()
    assert runs == Counter({(name, n, TINY[name]): 1
                            for name in TINY for n in (1, 2, 4)})


def test_a_scale_change_is_a_new_run(monkeypatch):
    monkeypatch.setitem(appscale.APPS, "lcs", appscale.APPS["lcs"]._replace(
        small=TINY["lcs"], paper=LcsParams(a_len=8, b_len=32)))
    monkeypatch.delenv("JM_SCALE", raising=False)
    small = appscale.run_app("lcs", 2)
    assert appscale.run_app("lcs", 2) is small
    monkeypatch.setenv("JM_SCALE", "paper")
    assert appscale.run_app("lcs", 2).cycles != small.cycles
