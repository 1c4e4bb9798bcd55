"""Tests for the Figure 6 profiling structure."""

import pytest

from repro.jsim.profile import CATEGORIES, Profile
from repro.jsim.sim import MacroSimulator


def _run_one_task(handler):
    sim = MacroSimulator(2)
    sim.register("h", handler)
    sim.inject(1, "h")
    sim.run()
    return sim.nodes[1].profile


def test_charge_accumulates():
    """A task's charges reach its node's profile when it ends."""
    def handler(ctx):
        ctx.charge(cycles=10)
        ctx.charge(cycles=5)

    assert _run_one_task(handler).compute == 15


def test_unknown_category_rejected():
    def handler(ctx):
        ctx.charge(cycles=10, category="naps")

    with pytest.raises(ValueError):
        _run_one_task(handler)


def test_busy_sums_all_categories():
    profile = Profile(**{category: i for i, category
                         in enumerate(CATEGORIES, start=1)})
    assert profile.busy == sum(range(1, len(CATEGORIES) + 1))


def test_breakdown_includes_idle():
    profile = Profile(compute=30, comm=20)
    breakdown = profile.breakdown(wall_cycles=100)
    assert breakdown["compute"] == pytest.approx(0.3)
    assert breakdown["comm"] == pytest.approx(0.2)
    assert breakdown["idle"] == pytest.approx(0.5)


def test_breakdown_zero_wall():
    breakdown = Profile().breakdown(0)
    assert breakdown["idle"] == 0.0


def test_idle_never_negative():
    profile = Profile(compute=200)
    assert profile.breakdown(100)["idle"] == 0.0


def test_categories_match_fig6_plotting_order():
    """bench/fig6.py stacks idle on top, then the categories bottom-up;
    its column tuple must stay the reverse of CATEGORIES plus idle."""
    from repro.bench.fig6 import BREAKDOWN_COLUMNS

    assert BREAKDOWN_COLUMNS[0] == "idle"
    assert tuple(reversed(BREAKDOWN_COLUMNS[1:])) == CATEGORIES


def test_breakdown_covers_every_fig6_column():
    from repro.bench.fig6 import BREAKDOWN_COLUMNS

    profile = Profile(**dict.fromkeys(CATEGORIES, 10))
    breakdown = profile.breakdown(wall_cycles=100)
    assert set(BREAKDOWN_COLUMNS) <= set(breakdown)


def test_idle_is_wall_minus_busy():
    profile = Profile(compute=40, nnr=25)
    breakdown = profile.breakdown(wall_cycles=130)
    assert breakdown["idle"] == pytest.approx((130 - profile.busy) / 130)


def test_merge_combines_everything():
    a = Profile(compute=10, instructions=5, xlate_count=2)
    b = Profile(compute=7, sync=3, instructions=1, xlate_faults=4)
    a.merge(b)
    assert a.compute == 17
    assert a.sync == 3
    assert a.instructions == 6
    assert a.xlate_count == 2
    assert a.xlate_faults == 4
